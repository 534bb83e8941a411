# Drives a real bench main through the distributed roles: a 1-process
# run, two --shard workers under --resume, and --merge, all with
# --freeze-timing. The merged stdout must be byte-identical to the
# 1-process JSON line, and worker and merger stdout must hold nothing but
# their JSON line (no figure tables).
#
#   cmake -DBENCH=<bench binary> -DWORK_DIR=<scratch dir> -P bench_roles.cmake
foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_roles.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_bench out_var)
  execute_process(COMMAND "${BENCH}" --freeze-timing ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGN} exited with ${rc}:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# A plain run prints its figure, then the JSON record as the last line.
run_bench(plain)
string(REGEX MATCH "[^\n]*\n$" plain_json "${plain}")
if(NOT plain_json MATCHES "^{\"bench\": ")
  message(FATAL_ERROR "1-process stdout does not end in a JSON line:\n${plain}")
endif()
if(plain STREQUAL plain_json)
  message(FATAL_ERROR "1-process run printed no figure:\n${plain}")
endif()

set(base "${WORK_DIR}/campaign")
foreach(shard 0/2 1/2)
  run_bench(worker --resume "${base}" --shard ${shard})
  if(NOT worker MATCHES "^{\"bench\": [^\n]*\n$")
    message(FATAL_ERROR
      "--shard ${shard} stdout is not just its JSON line:\n${worker}")
  endif()
endforeach()

run_bench(merged --merge "${base}")
if(NOT merged STREQUAL plain_json)
  message(FATAL_ERROR "--merge stdout is not the 1-process JSON line:\n"
    "--- merge\n${merged}--- 1-process\n${plain_json}")
endif()
