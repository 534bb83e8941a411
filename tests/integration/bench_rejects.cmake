# Death test for a shared flag that a bench does not honour: the bench
# must exit 2 and name the flag on stderr instead of ignoring it.
#
#   cmake -DBENCH=<bench binary> "-DARGS=<bench flags>" -DFLAG=<flag>
#         -P bench_rejects.cmake
foreach(var BENCH ARGS FLAG)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_rejects.cmake needs -D${var}=...")
  endif()
endforeach()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}, expected 2:\n"
    "--- stdout\n${out}\n--- stderr\n${err}")
endif()
string(FIND "${err}" "${FLAG} is not supported" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARGS}: stderr does not reject ${FLAG}:\n"
    "${err}")
endif()
