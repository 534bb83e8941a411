# Stdout golden: runs one bench on the scalar (golden) kernel backend and
# compares the sha256 of its stdout with the committed value. The benches
# are run with --freeze-timing, so their stdout (figure tables and JSON
# record) is a pure function of the flags.
#
#   cmake -DBENCH=<bench binary> "-DARGS=<bench flags>" -DSHA256=<hex>
#         -P bench_stdout.cmake
foreach(var BENCH ARGS SHA256)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_stdout.cmake needs -D${var}=...")
  endif()
endforeach()

set(ENV{MMR_KERNEL_BACKEND} scalar)
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}:\n${err}")
endif()

string(SHA256 got "${out}")
if(NOT got STREQUAL SHA256)
  message(FATAL_ERROR "${BENCH} ${ARGS}: stdout sha256 is ${got}, "
    "expected ${SHA256}\n--- stdout\n${out}")
endif()
