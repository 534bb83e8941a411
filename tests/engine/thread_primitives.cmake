# Lint: the library starts threads in one place and hands results back
# through index-addressed slots, never through futures. Fails when
# std::thread, std::jthread, std::async or condition_variable appears in
# a source file under src/ other than src/common/thread_pool.{h,cpp}, so
# every concurrent path runs on common::ThreadPool and the sanitizer
# tiers have one primitive to cover; and when std::future,
# std::packaged_task, std::promise or <future> appears in any source file
# under src/, thread_pool.{h,cpp} included, so parallel_for stays
# allocation-free.
#
#   cmake -DSRC_DIR=<repo>/src -P thread_primitives.cmake
if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "thread_primitives.cmake needs -DSRC_DIR=...")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
if(NOT sources)
  message(FATAL_ERROR "no sources under ${SRC_DIR}")
endif()
set(thread_pattern "std::thread|std::jthread|std::async|condition_variable")
set(future_pattern "std::future|std::packaged_task|std::promise|<future>")
set(offenders "")
foreach(source IN LISTS sources)
  if(source MATCHES "/common/thread_pool\\.(h|cpp)$")
    set(pattern "${future_pattern}")
  else()
    set(pattern "${thread_pattern}|${future_pattern}")
  endif()
  file(STRINGS "${source}" hits REGEX "${pattern}")
  foreach(hit IN LISTS hits)
    string(STRIP "${hit}" hit)
    string(APPEND offenders "\n  ${source}: ${hit}")
  endforeach()
endforeach()
if(offenders)
  message(FATAL_ERROR "threading primitive outside common/thread_pool, "
    "or a future anywhere under src/:"
    "${offenders}")
endif()
