# Build hook for tfrbench. The benchmark must compile with exactly the flags
# of the repository's own build, so run.py configures the root project with
#
#   cmake -S . -B build-bench -DCMAKE_PROJECT_INCLUDE=$PWD/bench/tfrbench/tfrbench.cmake
#
# CMake includes this file right after the root project() call, before the
# root CMakeLists.txt sets its compile options and include directories. The
# deferred call below runs when the root CMakeLists.txt has been processed,
# so the target inherits them. (A deferred add_subdirectory is rejected by
# CMake, hence a deferred function.)
include_guard(GLOBAL)

set(TFRBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(tfrbench_add_target)
  add_executable(tfrbench ${TFRBENCH_DIR}/tfrbench.cpp ${TFRBENCH_DIR}/snapshot.cpp)
  target_link_libraries(tfrbench PRIVATE tfr_testbed tfr_ycsb)
endfunction()

cmake_language(DEFER CALL tfrbench_add_target)
