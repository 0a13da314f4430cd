# Passes only when two copies of BIN, each run with the argument ARG, run
# at the same time in one fresh temporary directory (TMPDIR=DIR) and both
# exit 0: the check that concurrent runs of one binary never share a
# file there.
#
#   cmake -DBIN=<path> -DARG=<arg> -DDIR=<dir> -P tools/run_twice_at_once.cmake
#
# execute_process runs its commands at once as a pipeline, so each copy
# runs inside a child of this script (CHILD=1) that captures the copy's
# output: nothing is written into the pipe, and a copy that ends first
# cannot break the other's output. A failing child names its copy's exit
# status and prints its output on stderr.
if(CHILD)
  execute_process(COMMAND "${BIN}" "${ARG}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${BIN} ${ARG} ended with '${rc}' beside a "
                        "concurrent copy; its output:\n${out}")
  endif()
  return()
endif()

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(ENV{TMPDIR} "${DIR}")
set(child "${CMAKE_COMMAND}" -DCHILD=1 "-DBIN=${BIN}" "-DARG=${ARG}"
          -P "${CMAKE_CURRENT_LIST_FILE}")
execute_process(COMMAND ${child} COMMAND ${child} RESULTS_VARIABLE rcs)
if(NOT rcs STREQUAL "0;0")
  message(FATAL_ERROR "two concurrent copies of ${BIN} ${ARG} ended with "
                      "'${rcs}', not '0;0'")
endif()
file(REMOVE_RECURSE "${DIR}")
