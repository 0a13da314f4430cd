# Passes only when BIN, run with the optional argument ARG, exits with
# status exactly 1 and names EXPECT on stderr: the contract that a
# malformed knob or flag ends in a message and exit 1. ctest's WILL_FAIL
# would also pass an abort (exit 134).
#
#   cmake -DBIN=<path> [-DARG=<arg>] -DEXPECT=<text> -P tools/expect_exit_one.cmake
if(ARG)
  execute_process(COMMAND "${BIN}" "${ARG}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
else()
  execute_process(COMMAND "${BIN}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
endif()
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${BIN} ${ARG} ended with '${rc}', not exit 1; "
                      "stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARG} exited 1 without naming ${EXPECT} "
                      "on stderr:\n${err}")
endif()
