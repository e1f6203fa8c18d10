# Runs TOOL with an unknown flag and requires a clean CLI error: exit
# code 1 and an "error:" line on stderr. An uncaught exception would
# abort the process instead.
#
#   cmake -DTOOL=path/to/vlm_simulate -P expect_cli_error.cmake
execute_process(COMMAND ${TOOL} --bogus 1
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR "${TOOL} --bogus 1 exited '${result}', expected 1:\n"
                      "${stderr}")
endif()
if(NOT stderr MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "${TOOL} --bogus 1 printed no 'error:' line:\n"
                      "${stderr}")
endif()
