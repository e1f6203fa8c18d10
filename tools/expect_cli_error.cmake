# Runs TOOL with ARGS (default: an unknown flag) and requires a clean CLI
# error: exit code 1 and an "error:" line on stderr. An uncaught
# exception would abort the process instead.
#
#   cmake -DTOOL=path/to/vlm_simulate [-DARGS=<list>] -P expect_cli_error.cmake
if(NOT DEFINED ARGS)
  set(ARGS --bogus 1)
endif()
list(JOIN ARGS " " shown)
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR "${TOOL} ${shown} exited '${result}', expected 1:\n"
                      "${stderr}")
endif()
if(NOT stderr MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "${TOOL} ${shown} printed no 'error:' line:\n"
                      "${stderr}")
endif()
