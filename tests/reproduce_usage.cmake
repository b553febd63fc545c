# Runs ${REPRODUCE} with the space-separated ${ARGS} and passes only on a
# usage error: exit status 2, a usage line on stderr, and nothing on
# stdout (no table, so nothing ran).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${REPRODUCE}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "2" OR NOT out STREQUAL "" OR
   NOT err MATCHES "usage: reproduce ")
  message(FATAL_ERROR "reproduce ${ARGS}: want exit 2, empty stdout and "
    "a usage line\nexit: ${status}\nstdout: ${out}\nstderr: ${err}")
endif()
