# Runs ${REPRODUCE} ${TABLE} and passes when it exits 0 and its stderr
# holds the "[trial engine: N jobs; ...]" line exactly when ${WANT} is
# true: only the tables whose builders run on the DEEPNOTE_JOBS pool
# print it.
execute_process(COMMAND "${REPRODUCE}" ${TABLE}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "[trial engine: " at)
if(at EQUAL -1)
  set(printed FALSE)
else()
  set(printed TRUE)
endif()
if(NOT status STREQUAL "0" OR NOT printed STREQUAL "${WANT}")
  message(FATAL_ERROR "reproduce ${TABLE}: want exit 0 and a trial-engine "
    "line on stderr: ${WANT}\nexit: ${status}\nstderr: ${err}")
endif()
