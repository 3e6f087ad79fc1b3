# ctest helper: runs `TOOL ARGS` and passes only when the tool exits with
# code 2 (usage error) and names FLAG on stderr.
#   cmake -DTOOL=<exe> "-DARGS=<space-separated args>" -DFLAG=<flag> -P <this>
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit ${rc} (expected 2) for: ${ARGS}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}: ${err}")
endif()
