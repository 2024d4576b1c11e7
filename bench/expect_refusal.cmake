# ctest -P script: run ${BIN} with the arguments in ${ARGS} and, when VAR
# is set, ${VAR}=${VALUE} in its environment. Require exit status ${RC},
# stderr matching ${STDERR}, and no point swept (no "sweeping" line).
if(DEFINED VAR)
    set(ENV{${VAR}} "${VALUE}")
endif()
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL RC OR NOT err MATCHES "${STDERR}" OR err MATCHES "sweeping")
    message(FATAL_ERROR
        "expected exit ${RC}, stderr matching '${STDERR}' and no sweep, "
        "got exit ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
