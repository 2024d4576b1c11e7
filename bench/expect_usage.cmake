# ctest -P script: run ${BIN} with a stray argument and require exit
# status 2 plus a "usage:" line on stderr.
execute_process(COMMAND ${BIN} --benchmark_list_tests
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "^usage: ")
    message(FATAL_ERROR
        "expected exit 2 and a usage line, got exit ${rc}\n"
        "stdout: ${out}\nstderr: ${err}")
endif()
