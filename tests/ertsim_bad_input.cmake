# Runs ${ERTSIM} with the space-separated ${ARGS} and requires exit code 2
# plus a stderr line matching ${EXPECT}:
#
#   cmake -DERTSIM=path/to/ertsim "-DARGS=--poll 0" "-DEXPECT=error: --poll: " \
#         -P ertsim_bad_input.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${ERTSIM} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "ertsim ${ARGS}: exit '${rc}', want 2\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "ertsim ${ARGS}: stderr lacks '${EXPECT}'\n${err}")
endif()
