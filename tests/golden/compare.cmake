# Golden-output check: run BENCH (with the optional argument list ARGS)
# and require its stdout to equal GOLDEN byte for byte. On a mismatch the
# actual output is written to ACTUAL.
#
#   cmake -DBENCH=<binary> [-DARGS=<args>] -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare.cmake
execute_process(COMMAND "${BENCH}" ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "output differs from the golden file; compare with\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
