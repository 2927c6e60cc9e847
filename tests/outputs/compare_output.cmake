# Run one paper driver and byte-compare its stdout with a golden file.
#
#   cmake -DDRIVER=<executable> -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_output.cmake
#
# The driver's stdout is kept in ACTUAL so a failure can be diffed.
execute_process(COMMAND "${DRIVER}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "stdout of ${DRIVER} differs from ${GOLDEN}; see ${ACTUAL}")
endif()
