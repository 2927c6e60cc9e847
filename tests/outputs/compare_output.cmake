# Run one driver and byte-compare its stdout with a golden file.
#
#   cmake -DDRIVER=<executable> [-DARGS="<arg> <arg> ..."] -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare_output.cmake
#
# ARGS is split like a shell command line.  The driver's stdout is kept in
# ACTUAL so a failure can be diffed.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DRIVER}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} ${ARGS} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "stdout of ${DRIVER} ${ARGS} differs from ${GOLDEN}; see ${ACTUAL}")
endif()
