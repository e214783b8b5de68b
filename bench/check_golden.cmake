# Runs BENCH and compares its stdout with GOLDEN byte for byte. The
# output is kept at ACTUAL, so a failure can be inspected with
# `diff -u GOLDEN ACTUAL`.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P bench/check_golden.cmake
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "${BENCH} printed other bytes than ${GOLDEN}:\n"
    "  diff -u ${GOLDEN} ${ACTUAL}")
endif()
