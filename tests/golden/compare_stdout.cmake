# Runs one bench (or example) and byte-compares its stdout with the
# committed golden file.
#
#   cmake -DBENCH=<executable> [-DARGS=<arg>|<arg>|...] -DGOLDEN=<file.stdout>
#         -DACTUAL=<output file> -P compare_stdout.cmake
#
# ARGS, when given, are the executable's arguments separated by '|' (an
# argument may hold spaces).
#
# The one host-dependent value a bench prints, the campaign worker count
# (hardware_concurrency by default), is masked in both texts; every other
# byte must match. On a mismatch the fresh stdout is left in ACTUAL for
# `diff GOLDEN ACTUAL`.
string(REPLACE "|" ";" bench_args "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args} OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${exit_code}")
endif()
file(READ "${GOLDEN}" golden_text)
file(READ "${ACTUAL}" actual_text)
set(workers_re "Campaign workers: [0-9]+\\.")
set(workers_mask "Campaign workers: N.")
string(REGEX REPLACE "${workers_re}" "${workers_mask}" golden_text "${golden_text}")
string(REGEX REPLACE "${workers_re}" "${workers_mask}" actual_text "${actual_text}")
if(NOT golden_text STREQUAL actual_text)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "diff it against ${ACTUAL}")
endif()
