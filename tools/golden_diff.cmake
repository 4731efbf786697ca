# Run a tool and compare its stdout with a checked-in golden file.
#
#   cmake -DEXE=<binary> -DGOLDEN=<file> -P golden_diff.cmake
#
# Fails, printing both texts, when they differ by a single byte.  The
# determinism_check golden pins the simulator's behaviour from one commit to
# the next; the tool itself only compares runs within one build.
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}:\n${actual}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
