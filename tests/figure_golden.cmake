# Diff the stdout of `epiclab_run --figure all --jobs 4` against the
# committed golden, and check that the run pass computed each distinct
# run once: 140 compile+sim runs over 24 prepared sources.
#
#   cmake -DEXE=<epiclab_run> -DGOLDEN=<tests/golden/figures.txt>
#         -DOUT=<where to write the output> -P figure_golden.cmake

execute_process(COMMAND ${EXE} --figure all --jobs 4
                OUTPUT_FILE ${OUT} ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "epiclab_run --figure all exited with ${rc}:\n"
                        "${err}")
endif()
execute_process(COMMAND diff -u ${GOLDEN} ${OUT}
                OUTPUT_VARIABLE diff RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "--figure all differs from ${GOLDEN}:\n${diff}")
endif()
if(NOT err MATCHES "figures: 140 run\\(s\\) over 24 prepared source\\(s\\)")
    message(FATAL_ERROR "expected 140 runs over 24 prepared sources:\n"
                        "${err}")
endif()
message(STATUS "--figure all matches ${GOLDEN}")
