# Run `epiclab_run ARGS` in the current directory and write its stdout
# to OUT. Fails unless it exits with RC (default 0) and its stdout or
# stderr matches MATCH; with REF, also unless OUT equals REF byte for
# byte (a fleet resumed from its manifest prints the uninterrupted
# run's report).
#
#   cmake -DEXE=<epiclab_run> "-DARGS=<space-separated arguments>"
#         -DOUT=<file> "-DMATCH=<regex>" [-DREF=<file>] [-DRC=<status>]
#         -P cli_stdout.cmake

if(NOT DEFINED RC)
    set(RC 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                OUTPUT_FILE ${OUT} ERROR_VARIABLE err RESULT_VARIABLE rc)
file(READ ${OUT} out)
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "epiclab_run ${ARGS} exited with ${rc}, not "
                        "${RC}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
    message(FATAL_ERROR "epiclab_run ${ARGS}: no match for '${MATCH}' in:\n"
                        "${out}${err}")
endif()
if(DEFINED REF)
    execute_process(COMMAND diff -u ${REF} ${OUT}
                    OUTPUT_VARIABLE diff RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "epiclab_run ${ARGS}: stdout differs from "
                            "${REF}:\n${diff}")
    endif()
endif()
