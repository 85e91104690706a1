# Flag coverage of epiclab_run. Fails when `epiclab_run --help` lists a
# flag that no EpiclabRunCli test passes, or when the parser in
# bench/epiclab_run.cc accepts a flag that --help does not list.
#
#   cmake -DEXE=<epiclab_run> -DSRC=<bench/epiclab_run.cc>
#         "-DTESTED=<the arguments the CLI tests pass>"
#         -P cli_flag_coverage.cmake

# The words of `text` that start with '-'; brackets, parentheses, pipes,
# commas and semicolons separate words like blanks do.
function(flags_in text out)
    string(REGEX REPLACE "[][|(),;]" " " text "${text}")
    string(REGEX MATCHALL "[^ \t\n]+" words "${text}")
    list(FILTER words INCLUDE REGEX "^--?[a-z][a-z0-9-]*$")
    list(REMOVE_DUPLICATES words)
    set(${out} ${words} PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${EXE} --help OUTPUT_VARIABLE help
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} --help exited with ${rc}")
endif()
flags_in("${help}" listed)
flags_in("${TESTED}" tested)

# The parser compares each argument against string literals.
file(READ ${SRC} src)
string(REGEX MATCHALL "== \"-[-a-z0-9]+\"" compared "${src}")
string(REGEX REPLACE "== \"([^\"]+)\"" "\\1" parsed "${compared}")

set(untested ${listed})
list(REMOVE_ITEM untested ${tested})
set(unlisted ${parsed})
list(REMOVE_ITEM unlisted ${listed})
if(untested OR unlisted)
    message(FATAL_ERROR "listed by --help but passed by no CLI test: "
                        "${untested}\n"
                        "accepted by the parser but not listed by --help: "
                        "${unlisted}")
endif()
list(LENGTH listed n)
message(STATUS "all ${n} flags --help lists are tested")
