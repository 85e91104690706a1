#!/usr/bin/env bash
# List the library functions that no executable keeps, and those that
# only the tests keep.
#
# Usage: scripts/unused_code.sh
#
# Builds the main tree (tests, bench/, examples) and perfbench/ at -O0
# with one section per function, linking every executable with
# --gc-sections, so each executable keeps only the functions it can
# reach. Over that one build it makes two passes:
#
#  1. An epic:: function defined in libepiclab.a that no executable
#     keeps has no caller in the product, its tests or its benchmark.
#  2. A function that the test binaries keep but no product executable
#     (epiclab_run and the micro-benchmarks under bench/, the examples,
#     perfbench) keeps is test-only. It must be listed, with a
#     one-line reason, in scripts/unused_code.allow; an allowlist entry
#     that is not test-only is stale.
#
# The script prints each such function (demangled) under a heading and
# exits 1 when there is any; it prints nothing and exits 0 otherwise. A
# failed build exits 2 and prints the build log.
#
# Template instantiations and operators are not listed: the name filter
# keeps plain epic::qualified names, which also drops libstdc++
# instantiations over epic:: types. Build trees go to build-unused/ at
# the repository root; nothing under perfbench/ is written.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/build-unused"
jobs=$(nproc)
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

build() { # <source dir> <build dir>
    mkdir -p "$2"
    if ! { cmake -S "$1" -B "$2" "${flags[@]}" &&
           cmake --build "$2" -j "$jobs"; } > "$2/unused_code.log" 2>&1; then
        cat "$2/unused_code.log" >&2
        exit 2
    fi
}
build "$root" "$out/main"
build "$root/perfbench" "$out/perfbench"

# Functions the library defines (global and weak text symbols).
nm --defined-only "$out/main/src/libepiclab.a" 2> /dev/null |
    awk '$2 == "T" || $2 == "W" { print $3 }' | sort -u > "$out/lib.syms"

# Functions the executables in some directories keep after section
# garbage collection.
kept() { # <dir>...
    find "$@" -maxdepth 1 -type f -executable |
        while read -r exe; do
            nm --defined-only "$exe" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
        done | sort -u
}
kept "$out/main/bench" "$out/main/examples" "$out/perfbench" \
    > "$out/product.syms"
kept "$out/main/tests" | sort -u - "$out/product.syms" > "$out/kept.syms"

# Demangled plain epic:: function names, with std::string and
# std::ostream spelled so. A constructor or destructor has several
# symbols with one demangled name.
functions() {
    c++filt | { grep -E '^epic::[A-Za-z0-9_:~]+\(' || true; } |
        sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
            -e 's/std::basic_ostream<char, std::char_traits<char> >/std::ostream/g' |
        sort -u
}
comm -23 "$out/lib.syms" "$out/kept.syms" | functions > "$out/unused.txt"
comm -12 "$out/lib.syms" "$out/kept.syms" |
    comm -23 - "$out/product.syms" | functions > "$out/test_only.txt"

# Allowlist entries: "<demangled function>  # <reason>", '#' comments.
sed -E 's/[[:space:]]*#.*$//' "$root/scripts/unused_code.allow" |
    { grep -v '^$' || true; } | sort -u > "$out/allow.txt"
comm -23 "$out/test_only.txt" "$out/allow.txt" > "$out/unlisted.txt"
comm -13 "$out/test_only.txt" "$out/allow.txt" > "$out/stale.txt"

status=0
report() { # <file> <heading>
    if [ -s "$1" ]; then
        echo "$2:"
        sed 's/^/  /' "$1"
        status=1
    fi
}
report "$out/unused.txt" "library functions kept by no executable"
report "$out/unlisted.txt" \
    "library functions only tests keep (not in scripts/unused_code.allow)"
report "$out/stale.txt" \
    "scripts/unused_code.allow entries that are not test-only"
exit $status
