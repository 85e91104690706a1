#!/usr/bin/env bash
# List the library functions that no executable keeps.
#
# Usage: scripts/unused_code.sh
#
# Builds the main tree (tests, harnesses, examples) and perfbench/ at -O0
# with one section per function, linking every executable with
# --gc-sections, so each executable keeps only the functions it can
# reach. An epic:: function defined in libepiclab.a that no executable
# keeps has no caller in the product, its tests or its benchmark. The
# script prints each such function (demangled) and exits 1 when there
# is any; it prints nothing and exits 0 otherwise. A failed build exits
# 2 and prints the build log.
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

# Functions some executable keeps after section garbage collection.
find "$out/main/tests" "$out/main/bench" "$out/main/examples" \
     "$out/perfbench" -maxdepth 1 -type f -executable |
    while read -r exe; do
        nm --defined-only "$exe" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
    done | sort -u > "$out/kept.syms"

# A constructor or destructor has several symbols with one demangled name.
comm -23 "$out/lib.syms" "$out/kept.syms" | c++filt |
    { grep -E '^epic::[A-Za-z0-9_:~]+\(' || true; } | sort -u > "$out/unused.txt"

if [ -s "$out/unused.txt" ]; then
    cat "$out/unused.txt"
    echo "$(wc -l < "$out/unused.txt") library function(s) kept by no" \
         "executable" >&2
    exit 1
fi
