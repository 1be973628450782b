#!/usr/bin/env bash
# Lists the libra:: functions that src/ defines but no shipped binary keeps:
# candidates for dead code.
#
# Builds every binary under bench/ and examples/, plus perfbench's
# libra_perfbench, at -O0 with one section per function
# (-ffunction-sections -fdata-sections) and links them with
# -Wl,--gc-sections, so a binary holds only the functions reachable from
# its main(). Then prints, sorted, each libra:: function defined in a src/
# object file that appears in none of those binaries.
#
# -O0 keeps every called function out of line, so a function that is only
# ever inlined is not reported as unused (at -O2 that false positive more
# than doubles the list). What the method cannot see:
#   - header-only code (templates, inline and in-class member functions)
#     that no src/ .cc instantiates: it is in no src/ object to begin with;
#   - code that only tests call: tests are not among the binaries, so it is
#     listed (delete it together with its tests, or keep it on purpose).
#
# Usage: tests/unused_symbols.sh [BUILD_DIR]   (default: build-unused)
# Not registered with ctest: it configures and builds two trees (minutes).

set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(realpath -m "${1:-$ROOT/build-unused}")"
JOBS="${JOBS:-4}"
FLAGS=(
  -G "Unix Makefiles"
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$ROOT" -B "$BUILD/main" "${FLAGS[@]}" > /dev/null
make -s -C "$BUILD/main/bench" -j"$JOBS" > /dev/null
make -s -C "$BUILD/main/examples" -j"$JOBS" > /dev/null
cmake -S "$ROOT/perfbench" -B "$BUILD/perfbench" "${FLAGS[@]}" > /dev/null
cmake --build "$BUILD/perfbench" -j "$JOBS" --target libra_perfbench \
  > /dev/null

# Function symbols (text section, global or weak), demangled, in libra::.
functions() {
  nm -C --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^libra::' | sort -u
}

mapfile -t OBJECTS < <(find "$BUILD/main/src" -name '*.o')
mapfile -t BINARIES < <(
  find "$BUILD/main/bench" "$BUILD/main/examples" -maxdepth 1 -type f \
    -perm -u+x
  echo "$BUILD/perfbench/libra_perfbench"
)
comm -23 \
  <(functions "${OBJECTS[@]}") \
  <(functions "${BINARIES[@]}")
