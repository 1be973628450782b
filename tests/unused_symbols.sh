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
# Out-of-line instantiations of std:: function templates with a libra type
# in their signature (std::forward<libra::...>, std::__relocate_a<...>)
# name no libra function, and which ones a compiler emits varies: they are
# dropped from the list.
#
# With --check, also compares the list against tests/unused_symbols.allow
# (the functions kept on purpose for tests, one qualified name per line)
# and exits 1, naming them, if any listed function is not allowed there.
#
# Usage: tests/unused_symbols.sh [--check] [BUILD_DIR]
#        (default BUILD_DIR: build-unused)
# Not registered with ctest: it configures and builds two trees (minutes).

set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
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
# A std:: function's name follows its return type after a space; a
# template argument list separates its types with ", ".
UNUSED="$(comm -23 \
  <(functions "${OBJECTS[@]}") \
  <(functions "${BINARIES[@]}") |
  grep -v -E '^[^(]*[^,] std::' || true)"
[[ -z "$UNUSED" ]] || echo "$UNUSED"
[[ "$CHECK" == 1 ]] || exit 0

# The qualified name of each listed function: the text before its
# parameter list, without ABI tags.
DISALLOWED="$(echo "$UNUSED" | sed -e 's/(.*//' -e 's/\[abi:[^]]*\]//g' |
  sort -u |
  comm -23 - <(grep -v -E '^(#|$)' "$ROOT/tests/unused_symbols.allow" |
    sort -u) |
  grep -v '^$' || true)"
if [[ -n "$DISALLOWED" ]]; then
  echo "error: unused functions missing from tests/unused_symbols.allow:" >&2
  echo "$DISALLOWED" >&2
  exit 1
fi
