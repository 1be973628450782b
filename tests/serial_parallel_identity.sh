#!/usr/bin/env bash
# Byte-identity harness for the parallel epoch engine.
#
# Runs one demo twice at the same RPC latency — --sim-threads=1 and
# --sim-threads=3 — and requires stdout, the stats JSON, and (where
# produced) the trace export to be byte-identical. Thread count may only
# change wall-clock time, never simulation output; wall-clock noise goes
# to stderr by convention, which is why stderr is captured but not diffed.
#
# Usage: serial_parallel_identity.sh <workdir> <name> <binary> [flags...]
#   Runs land in <workdir>/<name>.t1 and <workdir>/<name>.t3; the flags are
#   passed to both runs, and a --trace-json=FILE among them adds FILE to
#   the diffed artifacts.

set -u

if [ $# -lt 3 ]; then
  echo "usage: $0 <workdir> <name> <binary> [flags...]" >&2
  exit 2
fi

WORK=$1
NAME=$2
BIN=$3
shift 3
EXTRA=("$@")

THREADS_A=1
THREADS_B=3

# The binary runs in per-thread-count scratch directories with identical
# relative artifact names (paths are echoed into stdout, so they must not
# differ between runs).
artifacts=(stdout.txt stats.json)
for flag in "${EXTRA[@]}"; do
  case "$flag" in
    --trace-json=*) artifacts+=("${flag#--trace-json=}") ;;
  esac
done

for t in "$THREADS_A" "$THREADS_B"; do
  dir="$WORK/$NAME.t$t"
  rm -rf "$dir"
  mkdir -p "$dir"
  (cd "$dir" &&
    "$BIN" --sim-threads="$t" --rpc-latency-us=50 \
      --stats-json=stats.json "${EXTRA[@]}" >stdout.txt 2>stderr.txt)
  rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL: $NAME --sim-threads=$t exited $rc" >&2
    sed 's/^/    /' "$dir/stderr.txt" >&2
    exit 1
  fi
done

failures=0
for f in "${artifacts[@]}"; do
  if ! diff -q "$WORK/$NAME.t$THREADS_A/$f" "$WORK/$NAME.t$THREADS_B/$f" \
      >/dev/null; then
    echo "FAIL: $NAME: $f differs between --sim-threads=$THREADS_A and =$THREADS_B" >&2
    diff "$WORK/$NAME.t$THREADS_A/$f" "$WORK/$NAME.t$THREADS_B/$f" | head -20 >&2
    failures=$((failures + 1))
  fi
done
if [ "$failures" -ne 0 ]; then
  echo "$failures identity check(s) failed" >&2
  exit 1
fi
echo "OK: $NAME identical across thread counts (${artifacts[*]})"
