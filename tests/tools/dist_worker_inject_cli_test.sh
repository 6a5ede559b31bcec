#!/bin/sh
# An external `cdsspec-run --worker` process explores the program the
# coordinator runs, --inject included: a coordinator on
# `ms-queue --explore rf --inject 0` served by one such worker falsifies
# (exit 1) with the serial run's counters, and the shards ran on the
# worker, not on the local fallback pool.
#
# usage: dist_worker_inject_cli_test.sh <path to cdsspec-run>
set -u
run="$1"
dir=$(mktemp -d) || exit 1
trap 'kill $cpid 2> /dev/null; rm -rf "$dir"' EXIT
cd "$dir" || exit 1
cpid=
fail() {
  echo "FAIL: $*" >&2
  exit 1
}
summary() { grep -E '^(executions|histories|verdict)=' "$1"; }

"$run" ms-queue --explore rf --inject 0 > serial.out
test $? -eq 1 || fail "serial run did not falsify"

"$run" ms-queue --explore rf --inject 0 --coordinator "unix:$dir/c.sock" \
  > coord.out 2> coord.err &
cpid=$!
i=0
while [ ! -S "$dir/c.sock" ] && [ $i -lt 100 ]; do
  sleep 0.05
  i=$((i + 1))
done
test -S "$dir/c.sock" || fail "coordinator socket never appeared"
"$run" --worker "unix:$dir/c.sock" > worker.out 2>&1
wait $cpid
rc=$?
cpid=
test $rc -eq 1 || fail "coordinator exited $rc, not 1: $(cat coord.out)"
grep -q '^dist: .* workers_connected_peak=1 ' coord.out ||
  fail "no worker served the run: $(cat coord.out)"
grep -q '^dist: .* fell_back_local=0$' coord.out ||
  fail "shards ran on the local fallback"
test "$(summary serial.out)" = "$(summary coord.out)" ||
  fail "coordinator counters differ from the serial run"
echo "ok"
