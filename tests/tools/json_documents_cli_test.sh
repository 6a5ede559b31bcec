#!/bin/sh
# Every --json mode of both CLIs prints exactly one JSON document on
# stdout, whatever else the run writes (status lines go to stderr): the
# document parses, holds the blocks its mode promises, and its exit_code
# is the exit status. --json with --sites or --dot is refused (exit 2).
#
# usage: json_documents_cli_test.sh <cdsspec-run> <cdsspec-fuzz> <corpus dir>
set -u
run="$1"
fuzz="$2"
corpus="$3"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# check <name> <key,key,...> <command...>
check() {
  name=$1
  keys=$2
  shift 2
  "$@" > out.json 2> err.txt
  rc=$?
  python3 - out.json "$keys" "$rc" << 'EOF' ||
import json, sys
d = json.load(open(sys.argv[1]))
for k in sys.argv[2].split(','):
    assert k in d, 'no key ' + k
rc = int(sys.argv[3])
assert d.get('exit_code', rc) == rc, ('exit_code', d.get('exit_code'), rc)
EOF
    fail "$name: $(head -c 300 out.json) / $(head -c 300 err.txt)"
}

check plain stats,spec,detections,verdict "$run" ticket-lock --json
check jobs stats,parallel "$run" ticket-lock --jobs 2 --json
check dist stats,dist "$run" ticket-lock --dist-workers 2 --json
check checkpoint stats,parallel "$run" ticket-lock --checkpoint s.journal --json
check sweep summary,trials "$run" ticket-lock --sweep --json
check stress stats,verdict "$run" ticket-lock --backend stress --iters 16 --json
check timeout stats,verdict "$run" ticket-lock --timeout 5 --json
check inject stats,detections "$run" ticket-lock --inject 0 --json \
  --trail-out t.trail --metrics-out m.json --trace-out trace.json
test -s t.trail && test -s m.json && test -s trace.json ||
  fail "--inject run did not write its files"

check fuzz disagreements,trials_completed "$fuzz" --trials 3 --seed 2 --json
mkdir herd
check herd-out disagreements "$fuzz" --trials 3 --seed 2 --json \
  --herd-out herd
test "$(ls herd | grep -c '\.litmus$')" -ge 1 || fail "--herd-out exported nothing"
check replay trials_completed,oracle_checks "$fuzz" --replay-dir "$corpus" \
  --json

for flag in --sites --dot; do
  "$run" ticket-lock --json $flag > /dev/null 2>&1
  test $? -eq 2 || fail "--json $flag was accepted"
done
echo "ok"
