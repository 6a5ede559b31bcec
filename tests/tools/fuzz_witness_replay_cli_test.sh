#!/bin/sh
# A cdsspec-fuzz witness trail records the config its witness ran under:
# every witness of a `--unsound-hook sleep-wake` campaign, in schedule and
# in rf mode, replays through its trail when --replay repeats the
# campaign's flags, instead of diverging and falling back to the oracles.
#
# usage: fuzz_witness_replay_cli_test.sh <path to cdsspec-fuzz>
set -u
fuzz="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
fail() {
  echo "FAIL: $*" >&2
  exit 1
}
for mode in schedule rf; do
  mkdir "$mode"
  "$fuzz" --trials 40 --seed 1 --unsound-hook sleep-wake --explore "$mode" \
    --out "$mode" > "$mode.out"
  test $? -eq 1 || fail "$mode campaign found no disagreement"
  n=0
  for f in "$mode"/*.litmus; do
    t="${f%.litmus}.trail"
    test -f "$t" || continue
    n=$((n + 1))
    grep -q "^config .* explore=$mode " "$t" ||
      fail "$t does not record explore=$mode"
    "$fuzz" --replay "$f" --unsound-hook sleep-wake --explore "$mode" \
      > replay.out 2> replay.err
    test $? -eq 1 || fail "$f: replay did not report the disagreement"
    grep -q "witness reproduced via trail" replay.out ||
      fail "$f: $(cat replay.err)"
  done
  test $n -gt 0 || fail "$mode campaign wrote no witness trail"
done
# --json escapes what it prints: repro paths in a directory whose name
# holds a tab must still read back as JSON.
tabdir=$(printf 'o\tut')
mkdir "$tabdir"
"$fuzz" --trials 40 --seed 1 --unsound-hook sleep-wake --out "$tabdir" \
  --json > tab.json
test $? -eq 1 || fail "--json campaign found no disagreement"
python3 - tab.json << 'EOF' || fail "--json output is not JSON"
import json, sys
d = json.load(open(sys.argv[1]))
assert d["disagreements"] and "\t" in d["disagreements"][0]["repro"], d
EOF
echo "ok"
