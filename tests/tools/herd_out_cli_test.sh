#!/bin/sh
# cdsspec-fuzz --herd-out: a missing or unwritable DIR is a usage error
# (exit 2) found before any trial runs, and a writable DIR gets one
# .litmus + .expected pair per checked trial with exit 0.
#
# usage: herd_out_cli_test.sh <path to cdsspec-fuzz>
set -u
fuzz="$1"
dir=$(mktemp -d) || exit 1
trap 'chmod -R u+w "$dir"; rm -rf "$dir"' EXIT
cd "$dir" || exit 1
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$fuzz" --trials 2 --seed 2 --herd-out "$dir/missing" > out.txt 2> err.txt
test $? -eq 2 || fail "missing --herd-out dir did not exit 2"
grep -q "not a writable directory" err.txt || fail "no diagnostic: $(cat err.txt)"
grep -q "trials" out.txt && fail "trials ran before the dir was checked"

touch "$dir/file"
"$fuzz" --trials 2 --seed 2 --herd-out "$dir/file" > /dev/null 2>&1
test $? -eq 2 || fail "--herd-out naming a file did not exit 2"

mkdir "$dir/ro" && chmod a-w "$dir/ro"
if ! touch "$dir/ro/probe" 2> /dev/null; then
  "$fuzz" --trials 2 --seed 2 --herd-out "$dir/ro" > /dev/null 2>&1
  test $? -eq 2 || fail "read-only --herd-out dir did not exit 2"
fi

mkdir "$dir/ok"
"$fuzz" --trials 2 --seed 2 --herd-out "$dir/ok" > out.txt 2>&1
test $? -eq 0 || fail "writable --herd-out dir: exit $? ($(cat out.txt))"
n=$(ls "$dir/ok" | grep -c '\.litmus$')
test "$n" -ge 1 || fail "no .litmus exported"
test "$(ls "$dir/ok" | grep -c '\.expected$')" -eq "$n" ||
  fail "each .litmus needs its .expected"
echo "ok: --herd-out checks its directory and exports $n programs"
