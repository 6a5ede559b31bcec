#!/bin/sh
# Serial --checkpoint end to end through cdsspec-run: a run SIGKILLed
# after its 2nd journal append resumes to the plain run's counters,
# verdict and --trail-out repro, and a resume under a changed --cap or
# another --inject is refused (exit 2) with a message naming the field.
#
# usage: checkpoint_cli_test.sh <path to cdsspec-run>
set -u
run="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
fail() {
  echo "FAIL: $*" >&2
  exit 1
}
summary() { grep -E '^(executions|histories|verdict)=' "$1"; }

"$run" ticket-lock --inject 0 --trail-out plain.trail > plain.out
test $? -eq 1 || fail "plain run did not falsify"

"$run" ticket-lock --inject 0 --checkpoint s.journal \
  --chaos-coord-kill-append 2 > /dev/null 2>&1
test $? -eq 137 || fail "journaled run was not killed after its 2nd append"

"$run" ticket-lock --inject 0 --checkpoint s.journal --resume \
  --trail-out resumed.trail > resumed.out
test $? -eq 1 || fail "resumed run did not falsify"
grep -q '^parallel: .* epoch=2 resumed=1 ' resumed.out || fail "not resumed"
test "$(summary plain.out)" = "$(summary resumed.out)" ||
  fail "resumed counters differ from the plain run"
cmp plain.trail resumed.trail || fail "resumed --trail-out differs"

"$run" ticket-lock --inject 0 --checkpoint s.journal --resume --cap 5 \
  > /dev/null 2> refused.err
test $? -eq 2 || fail "resume under a changed --cap was accepted"
grep -q 'cap=0 in the journal, cap=5 in this run' refused.err ||
  fail "refusal does not name the cap: $(cat refused.err)"

# The journal carries the injection site: resuming it without --inject,
# under another site, or an uninjected journal under --inject is refused.
"$run" ticket-lock --checkpoint s.journal --resume > /dev/null 2> plain.err
test $? -eq 2 || fail "resume without the journal's --inject was accepted"
grep -q 'inject=.* in the journal, inject= in this run' plain.err ||
  fail "refusal does not name inject: $(cat plain.err)"
"$run" ticket-lock --inject 1 --checkpoint s.journal --resume \
  > /dev/null 2> other.err
test $? -eq 2 || fail "resume under another --inject was accepted"
grep -q '(inject=' other.err ||
  fail "refusal does not name inject: $(cat other.err)"
"$run" ms-queue --explore rf --checkpoint m.journal \
  --chaos-coord-kill-append 3 > /dev/null 2>&1
test $? -eq 137 || fail "ms-queue journaled run was not killed"
"$run" ms-queue --explore rf --inject 0 --checkpoint m.journal --resume \
  > /dev/null 2> weakened.err
test $? -eq 2 || fail "an uninjected journal resumed under --inject 0"
grep -q 'inject= in the journal, inject=' weakened.err ||
  fail "refusal does not name inject: $(cat weakened.err)"
echo "ok"
