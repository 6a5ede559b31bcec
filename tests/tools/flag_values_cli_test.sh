#!/bin/sh
# Numeric flags of both CLIs go through one strict parser: a value with a
# sign, a leading space or trailing junk is a usage error (exit 2) naming
# the flag, never silently read as something else.
#
# usage: flag_values_cli_test.sh <path to cdsspec-run> <path to cdsspec-fuzz>
set -u
run="$1"
fuzz="$2"
fail() {
  echo "FAIL: $*" >&2
  exit 1
}
for v in ' -5' '-5' '+5' ' 5' '5 ' '5x' ''; do
  err=$("$run" ticket-lock --cap "$v" 2>&1 > /dev/null)
  test $? -eq 2 || fail "--cap '$v' was accepted"
  echo "$err" | grep -q "invalid value for --cap" ||
    fail "--cap '$v' not named: $err"
done
for v in ' 1' '-1' 'nan' 'inf'; do
  "$run" ticket-lock --timeout "$v" > /dev/null 2>&1
  test $? -eq 2 || fail "--timeout '$v' was accepted"
done
for v in ' 3' '-3' '3x'; do
  "$fuzz" --trials "$v" > /dev/null 2>&1
  test $? -eq 2 || fail "cdsspec-fuzz --trials '$v' was accepted"
done
echo "ok"
