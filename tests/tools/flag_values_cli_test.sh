#!/bin/sh
# Flag values of both CLIs go through one strict reader: a value with a
# sign, a leading space or trailing junk is a usage error (exit 2) naming
# the flag, never silently read as something else. The flags come from
# each tool's usage text, so a flag added to a table is checked too.
#
# usage: flag_values_cli_test.sh <path to cdsspec-run> <path to cdsspec-fuzz>
set -u
run="$1"
fuzz="$2"
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Prints "<section> <flag> <metavar>" for each flag in the usage text on
# stdin whose value is a number or a name (metavar '=' marks the
# --flag[=VALUE] form). Sections are the headers ending in ':' ("flags:",
# "worker flags (...):"), by their first word. A path or an address takes
# any text, so FILE, DIR and ADDR values are left out.
valued_flags() {
  awk '
    /^[a-z].*:$/ { section = $1 }
    /^  --/ {
      if ($1 ~ /\[=/) {
        sub(/\[=.*/, "", $1)
        print section, $1, "="
      } else if (($2 ~ /^[A-Z][A-Z.]*$/ || $2 ~ /\|/) &&
                 $2 !~ /^(FILE|DIR|ADDR)(\.\.\.)?$/) {
        print section, $1, $2
      }
    }'
}

# check <flag> <metavar> <command...>: the flag's bad values exit 2 and
# name it.
check() {
  flag="$1"
  form="$2"
  shift 2
  for v in '5x' '-5' ' 5'; do
    if [ "$form" = "=" ]; then
      err=$("$@" "$flag=$v" 2>&1 > /dev/null)
    else
      err=$("$@" "$flag" "$v" 2>&1 > /dev/null)
    fi
    rc=$?
    test $rc -eq 2 || fail "$* $flag '$v' exited $rc"
    case "$err" in
      *"invalid value for $flag"*) ;;
      *) fail "$* $flag '$v' did not name the flag: $err" ;;
    esac
  done
  checked=$((checked + 1))
}

checked=0
flags=$("$run" 2> /dev/null | valued_flags)
while read -r section flag form; do
  case "$section" in
    flags:) check "$flag" "$form" "$run" ticket-lock ;;
    worker) check "$flag" "$form" "$run" --worker unix:/nonexistent.sock ;;
    *) fail "cdsspec-run: $flag is valued but in section '$section'" ;;
  esac
done << EOF
$flags
EOF
test "$checked" -gt 0 || fail "no valued flag found in cdsspec-run's usage"
echo "$flags" | grep -q '^worker ' ||
  fail "no worker flag found in cdsspec-run's usage"
run_checked=$checked

checked=0
flags=$("$fuzz" 2> /dev/null | valued_flags)
while read -r section flag form; do
  check "$flag" "$form" "$fuzz"
done << EOF
$flags
EOF
test "$checked" -gt 0 || fail "no valued flag found in cdsspec-fuzz's usage"

# More shapes of a bad number, on one flag of each kind.
for v in ' -5' '+5' '5 ' ''; do
  err=$("$run" ticket-lock --cap "$v" 2>&1 > /dev/null)
  test $? -eq 2 || fail "--cap '$v' was accepted"
  echo "$err" | grep -q "invalid value for --cap" ||
    fail "--cap '$v' not named: $err"
done
for v in ' 1' '-1' 'nan' 'inf'; do
  "$run" ticket-lock --timeout "$v" > /dev/null 2>&1
  test $? -eq 2 || fail "--timeout '$v' was accepted"
done
echo "ok ($run_checked cdsspec-run flags, $checked cdsspec-fuzz flags)"
