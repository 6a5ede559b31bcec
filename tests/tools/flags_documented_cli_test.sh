#!/bin/sh
# Each tool's usage text (rendered from its flag tables) and its README
# flag table name the same set of flags. The first "| Flag | Meaning |"
# table of the README documents cdsspec-run, the second cdsspec-fuzz; a
# row's first cell may name several flags.
#
# usage: flags_documented_cli_test.sh <path to cdsspec-run>
#                                     <path to cdsspec-fuzz> <README.md>
set -u
run="$1"
fuzz="$2"
readme="$3"
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

flag_names() {
  grep -o -e '--[a-z][a-z-]*' | sort -u
}

# The first cells of the n-th flag table's rows.
readme_cells() {
  awk -v n="$1" -F ' [|] ' '
    /^\| Flag \| Meaning \|$/ { table++; next }
    table == n && /^\|/ { print $1; next }
    table == n { exit }' "$readme"
}

# compare <tool> <table>: the usage text on stdin against README table n.
compare() {
  usage_flags=$(flag_names)
  readme_flags=$(readme_cells "$2" | flag_names)
  test -n "$usage_flags" || fail "$1 printed no usage"
  test -n "$readme_flags" || fail "README has no flag table for $1"
  # Each list is sorted and unique: a flag seen once is in only one.
  odd=$(printf '%s\n%s\n' "$usage_flags" "$readme_flags" | sort | uniq -u)
  test -z "$odd" ||
    fail "$1: a flag is in its usage or its README table, not both:" $odd
  echo "$1: $(echo "$usage_flags" | wc -l) flags documented"
}

"$run" 2> /dev/null | compare cdsspec-run 1 || exit 1
"$fuzz" 2> /dev/null | compare cdsspec-fuzz 2 || exit 1
echo "ok"
