#!/usr/bin/env bash
# Runs go test with the given arguments after checking that every
# alternative of its -run pattern names at least one test of the package (the
# last argument). go test exits 0 with "[no tests to run]" on a pattern that
# matches nothing, so without this check a renamed or deleted test would drop
# out of a gate without a sound.
#
#   scripts/named_tests.sh [go test flags] -run 'TestA|TestB' ./internal/pkg
set -euo pipefail

args=("$@")
pkg=${args[-1]}
pattern=
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [ "${args[i]}" = -run ]; then
    pattern=${args[i + 1]}
  fi
done
if [ -z "$pattern" ]; then
  echo "named_tests.sh: no -run pattern in: $*" >&2
  exit 2
fi

# go test -list prints the matching names, then the package's "ok" line.
names=$(go test -list "$pattern" "$pkg" | sed '/^ok /d')
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
  if ! grep -qE -- "$alt" <<<"$names"; then
    echo "named_tests.sh: -run alternative $alt names no test in $pkg" >&2
    exit 1
  fi
done
exec go test "$@"
