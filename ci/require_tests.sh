#!/usr/bin/env bash
# Fails unless every alternative of a `go test -run` filter names at
# least one test in the given packages. `go test -run` exits 0 with
# "[no tests to run]" when nothing matches, so without this check a
# renamed or merged test would silently empty a named CI step.
#
#   ci/require_tests.sh 'TestA|TestB' ./pkg1 ./pkg2
#
# The filter is split on '|', so it must be a flat list of alternatives
# (no nested groups).
set -euo pipefail

filter="$1"
shift
listed="$(go test -list "$filter" "$@" | grep -E '^(Test|Fuzz|Example)' || true)"
status=0
IFS='|' read -ra alternatives <<<"$filter"
for alt in "${alternatives[@]}"; do
	if ! grep -Eq -- "$alt" <<<"$listed"; then
		echo "require_tests: no test matches '$alt' in $*" >&2
		status=1
	fi
done
exit "$status"
