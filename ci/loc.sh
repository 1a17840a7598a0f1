#!/usr/bin/env bash
# Counts the module's code lines: non-blank Go lines that are not `//`
# comments, in non-test files outside perfbench/ (a module of its own).
# Prints one line per package directory, then the total. Run from
# anywhere in the repository:
#
#   ci/loc.sh
#
# It measures how much code a change adds or removes; it is not a gate.
set -euo pipefail

cd "$(dirname "$0")/.."
find . \( -path ./perfbench -o -name '.*' ! -name . \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print |
	sort |
	xargs awk '
		{ s = $0; sub(/^[ \t]+/, "", s) }
		s != "" && s !~ /^\/\// {
			dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
			n[dir == "" ? "." : dir]++; total++
		}
		END {
			for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d  total\n", total
		}'
