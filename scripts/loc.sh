#!/usr/bin/env bash
# Non-test Go lines per package and in total, excluding bench/ (frozen by
# BENCHMARK.json) and tools/ (a separate module). Raw `wc -l` lines:
# comments and blanks count.
#
#   scripts/loc.sh          count the working tree
#   scripts/loc.sh <rev>    count <rev> too (exported with git archive into a
#                           temporary directory) and print before (<rev>),
#                           after (the working tree) and the delta per package
set -euo pipefail
cd "$(dirname "$0")/.."

# count prints "<lines> <package>" for every package under directory $1.
count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' \
		! -path './bench/*' ! -path './tools/*' ! -path './.bench_build/*' -print0 |
		xargs -0 wc -l |
		awk '$2 != "total" {
			pkg = $2; sub(/\/[^\/]*$/, "", pkg); sub(/^\.\/?/, "", pkg)
			if (pkg == "") pkg = "."
			loc[pkg] += $1
		}
		END { for (p in loc) print loc[p], p }')
}

if [ $# -eq 0 ]; then
	count . | awk '
		{ printf "%7d  %s\n", $1, $2 | "sort -k2"; total += $1 }
		END { close("sort -k2"); printf "%7d  total\n", total }'
	exit 0
fi

before=$(mktemp -d)
trap 'rm -rf "$before"' EXIT
git archive "$1" | tar -x -C "$before"
{
	count "$before" | sed 's/^/b /'
	count . | sed 's/^/a /'
} | awk -v rev="$1" '
	$1 == "b" { b[$3] = $2; pkgs[$3] = 1; tb += $2 }
	$1 == "a" { a[$3] = $2; pkgs[$3] = 1; ta += $2 }
	END {
		printf "%7s %7s %7s  %s\n", "before", "after", "delta", "package (before: " rev ", after: working tree)"
		for (p in pkgs) printf "%7d %7d %+7d  %s\n", b[p], a[p], a[p] - b[p], p | "sort -k4"
		close("sort -k4")
		printf "%7d %7d %+7d  total\n", tb, ta, ta - tb
	}'
