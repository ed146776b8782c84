#!/usr/bin/env bash
# Non-test Go lines per package and in total, excluding bench/ (frozen by
# BENCHMARK.json) and tools/ (a separate module). Raw `wc -l` lines:
# comments and blanks count, so run it on both commits and compare.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' \
	! -path './bench/*' ! -path './tools/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		pkg = $2; sub(/\/[^\/]*$/, "", pkg); sub(/^\.\/?/, "", pkg)
		if (pkg == "") pkg = "."
		loc[pkg] += $1; total += $1
	}
	END {
		for (p in loc) printf "%7d  %s\n", loc[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
