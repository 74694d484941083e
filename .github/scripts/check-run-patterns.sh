#!/usr/bin/env bash
# `go test -run PATTERN` exits 0 when PATTERN matches nothing, so a renamed
# test silently drops out of a CI job. This checks every `go test ... -run
# 'A|B|C' ./pkg...` line of the workflow: each alternative must select at
# least one test in the packages the line names. (`-run='^$'`, the
# benchmarks' and fuzzers' "no tests" idiom, is skipped.)
set -euo pipefail
workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run[= ]'([^']+)'.*/\1/" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	pkgs=$(grep -oE '(^| )\./[A-Za-z0-9_/.]+' <<<"$line" | tr '\n' ' ')
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		# shellcheck disable=SC2086 # pkgs is a word list
		listed=$(go test -list "$alt" $pkgs)
		if ! grep -q '^\(Test\|Example\|Fuzz\)' <<<"$listed"; then
			echo "$workflow: -run alternative '$alt' selects no test in $pkgs" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run[= ]'[^']+'" "$workflow")
exit $status
