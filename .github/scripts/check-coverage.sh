#!/usr/bin/env bash
# Judges the coverage profile the race test step writes with
# `go test -coverpkg=./internal/...,. -coverprofile=PROFILE ./...`: fails
# when total statement coverage drops below FLOOR percent, or when more
# than CEILING functions run under no test. The zero-coverage functions
# are listed either way.
set -euo pipefail
profile=${1:-cover.out}
FLOOR=94.8
CEILING=25
funcs=$(go tool cover -func="$profile")
total=$(awk '/^total:/ { sub(/%/, "", $NF); print $NF }' <<<"$funcs")
zero=$(awk '$NF == "0.0%"' <<<"$funcs")
nzero=$(grep -c . <<<"$zero" || true)
echo "statement coverage ${total}% (floor ${FLOOR}%); ${nzero} functions at 0% (ceiling ${CEILING}):"
echo "$zero"
status=0
if awk -v t="$total" -v f="$FLOOR" 'BEGIN { exit !(t < f) }'; then
	echo "coverage ${total}% is below the ${FLOOR}% floor" >&2
	status=1
fi
if [ "$nzero" -gt "$CEILING" ]; then
	echo "${nzero} zero-coverage functions exceed the ceiling of ${CEILING}" >&2
	status=1
fi
exit $status
