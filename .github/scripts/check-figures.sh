#!/usr/bin/env bash
# Regenerates the mssim outputs pinned under testdata/figures and compares
# them with the checked-in copies: two tables verbatim (fig_all.txt,
# fig_scale_fluid.txt) and the SHA-256 digests of outputs too large or too
# many to keep (SHA256SUMS: `-fig all -csv`; a lossy, bursty `-fig 12
# -json` that also carries NetStats and the metrics snapshot; `-fig all
# -trace-out F`, its stdout and its span file; `-fig baselines`; `-fig
# gossip`; and the msstrace flight timelines of a DCoP and a TCoP run as
# JSON Lines). The span file and the timelines pin the observers' enabled
# path: every span and flight record the engine's Observer derives. Any
# change to what a figure prints fails with a diff.
#
#   .github/scripts/check-figures.sh           # compare (from the repo root)
#   .github/scripts/check-figures.sh -update   # rewrite the checked-in files
#
# The outputs are deterministic at any -parallel; they assume IEEE float
# arithmetic without fused multiply-add, as on amd64.
set -euo pipefail
want=testdata/figures
update=false
case "${1:-}" in
-update) update=true ;;
"") ;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/mssim" ./cmd/mssim
go build -o "$tmp/msstrace" ./cmd/msstrace
got=$tmp/figures
mkdir "$got"
mssim=$tmp/mssim
msstrace=$tmp/msstrace

"$mssim" -fig all >"$got/fig_all.txt"
"$mssim" -fig scale -data-plane fluid -ns 1000,5000 -seeds 2 >"$got/fig_scale_fluid.txt"
{
	"$mssim" -fig all -csv | sha256sum | sed 's/-$/fig_all.csv/'
	"$mssim" -fig 12 -loss 0.05 -burst 0.01,0.2,0,0.5 -seeds 2 -json | sha256sum | sed 's/-$/fig_12_lossy.jsonl/'
	"$mssim" -fig all -trace-out "$tmp/spans.jsonl" | sha256sum | sed 's/-$/fig_all_traced.txt/'
	sha256sum <"$tmp/spans.jsonl" | sed 's/-$/fig_all_spans.jsonl/'
	"$mssim" -fig baselines | sha256sum | sed 's/-$/fig_baselines.txt/'
	"$mssim" -fig gossip | sha256sum | sed 's/-$/fig_gossip.txt/'
	"$msstrace" -proto dcop -json 2>/dev/null | sha256sum | sed 's/-$/msstrace_dcop.jsonl/'
	"$msstrace" -proto tcop -json 2>/dev/null | sha256sum | sed 's/-$/msstrace_tcop.jsonl/'
} >"$got/SHA256SUMS"
rm -f "$tmp/spans.jsonl"

if $update; then
	mkdir -p "$want"
	cp "$got"/* "$want"/
	echo "rewrote $want"
	exit 0
fi
if ! diff -ru "$want" "$got"; then
	echo "mssim output differs from $want (a SHA256SUMS line names the output whose bytes moved);" >&2
	echo "after an intended change, run $0 -update" >&2
	exit 1
fi
echo "every figure matches $want"
