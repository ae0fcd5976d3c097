#!/usr/bin/env bash
# Compares this checkout (head) against a base ref on the repository's
# benchmark, the way the gate does: BASE's committed files are unpacked into
# a temporary directory (git archive, so nothing is written under the
# repository's .git), bench/run.sh runs in alternating base/head pairs per
# workload, and the medians of each end-to-end metric are held to the bound
# BENCHMARK.json fixes for it. A metric whose base runs spread (interquartile, relative to
# the median) wider than its bound is reported as unresolved, not as
# unchanged. Exits 1 if any metric regressed beyond its bound.
#
#   scripts/bench-compare.sh BASE [PAIRS [WORKLOAD...]]
#
# PAIRS defaults to 5 (a claimed gain needs 10); WORKLOAD defaults to every
# workload in BENCHMARK.json.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,14p' "$0" >&2; exit 2; }
base_ref=$1
pairs=${2:-5}
shift $(($# > 2 ? 2 : $#))

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
spec=$root/BENCHMARK.json
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(awk '/"workloads"/{on=1} /"end_to_end"/{on=0} on && /"name"/{gsub(/[",]/,""); print $2}' "$spec")
fi
# name, better, bound of every gated metric
mapfile -t metrics < <(awk '/"end_to_end"/{on=1} /"per_layer"/{on=0}
	on && /"name"/{gsub(/[",]/,""); name=$2}
	on && /"better"/{gsub(/[",]/,""); better=$2}
	on && /"bound"/{gsub(/[",]/,""); print name, better, $2}' "$spec")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base"

# run SIDE DIR WORKLOAD appends the run's last-line JSON to $tmp/SIDE.WORKLOAD
run() {
	echo "  $1 $3" >&2
	(cd "$2" && bash bench/run.sh --workload "$3" --seed 1 --seconds "$seconds" --trace 0) | tail -n 1 >>"$tmp/$1.$3"
}
# values FILE KEY prints KEY's number ("KEY":N or "KEY":{"value":N,...})
# from each JSON line of FILE, sorted
values() { sed -n 's/.*"'"$2"'":\({"value":\)\{0,1\}\(-\{0,1\}[0-9][0-9.e+-]*\).*/\2/p' "$1" | sort -g; }
sum() { awk '{s += $1} END {print s + 0}'; }
# stats reads sorted numbers, prints "median iqr"
stats() {
	awk '{a[NR]=$1} END {
		if (NR == 0) { print "nan nan"; exit }
		med = NR % 2 ? a[(NR+1)/2] : (a[NR/2] + a[NR/2+1]) / 2
		q1 = int((NR+3)/4)
		print med, a[NR+1-q1] - a[q1]
	}'
}

status=0
for w in "${workloads[@]}"; do
	echo "$w: $pairs pairs of ${seconds}s runs" >&2
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run base "$tmp/base" "$w"; run head "$root" "$w"
		else
			run head "$root" "$w"; run base "$tmp/base" "$w"
		fi
	done
	for side in base head; do
		printf '%-14s %-16s %s of %s operations failed, %s of %s runs correct\n' "$w" "$side" \
			"$(values "$tmp/$side.$w" failed | sum)" "$(values "$tmp/$side.$w" attempted | sum)" \
			"$(grep -c '"correct":true' "$tmp/$side.$w" || true)" "$pairs"
	done
	for m in "${metrics[@]}"; do
		read -r name better bound <<<"$m"
		read -r bmed biqr < <(values "$tmp/base.$w" "$name" | stats)
		read -r hmed _ < <(values "$tmp/head.$w" "$name" | stats)
		verdict=$(awk -v b="$bmed" -v h="$hmed" -v iqr="$biqr" -v bound="$bound" -v better="$better" 'BEGIN {
			worse = better == "higher" ? (b - h) / b : (h - b) / b
			v = iqr / b > bound ? "unresolved" : worse > bound ? "REGRESSION" : "ok"
			printf "base %-9.4g head %-9.4g %+.1f%% worse, bound %.0f%%, base spread %.1f%%: %s", b, h, 100 * worse, 100 * bound, 100 * iqr / b, v
		}')
		printf '%-14s %-16s %s\n' "$w" "$name" "$verdict"
		case $verdict in *REGRESSION) status=1 ;; esac
	done
done
exit $status
