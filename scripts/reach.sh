#!/usr/bin/env bash
# Prints, for each function of internal/pgdb and internal/pgdb/sqlparse, how
# many of its statements the differential legs of `make qdiff` and the tests
# of every other package reach, then the totals per package. A function at
# 0/N is one no translated query and no other package exercises: the
# evidence a deletion of engine code names.
#
#   scripts/reach.sh [OUTDIR]
#
# OUTDIR keeps the binary, the counters and the profiles (default a
# temporary directory). The qdiff runs are the Makefile's, as `make
# qdiff-runs` prints them. About four minutes on two cores.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${1:-$(mktemp -d)}
mkdir -p "$out/covdata"
cd "$root"
pkgs=hyperq/internal/pgdb,hyperq/internal/pgdb/sqlparse

# qdiff built with -cover (not -coverpkg, whose binaries write no counters
# on go1.24) instruments the module's packages; covdata keeps the two.
go build -cover -o "$out/qdiff" ./cmd/qdiff
while read -r run; do
	# shellcheck disable=SC2086 # a run is a list of flags
	GOCOVERDIR="$out/covdata" "$out/qdiff" $run -shrink </dev/null >/dev/null 2>&1
done < <(make -s --no-print-directory qdiff-runs)
go tool covdata textfmt -i "$out/covdata" -pkg "$pkgs" -o "$out/qdiff.out"

# every other package's tests, counting statements in the two packages
mapfile -t others < <(go list ./... | grep -v -x -e hyperq/internal/pgdb -e hyperq/internal/pgdb/sqlparse)
go test -count=1 -coverpkg="$pkgs" -coverprofile="$out/tests.out" "${others[@]}" >/dev/null

# a block is reached when either profile counted it; each block belongs to
# the function declared last at or above its first line
go tool cover -func="$out/tests.out" | grep -v '^total:' >"$out/funcs.txt"
awk -v funcs="$out/funcs.txt" '
	BEGIN {
		while ((getline line < funcs) > 0) {
			split(line, f, /[ \t]+/)
			split(f[1], loc, ":")
			file = loc[1]; nf[file]++
			fline[file, nf[file]] = loc[2] + 0; fname[file, nf[file]] = f[2]
		}
	}
	FNR == 1 { next } # mode line
	{
		split($1, a, ":"); split(a[2], b, "."); line = b[1] + 0
		key = $1; stmts[key] = $2
		if ($3 > 0) hit[key] = 1
		if (!(key in blockFile)) { blockFile[key] = a[1]; blockLine[key] = line }
	}
	END {
		for (key in stmts) {
			file = blockFile[key]; best = 0
			for (i = 1; i <= nf[file]; i++)
				if (fline[file, i] <= blockLine[key] && (best == 0 || fline[file, i] > fline[file, best])) best = i
			fn = file ":" (best ? fline[file, best] ":" fname[file, best] : "?")
			tot[fn] += stmts[key]; if (key in hit) got[fn] += stmts[key]
			pkg = file; sub(/\/[^\/]*$/, "", pkg)
			ptot[pkg] += stmts[key]; if (key in hit) pgot[pkg] += stmts[key]
		}
		for (fn in tot) printf "%s\t%d/%d\n", fn, got[fn], tot[fn] | "sort -t: -k1,1 -k2,2n"
		close("sort -t: -k1,1 -k2,2n")
		for (pkg in ptot) printf "total %s\t%d/%d (%.1f%%)\n", pkg, pgot[pkg], ptot[pkg], 100 * pgot[pkg] / ptot[pkg]
	}' "$out/qdiff.out" "$out/tests.out"
