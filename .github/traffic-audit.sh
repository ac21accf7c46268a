#!/usr/bin/env bash
# Traffic audit: which internal/ statements do the programs reach?
#
# Builds every main with coverage for itself plus ./internal/..., runs the
# programs (every vnbench row but allreduce, whose golden cells run instead;
# breakdown with -metrics and -traceout; the vnstress soaks of TestSoaks and
# two -dash runs; the examples; the vnproxyd session; each vnperf workload
# untraced and traced) with GOCOVERDIR set, and prints each internal/
# package's share of reached statements, one "package percent reached/total"
# line each.
# About 6 minutes on 2 cores.
#
#   bash .github/traffic-audit.sh            # print the reach per package
#   bash .github/traffic-audit.sh --check    # also hold it to the floors
#
# --check fails when a package reaches less than its line in
# .github/traffic-floors.txt, when it has no line there, and on a line for a
# package that is gone. Lowering a floor is a change to a check: say so,
# with the reason, where the change is recorded.
set -euo pipefail

cd "$(dirname "$0")/.."
floors=.github/traffic-floors.txt
check=0
case "${1:-}" in
--check) check=1 ;;
"") ;;
*)
	echo "usage: $0 [--check]" >&2
	exit 2
	;;
esac

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cov=$out/cov
mkdir -p "$cov" "$out/bin"
export GOMEMLIMIT=2500MiB

for m in cmd/vnbench cmd/vnstress cmd/vnproxyd benchmarks/vnperf examples/*; do
	go build -cover -coverpkg="virtnet/$m,./internal/..." -o "$out/bin/$(basename "$m")" "./$m"
done
rows=$("$out/bin/vnbench" -h 2>&1 | awk '/^experiments/{f=1;next} /^$/{f=0} f{print $1}' | grep -v allreduce)
for row in $rows; do
	GOCOVERDIR=$cov "$out/bin/vnbench" "$row" >/dev/null
done
GOCOVERDIR=$cov "$out/bin/vnbench" breakdown -metrics -traceout "$out/trace.json" >/dev/null
go test -c -cover -coverpkg=./internal/... -o "$out/bin/bench.test" ./internal/bench
(cd internal/bench && "$out/bin/bench.test" -test.run 'TestGoldenCells/allreduce' -test.gocoverdir="$cov" >/dev/null)
sed -n 's/^\t{"[a-z_0-9]*", [a-z]*, "\(.*\)"},$/\1/p' cmd/vnstress/main_test.go | while read -r args; do
	# shellcheck disable=SC2086 # args is a word list
	GOCOVERDIR=$cov "$out/bin/vnstress" $args >/dev/null
done
for a in "-seed 7 -duration 0.5 -dash" "-serve -seed 1 -duration 0.3 -dash"; do
	# shellcheck disable=SC2086
	GOCOVERDIR=$cov "$out/bin/vnstress" $a >/dev/null
done
for ex in examples/*; do
	GOCOVERDIR=$cov "$out/bin/$(basename "$ex")" >/dev/null
done
GOCOVERDIR=$cov "$out/bin/vnproxyd" -script cmd/vnproxyd/testdata/session.ctl >/dev/null
for w in am-stream overcommit-cs scale-1024 serve-kv; do
	for t in 0 1; do
		GOCOVERDIR=$cov "$out/bin/vnperf" --workload "$w" --seconds 2 --trace "$t" >/dev/null
	done
done

# A block appears once per profile: take each once, reached if any profile
# reached it.
go tool covdata textfmt -i="$cov" -o "$out/cover.txt"
awk 'NR > 1 {
		if (!($1 in stmts)) stmts[$1] = $2
		if ($3 > 0) hit[$1] = 1
	}
	END {
		for (b in stmts) {
			pkg = b; sub(/:.*/, "", pkg); sub(/\/[^\/]*$/, "", pkg)
			if (pkg !~ /^virtnet\/internal\//) continue
			total[pkg] += stmts[b]
			if (b in hit) reached[pkg] += stmts[b]
		}
		for (pkg in total) printf "%s %.1f %d/%d\n", pkg, 100 * reached[pkg] / total[pkg], reached[pkg], total[pkg]
	}' "$out/cover.txt" | sort >"$out/reach.txt"
cat "$out/reach.txt"
[ "$check" = 1 ] || exit 0

# Every package holds its floor. A package with no floor fails too, so a new
# package arrives with one, and so does a floor for a package that is gone.
awk 'NR == FNR { if ($0 !~ /^#/ && NF == 2) floor[$1] = $2; next }
	{ seen[$1] = 1 }
	!($1 in floor) { print "traffic audit: " $1 " has no floor in '"$floors"'"; bad = 1; next }
	$2 + 0 < floor[$1] + 0 { print "traffic audit: " $1 " reaches " $2 "%, below its floor " floor[$1] "%"; bad = 1 }
	END {
		for (p in floor) if (!(p in seen)) { print "traffic audit: " p " is gone; delete its floor"; bad = 1 }
		exit bad
	}' "$floors" "$out/reach.txt"
echo "traffic audit: every package holds its floor"
