#!/usr/bin/env bash
# Paired benchmark runs of two commits, the protocol every performance PR
# re-invented by hand: both commits are checked out under .benchpair/ (git-
# ignored), each one's harness is built once from its own source, and every
# seed runs both sides back to back, alternating which goes first — this
# machine's speed moves in episodes as long as a run, and interleaving is
# the only thing that cancels them. The --out records land in
# OUT/{parent,change}/, and each side's are also appended, one record per
# line, to OUT/{parent,change}.jsonl; `bash benchmark/run.sh compare`
# reads either form (commit the two .jsonl files, not the directories).
#
#   scripts/benchpair.sh <shaA> <shaB> [--pairs N] [--seconds S]
#       [--workloads a,b,…] [--traced a,b,…] [--out DIR]
#
# shaA is the parent, shaB the change. --traced names workloads that get
# one extra `--trace 1` run per side (seed 1) under OUT/*/traced/.
set -euo pipefail

usage() { sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 2 ] || usage
shaA=$1 shaB=$2
shift 2
pairs=5 seconds=20 workloads= traced= out=
while [ $# -gt 0 ]; do
	case $1 in
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--workloads) workloads=$2 ;;
	--traced) traced=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
shaA=$(git rev-parse --short "$shaA^{commit}")
shaB=$(git rev-parse --short "$shaB^{commit}")
out=${out:-bench/pair-$shaA-$shaB}
case $out in /*) ;; *) out="$root/$out" ;; esac
if [ -z "$workloads" ]; then
	workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json | paste -sd,)
fi

# checkout clones a commit (a clone, so that the records' git_sha is its
# own) and builds its harness; run.sh builds before it execs, so one call
# that the harness refuses leaves the binary behind.
checkout() {
	local dir="$root/.benchpair/$1"
	if [ ! -x "$dir/benchmark/.build/ccxbench" ]; then
		rm -rf "$dir"
		git clone -q --no-checkout "$root" "$dir"
		git -C "$dir" checkout -q --detach "$1"
		(cd "$dir" && bash benchmark/run.sh --seconds 0 >/dev/null 2>&1) || true
		[ -x "$dir/benchmark/.build/ccxbench" ] || { echo "benchpair: $1 did not build" >&2; exit 1; }
	fi
}
checkout "$shaA"
checkout "$shaB"

# run SIDE WORKLOAD SEED TRACE SUBDIR
run() {
	local sha=$shaA
	[ "$1" = change ] && sha=$shaB
	mkdir -p "$out/$1/$5"
	(cd "$root/.benchpair/$sha" && benchmark/.build/ccxbench --workload "$2" --seed "$3" \
		--seconds "$seconds" --trace "$4" --out "$out/$1/$5/$2.$3.json") >/dev/null
	cat "$out/$1/$5/$2.$3.json" >>"$out/$1.jsonl"
}

for w in ${workloads//,/ }; do
	for seed in $(seq 1 "$pairs"); do
		order="parent change"
		[ $((seed % 2)) -eq 0 ] && order="change parent"
		for side in $order; do
			run "$side" "$w" "$seed" 0 .
		done
		echo "benchpair: $w seed $seed done ($order)" >&2
	done
done
for w in ${traced//,/ }; do
	run parent "$w" 1 1 traced
	run change "$w" 1 1 traced
done
echo "benchpair: $shaA (parent) vs $shaB (change): records in $out" >&2
bash benchmark/run.sh compare "$out/parent.jsonl" "$out/change.jsonl"
