#!/usr/bin/env bash
# Paired parent/change runs for judging a performance change:
#
#   bash perfbench/ab.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUT_DIR [PAIRS] [SECONDS]
#
# For each workload and each seed 1..PAIRS (default 10), runs the
# benchmark once in each checkout, alternating which side goes first, and
# keeps each run's stdout as OUT_DIR/{parent,change}/<workload>.<seed>.out.
# Each checkout builds into its own .bench_build. Finally prints the
# comparison table of `perfbench compare`.
set -euo pipefail
if [ $# -lt 3 ]; then
    sed -n '2,10p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
mkdir -p "$3/parent" "$3/change"
out="$(cd "$3" && pwd)"
pairs="${4:-10}"
seconds="${5:-40}"
one() { # side checkout workload seed
    (cd "$2" && CARGO_TARGET_DIR=.bench_build bash perfbench/run.sh \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 >"$out/$1/$3.$4.out")
}
for workload in suite units; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            one parent "$parent" "$workload" "$seed"
            one change "$change" "$workload" "$seed"
        else
            one change "$change" "$workload" "$seed"
            one parent "$parent" "$workload" "$seed"
        fi
    done
done
cd "$change" && bash perfbench/run.sh compare "$out/parent" "$out/change"
