#!/usr/bin/env bash
# Correctness smoke of the benchmark: each workload's outputs must match its
# independent reference; timings are not gated here.  Stops at the first run
# whose result is not `correct`.
#
# pain-clinic runs on seven seeds, 1,750 assessments in all, to check the
# solver's control flow on more inputs, seeds 21 and 57 among them, the
# streams its speed was last measured on: the one-point path, which the
# clinic streams' zero-width intervals take, the answers on a bound, which
# the first kernel call decides from the scores at j_lo and j_hi, and the
# root find's interpolation rounds and their fallbacks inside the interval.
# simulate-study runs on three seeds: it checks the study's distinct-column
# storage and its CSV writer against the reference on three pairs and
# epsilon streams, including the d_c cells that share the d_h or d_m arrays
# because their bits are equal (lambda 0 and 1), so that their text is
# formatted once.  batch-distance and paper-figures run on two seeds each:
# batch-distance checks the bulk np.loadtxt reader of --batch on two input
# files, paper-figures the fig2/fig4 studies and the sweeps.
#
# Run from the repository root: bash .github/bench-smoke.sh
set -euo pipefail

for run in batch-distance:1 batch-distance:2 \
    pain-clinic:1 pain-clinic:2 pain-clinic:3 pain-clinic:4 pain-clinic:5 \
    pain-clinic:21 pain-clinic:57 \
    simulate-study:1 simulate-study:2 simulate-study:3 paper-figures:1 paper-figures:2; do
  echo "benchmark correctness: $run" >&2
  if ! python3 perfbench/run.py --workload "${run%:*}" --seed "${run#*:}" --seconds 1 --trace 1 \
      | tail -n 1 \
      | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
  then
    echo "benchmark run $run is not correct" >&2
    exit 1
  fi
done
