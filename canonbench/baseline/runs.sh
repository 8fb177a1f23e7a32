#!/usr/bin/env bash
# Makes the runs the baseline summarises: ten seeds per workload in two
# sets (A: seeds 1-10, B: seeds 101-110), one run at a time, workloads
# interleaved, then one traced run per workload. Run from the repository
# root:
#
#   bash canonbench/baseline/runs.sh OUTDIR
#   python3 canonbench/baseline/summarize.py OUTDIR > canonbench/baseline/BASELINE.json
set -uo pipefail
out=${1:?usage: runs.sh OUTDIR}
seconds=${SECONDS_PER_RUN:-20}
mkdir -p "$out"
steal() { awk '/^cpu /{print $9}' /proc/stat; }
for set in A B; do
  for i in 1 2 3 4 5 6 7 8 9 10; do
    seed=$i
    [ "$set" = B ] && seed=$((100 + i))
    for w in feed-read celebrity-write; do
      t0=$(date +%s); s0=$(steal)
      bash canonbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$out/$set-$w-$seed.out" 2> "$out/$set-$w-$seed.err"
      echo "$set $w $seed exit=$? $(( $(date +%s) - t0 ))s steal_ticks=$(( $(steal) - s0 ))" >> "$out/log.txt"
    done
  done
done
for w in feed-read celebrity-write; do
  t0=$(date +%s)
  bash canonbench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
    > "$out/traced-$w.out" 2> "$out/traced-$w.err"
  echo "traced $w exit=$? $(( $(date +%s) - t0 ))s" >> "$out/log.txt"
done
