#!/usr/bin/env python3
"""Summarises the runs made by runs.sh into the baseline JSON.

    python3 canonbench/baseline/summarize.py OUTDIR > canonbench/baseline/BASELINE.json

Run from the repository root (it reads BENCHMARK.json for the metric
bounds). For every workload and set of seeds it reports each end-to-end
metric's median, quartiles (Python's statistics.quantiles, n=4) and spread
(q3 - q1 over the median); the change of the median from set A to set B
against the metric's bound; the tails each run printed on standard error;
and the traced run's per-layer metrics.
"""
import glob
import json
import os
import re
import statistics
import sys

TAIL = re.compile(r"^(\w+)\s+n=(\d+) p50=([\d.]+) ms tail=([\d.]+) ms .*at least p([\d.]+)\)")


def last_json(path):
    lines = open(path).read().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    out_dir = sys.argv[1]
    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "[AB]-*.out"))):
        base = os.path.basename(path)[:-4]
        set_name, rest = base.split("-", 1)
        workload, seed = rest.rsplit("-", 1)
        tails = {}
        for line in open(path[:-4] + ".err"):
            m = TAIL.match(line)
            if m:
                tails[m.group(1)] = {"p50_ms": float(m.group(3)), "tail_ms": float(m.group(4)),
                                     "tail_percentile": float(m.group(5)), "n": int(m.group(2))}
        runs.setdefault(workload, {}).setdefault(set_name, []).append((int(seed), last_json(path), tails))

    summary = {"benchmark": bench["command"], "workloads": {}}
    for workload, sets in sorted(runs.items()):
        ws = summary["workloads"][workload] = {}
        for set_name, rs in sorted(sets.items()):
            rs.sort(key=lambda r: r[0])
            ok = [r for r in rs if r[1] and r[1]["correct"]]
            s = ws["set_" + set_name] = {
                "seeds": [r[0] for r in rs],
                "correct_runs": len(ok),
                "attempted": [r[1]["attempted"] for r in ok],
                "failed": [r[1]["failed"] for r in ok],
                "metrics": {},
                "tails_unbounded": {},
            }
            for name, m in e2e.items():
                values = [r[1]["metrics"][name]["value"] for r in ok]
                s["metrics"][name] = dict(unit=m["unit"], bound=m["bound"], **spread_of(values), values=values)
            for endpoint in sorted({e for r in ok for e in r[2]}):
                values = [r[2][endpoint]["tail_ms"] for r in ok if endpoint in r[2]]
                s["tails_unbounded"][endpoint + "_tail_ms"] = dict(**spread_of(values), values=values)
        if "set_A" in ws and "set_B" in ws:
            cmp = ws["A_to_B"] = {}
            for name, m in e2e.items():
                a, b = ws["set_A"]["metrics"][name]["median"], ws["set_B"]["metrics"][name]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                cmp[name] = {"median_A": a, "median_B": b, "worse_by": worse, "bound": m["bound"]}
        traced = os.path.join(out_dir, "traced-" + workload + ".out")
        if os.path.exists(traced):
            t = last_json(traced)
            ws["traced_seed_1"] = {
                "correct": t["correct"], "attempted": t["attempted"], "failed": t["failed"],
                "metrics": {k: v for k, v in sorted(t["metrics"].items())},
            }
    log = os.path.join(out_dir, "log.txt")
    if os.path.exists(log):
        summary["run_log"] = open(log).read().strip().splitlines()
    json.dump(summary, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
