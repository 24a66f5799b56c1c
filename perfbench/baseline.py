"""Run the benchmark over ten seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Runs ``run.py`` once per (workload, seed), one after another, for every
workload and the run length that ``BENCHMARK.json`` names, and reports
for each end-to-end metric the median, the quartiles as
``statistics.quantiles(n=4)`` gives them, and the spread (third minus first
quartile, as a share of the median).  Then it makes one traced run per
workload, with the first seed, and records its per-layer metrics.  Every
run must be correct.  With ``--out`` the summary is written as JSON; a
later change compares its own summary against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

SEEDS = range(10)
NOT_MEASURED = ("The full-scale criterion-2 campaign (10,000 theorems x 300 models, about "
                "140 s) and the Tier-1 test suite (about 200 s) are not workloads: the "
                "benchmark runs each workload 22 times per check, which they cannot fit.")
TRACE_NOTE = ("bench.trace_overhead_frac is the median traced window's time over the median "
              "untraced window's, less one, from windows that alternate in one run.  A fuzz "
              "window is a whole five-campaign cycle, so its figure rests on one pair of "
              "windows, and on a shared machine whose speed drifts by 20-40% over tens of "
              "seconds one pair cannot tell the tracer's cost from that drift.")


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def bench(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = list(SEEDS)
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values, fingerprints = {}, {}
        for seed in seeds:
            lines, result = bench(root, workload, seed, seconds, 0)
            fingerprints[seed] = lines[0].split("fingerprint=")[1].split()[0]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        _, traced = bench(root, workload, seeds[0], seconds, 1)
        summary[workload] = {
            "fingerprints": fingerprints,
            "end_to_end": {k: summarise(v) for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, s in summary[workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}",
                  flush=True)
    if args.out:
        doc = {"seeds": seeds, "seconds": seconds, "python": platform.python_version(),
               "cpus": os.cpu_count(), "not_measured": NOT_MEASURED,
               "trace_note": TRACE_NOTE, "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
