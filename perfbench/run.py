"""boxdot benchmark: four closed-loop workloads, one client, one thread.

    python3 perfbench/run.py --workload {fuzz,finite,kernel,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Every measurement happens in a fresh worker process (``worker.py``), so
each set-up includes ``import boxdot`` and each peak RSS is one workload's
alone.

``--trace 0`` starts one discarded warm-up and four set-up-only workers,
then a measuring worker that answers queries for S seconds.  ``setup_s`` is
the median of the five set-up times, from process start to the first
timed query.  The measuring worker splits its queries into windows, one
pass over the workload's input cycle each, and reports the median over
windows of throughput (verdicts per second of time inside the program),
median latency and 99th-percentile latency.

``--trace 1`` measures per-layer metrics in one worker whose windows
alternate between untraced and traced, after an untraced warm-up window,
for at least S seconds.  Each layer's figures are per traced window, so
they do not depend on the speed of the program, and
``bench.trace_overhead_frac`` is the median traced window's time over the
median untraced window's, less one: both saw the same inputs and the same
drift of the machine.

Every answer is checked against an independent expectation (see
``oracle.py`` and ``workloads.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every answer was correct, 1 when one was wrong,
and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {name: ("count" if name.endswith((".calls", "capacity_errors")) else
                    "ratio" if name.endswith("_frac") else "s")
             for name in tracing.metric_names() + [
                 "fuzz.distinct_theorem_frac", "bench.skipped_frac", "bench.failed_frac",
                 "bench.unattributed_s", "bench.trace_overhead_frac"]}
# printed by every run but kept out of the result's metrics: both are zero
# on most workloads, and failures are already the result's failed/attempted
REPORTED = ("failed_frac", "skipped_frac")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole run, set-ups included


class RunError(Exception):
    """The benchmark could not be run at all."""


def worker(root, workload, seed, mode, limit, deadline):
    """Start a worker, time it from start to 'ready', and return
    (setup seconds, parsed result or None)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, str(limit)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{workload} worker ({mode}) passed the deadline")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def end_to_end(root, workload, seed, seconds, deadline):
    setups = []
    worker(root, workload, seed, "setup", 0, deadline)  # warm-up: writes byte-code caches
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(worker(root, workload, seed, "setup", 0, deadline)[0])
    setup, res = worker(root, workload, seed, "run", seconds, deadline)
    setups.append(setup)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": res["verdicts_per_s"],
        "verdict_p50_ms": res["p50_ms"],
        "verdict_p99_ms": res["p99_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, metrics, END_TO_END


def per_layer(root, workload, seed, seconds, deadline):
    _, res = worker(root, workload, seed, "traced", seconds, deadline)
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(res["layers"])
    stats = res["stats"]
    metrics["fuzz.distinct_theorem_frac"] = stats.get("distinct_theorem_frac", 0)
    metrics["bench.skipped_frac"] = stats.get("skipped_frac", 0)
    metrics["bench.failed_frac"] = res["failed"] / max(1, res["attempted"])
    return res, metrics, PER_LAYER


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "boxdot", "__init__.py")):
        print(f"error: no boxdot sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics, units = measure(root, args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stats = res["stats"]
    failed_frac = res["failed"] / max(1, res["attempted"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"fingerprint={res['fingerprint']} queries={res['queries']} "
          f"windows={res['windows']}")
    for key, value in stats.items():
        if key not in REPORTED:
            print(f"  {key}={value}")
    print(f"  failed_frac={failed_frac:.6g} ratio (of {res['attempted']} attempted)")
    print(f"  skipped_frac={stats.get('skipped_frac', 0):.6g} ratio")
    if res["first_failure"]:
        print(f"  first failure: {res['first_failure']}")
    for name, unit in units.items():
        print(f"  {name}={metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": max(1, res["attempted"]),
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
