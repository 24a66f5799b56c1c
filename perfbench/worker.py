"""One workload in one fresh process; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED MODE LIMIT

MODE is ``setup`` (build the inputs, report ready, exit), ``run`` (then
answer queries for LIMIT seconds, and for at least one whole window) or
``traced`` (answer queries for at least LIMIT seconds, in whole windows
that alternate between untraced and traced).  The worker prints ``ready``
once its inputs are built and, unless MODE is ``setup``, one JSON line
with its results after the timed phase and the checks.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def percentile(xs, q):
    """Linear interpolation between the closest ranks, as
    statistics.quantiles(method="inclusive") does."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarise(latencies, verdicts):
    return {"verdicts_per_s": verdicts / sum(latencies), "busy_s": sum(latencies),
            "p50": percentile(latencies, 0.5), "p99": percentile(latencies, 0.99)}


def main(argv):
    workload, seed, mode, limit = argv[0], int(argv[1]), argv[2], float(argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")

    import workloads

    wl = workloads.CLASSES[workload](seed, workdir)
    print("ready", flush=True)
    try:
        if mode != "setup":
            print(json.dumps(measure(wl, workload, seed, mode, limit, root)), flush=True)
    finally:
        wl.close()
    return 0


def measure(wl, workload, seed, mode, limit, root):
    # Per window of wl.WINDOW queries (one pass over the workload's input
    # cycle): throughput, median and 99th-percentile latency.  The run
    # reports the median over complete windows, so that a slow spell of
    # the machine during a minority of windows does not move the result.
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
    windows = []  # (traced, summary) per complete window
    latencies = []
    window_verdicts = 0
    clock = time.perf_counter
    i = 0
    traced = False
    start = clock()
    while True:
        t0 = clock()
        answer = wl.step(i)
        latencies.append(clock() - t0)
        window_verdicts += wl.keep(i, answer)
        i += 1
        if len(latencies) == wl.WINDOW:
            windows.append((traced, summarise(latencies, window_verdicts)))
            latencies, window_verdicts = [], 0
            if tracer is not None:
                if clock() - start >= limit and enough(windows):
                    break
                # untraced and traced windows alternate, so both see the
                # same drift of the machine; the first window is a warm-up
                if traced:
                    tracer.uninstall()
                else:
                    tracer.install()
                traced = not traced
        if tracer is None and clock() - start >= limit and windows:
            break
    if traced:
        tracer.uninstall()
    wall = clock() - start
    busy = sum(w["busy_s"] for _, w in windows) + sum(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        on = [w["busy_s"] for t, w in windows if t]
        off = [w["busy_s"] for t, w in windows[1:] if not t]
        # per traced window, so that the figures do not depend on how
        # many windows fitted in the run
        layers = tracer.summary(sum(on), len(on))
        layers["bench.trace_overhead_frac"] = statistics.median(on) / statistics.median(off) - 1
        tracedir = os.path.join(root, ".perfbench_traces")
        os.makedirs(tracedir, exist_ok=True)
        tracer.write(os.path.join(tracedir, f"{workload}-seed{seed}.tsv.gz"), start)
    wl.check()
    summaries = [w for _, w in windows]
    return {
        "queries": i,
        "windows": len(windows),
        "wall_s": wall,
        "busy_s": busy,
        "verdicts_per_s": statistics.median(w["verdicts_per_s"] for w in summaries),
        "p50_ms": statistics.median(w["p50"] for w in summaries) * 1000,
        "p99_ms": statistics.median(w["p99"] for w in summaries) * 1000,
        "peak_rss_mb": rss_mb,
        "attempted": i,
        "failed": wl.failed,
        "first_failure": wl.first_failure,
        "fingerprint": wl.fingerprint(),
        "stats": wl.stats(),
        "layers": layers,
    }


def enough(windows):
    """At least one traced window and one untraced window after the warm-up."""
    return {t for t, _ in windows[1:]} == {False, True}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
