"""Run one pricebounds benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy.  One process, no threads or
subprocesses; BLAS is pinned to one thread before numpy is imported.

--trace 0 (default) times the workload: set-up is repeated and its median
reported, then whole cycles of items run for about --seconds.  --trace 1
runs each item of the first cycle once untraced and once traced,
alternating which goes first, and prints the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
describes the run (failures, sample counts, settings).  See
perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up runs at least this often and for at least this long in total
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
# op_ms_tail takes this quantile of each op kind's completed-op latency
TAIL_Q = 0.80
OUT_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_library():
    """Import pricebounds from ./src; None if the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "pricebounds", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import pricebounds
    if not os.path.abspath(pricebounds.__file__).startswith(SRC + os.sep):
        return None
    return pricebounds


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed is None:
        args.seed = workloads[args.workload].default_seed
    return args


def summarize(records):
    """Counts and failure list of a run's op records."""
    failed = [r for r in records if not r.ok]
    by_status = {}
    for r in failed:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "failed_by_status": by_status,
        "failures": [{"item": r.item, "op": r.op, "status": r.status,
                      "seconds": round(r.seconds, 4), "detail": r.detail}
                     for r in failed],
    }


def result_line(records, metrics):
    """The contract line: correct means every op that returned a result
    passed its check, and at least one op returned one."""
    returned = [r for r in records if r.ok or r.status == "check"]
    return {"correct": bool(returned) and all(r.ok for r in returned),
            "attempted": len(records),
            "failed": sum(not r.ok for r in records),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def timed_run(w, seed, seconds, harness):
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS or
           sum(setup_times) < SETUP_MIN_S):
        t0 = time.perf_counter()
        items = w.setup(seed, w.cycle * w.pool)
        setup_times.append(time.perf_counter() - t0)
    runs, elapsed = harness.run_items(items, w.cycle, w.cap, seconds)
    records = [r for run in runs for r in run.records]
    # latency of completed ops by op kind; of all ops (capped ops at the
    # cap) if none completed
    done = ([r for r in records if r.ok] or
            [r for r in records if r.status != "skipped"])
    by_op = {}
    for r in done:
        by_op.setdefault(r.op, []).append(r.seconds)
    p50 = {k: harness.median(v) for k, v in by_op.items()}
    tail = {k: harness.quantile(v, TAIL_Q) for k, v in by_op.items()}
    values = {
        "op_ms_p50": 1000 * harness.geomean(p50.values()),
        "op_ms_tail": 1000 * harness.geomean(tail.values()),
        "setup_s": harness.median(setup_times),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    report = summarize(records)
    report.update(
        items=len(runs), cycles=len(runs) // w.cycle,
        measured_s=round(elapsed, 3),
        setup_runs_s=[round(t, 4) for t in setup_times],
        completed_ops=sum(r.ok for r in records),
        op_ms_tail_quantile=TAIL_Q,
        ops_by_op={k: len(v) for k, v in sorted(by_op.items())},
        op_ms_p50_by_op={k: round(1000 * v, 3)
                         for k, v in sorted(p50.items())},
        op_ms_tail_by_op={k: round(1000 * v, 3)
                          for k, v in sorted(tail.items())})
    return records, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, \
        report


def traced_batch(w, seed, harness, tracer_mod, plain=None):
    """Set-up (traced) and one traced pass over the workload's first
    cycle of items.  With a list `plain`, each item also runs untraced,
    before its traced pass on even items and after it on odd ones, and
    the untraced ItemRuns are appended to `plain`."""
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        tr.begin_op("setup", "setup")
        items = w.setup(seed, w.cycle)
        tr.end_op("ok")
    finally:
        tr.uninstall()
    runs = []
    for i, it in enumerate(items):
        if plain is not None and i % 2 == 0:
            plain.append(harness.run_item(it, w.cap))
        tr.install()
        try:
            runs.append(harness.run_item(it, w.cap, tr.begin_op, tr.end_op))
        finally:
            tr.uninstall()
        if plain is not None and i % 2 == 1:
            plain.append(harness.run_item(it, w.cap))
    return tr, items, runs


def traced_run(w, seed, harness, tracer_mod):
    plain = []
    tr, items, traced = traced_batch(w, seed, harness, tracer_mod, plain)
    t_plain = sum(r.seconds for r in plain)
    t_traced = sum(r.seconds for r in traced)
    metrics = tracer_mod.layer_metrics(tr.spans, tr.capped)
    metrics["trace.overhead_frac"] = (t_traced / t_plain - 1.0, "ratio")
    metrics["trace.capped_ops"] = (len(tr.capped), "count")
    records = [r for run in traced for r in run.records]
    report = summarize(records)
    report.update(items=len(items), spans=len(tr.spans),
                  untraced_s=round(t_plain, 4), traced_s=round(t_traced, 4))
    return tr, records, metrics, report


def main(argv=None):
    lib = load_library()
    if lib is None:
        print("error: pricebounds sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    import harness
    import tracer
    import workloads
    args = parse_args(argv, workloads.WORKLOADS)
    w = workloads.WORKLOADS[args.workload]
    header = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "cap_s": w.cap,
              "blas_threads": BLAS_THREADS,
              "pricebounds": lib.__version__}
    if args.trace:
        tr, records, metrics, report = traced_run(w, args.seed, harness,
                                                  tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (w.name,
                                                            args.seed))
        tr.write(path)
        report["spans_file"] = os.path.relpath(path, ROOT)
    else:
        records, metrics, report = timed_run(w, args.seed, args.seconds,
                                             harness)
    header.update(report)
    print(json.dumps({"report": header}))
    print(json.dumps(result_line(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
