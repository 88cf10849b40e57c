"""Count repeatability check.

    python3 perfbench/check_counts.py --workload chain [--seed N]

Runs the traced batch of a workload twice in one process and compares
every per-layer count (every metric that is not a time).  Prints the
names of counts that differ and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # noqa: F401  (pins BLAS before numpy is imported)

if run.load_library() is None:
    sys.exit("error: pricebounds sources not found under %s" % run.SRC)

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TIME_UNITS = ("s", "ms")


def counts(w, seed):
    tr, _, _ = run.traced_batch(w, seed, harness, tracer)
    m = tracer.layer_metrics(tr.spans, tr.capped)
    return {k: v for k, (v, unit) in m.items() if unit not in TIME_UNITS}, \
        sorted(tr.capped)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None)
    args = p.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    (a, capped_a), (b, capped_b) = counts(w, seed), counts(w, seed)
    differ = {k: [a[k], b[k]] for k in sorted(a) if a[k] != b[k]}
    print(json.dumps({"workload": w.name, "seed": seed, "counts": len(a),
                      "differ": differ,
                      "capped_ops": [capped_a, capped_b]}))
    return 1 if differ or capped_a != capped_b else 0


if __name__ == "__main__":
    sys.exit(main())
