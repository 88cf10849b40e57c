"""Frontier record: capped probes of inputs the solvers do not finish today.

    python3 perfbench/frontier.py [--out FILE]

A one-shot run outside the timed workloads.  Each probe is one library
call under an in-process wall cap; its outcome (ok, error with the
exception, or timeout) and time to outcome are written to
perfbench/FRONTIER.json, which is committed.  A correctness change that
makes a probe finish can move it into a workload.  Runs take about 20
minutes, most of it in the 590 s cap of `five_asset_55_accp`.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

import run  # noqa: E402  (sets up the import of ./src)

if run.load_library() is None:
    sys.exit("error: pricebounds sources not found under %s" % run.SRC)

import numpy as np  # noqa: E402

import pricebounds as pb  # noqa: E402
from pricebounds import accp, arbitrage, cpwa, encoding, market  # noqa: E402
from pricebounds.accp import AccpOptions  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from workloads import rng_for  # noqa: E402

OUT = os.path.join(run.HERE, "FRONTIER.json")
# quote spread of the long-chain probes, tighter than the chain workload's
TIGHT_SPREAD = 0.01
# (strike count, seed) of chains on which `detect` stalled when the probes
# were chosen: chain-workload chains with an injected arbitrage, and
# arbitrage-free chains quoted at TIGHT_SPREAD
CHAIN_ARB_HANGS = ((5, 4), (13, 7))
CHAIN_TIGHT_HANGS = ((15, 4),)


def _five_asset_rung(include):
    fam = market.five_asset_family(1, mc_samples=workloads.FIVE_ASSET_MC)
    return market.build_market(fam, market.five_asset_instruments(include))


def _solve_one_probe(inst_fn, f, algo):
    def call():
        return workloads.cli_bounds(inst_fn(), f, algo)
    return call


def _chain_detect(m, inject, seed, spread=workloads.CHAIN_SPREAD):
    chain = workloads.model_chain(rng_for(seed), m, inject=inject,
                                  spread=spread)
    return lambda: arbitrage.detect(arbitrage.chain_to_instance(chain))


def random_box_instance(rng, d, n_calls, box_hi=20.0, spread=0.01,
                        n_atoms=6):
    """Box instance priced by two random discrete measures.  A copy of
    `random_box_instance` in tests/conftest.py, kept here so that the
    probes' inputs do not change when the tests do, and so that the
    benchmark does not import pytest."""
    g = [pb.asset(d, i) for i in range(d)]
    for _ in range(n_calls):
        i = int(rng.integers(d))
        k = float(rng.integers(1, 11))
        g.append(pb.vanilla_call(d, i, k))
    prices = []
    for _ in range(2):
        pts = rng.uniform(0, box_hi, size=(n_atoms, d))
        w = rng.dirichlet(np.ones(n_atoms))
        prices.append([float(w @ cpwa.evaluate_many(gj, pts))
                       for gj in g])
    prices = np.array(prices)
    return pb.MarketInstance(
        dimension=d, domain=pb.Box(tuple([box_hi] * d)), g=g,
        bid=prices.min(axis=0) - spread, ask=prices.max(axis=0) + spread)


def random_target(rng, d, kind):
    """Vanilla call (always when d = 1), basket call or call on the max,
    with a random strike in 1..7: `_random_target` of
    tests/test_acceptance.py, with the kind passed in rather than drawn."""
    strike = float(rng.integers(1, 8))
    if kind == 0 or d == 1:
        return pb.vanilla_call(d, int(rng.integers(d)), strike)
    if kind == 1:
        return pb.basket_call(rng.dirichlet(np.ones(d)), strike)
    return pb.call_on_max(d, list(range(d)), strike)


# dimension, call count and target kind of consecutive battery instances
BATTERY_CYCLE = [(d, n, kind) for d in (1, 2, 3) for n in (3, 4, 5, 6)
                 for kind in range(3)]


def _battery_accp(seed, index, upper):
    """An ACCP bound on instance `index` of the battery stream at `seed`:
    instances drawn by the acceptance battery's generator, with dimension,
    call count and target kind cycling through BATTERY_CYCLE.  The upper
    bound starts from phi_low = 0, the lower bound from minus the
    dominating cash, as in the acceptance battery."""
    rng = rng_for(seed)
    for i in range(index + 1):
        d, n, kind = BATTERY_CYCLE[i % len(BATTERY_CYCLE)]
        inst, f = random_box_instance(rng, d, n), random_target(rng, d, kind)
    if upper:
        return lambda: accp.solve_accp(inst, f, AccpOptions(
            epsilon=workloads.EPS, phi_low=0.0))
    neg_f = cpwa.linear_combination([-1.0], [f])

    def call():
        _, res = encoding.minimize_over_box(neg_f, inst.box_array())
        cash = max(0.0, -res.incumbent_value)
        return accp.solve_accp(inst, neg_f, AccpOptions(
            epsilon=workloads.EPS, phi_low=-cash))
    return call


def _unrounded_chain():
    """Six unrounded strikes linspace(0.5, 10, 6) under one truncated
    lognormal (mu 0.6, sigma^2 0.25, xbar 20), quoted +-0.005."""
    k = np.linspace(0.5, 10.0, 6)
    c = np.array([market.trunc_lognorm_call_price(0.6, 0.25, 20.0, x)
                  for x in k])
    p = np.array([market.trunc_lognorm_put_price(0.6, 0.25, 20.0, x)
                  for x in k])
    s = 0.005
    chain = arbitrage.OptionChain(k, np.maximum(c - s, 0), c + s,
                                  np.maximum(p - s, 0), p + s, xbar=20.0)
    return lambda: arbitrage.detect(arbitrage.chain_to_instance(chain))


def _halfspace_detect(m, inject):
    inst = workloads.halfspace_chain(rng_for(1), m)
    if inject:
        # call at the second strike bid above the first strike's ask
        inst.bid[2] = inst.ask[1] + 0.05
        inst.ask[2] = inst.bid[2] + 0.02
    return lambda: arbitrage.detect(inst)


def probes():
    """(name, what, cap seconds, call)"""
    rung55 = lambda: _five_asset_rung(("assets", "vanilla"))  # noqa: E731
    rung15 = lambda: workloads.five_asset_market(1)  # noqa: E731
    max5 = pb.call_on_max(5, list(range(5)), 5.0)
    out = [
        ("five_asset_55_ecp", "solve_one ecp, call_on_max(all 5, K=5), "
         "assets+vanilla (55)", 120.0, _solve_one_probe(rung55, max5, "ecp")),
        ("five_asset_55_accp", "solve_one accp, call_on_max(all 5, K=5), "
         "assets+vanilla (55)", 590.0,
         _solve_one_probe(rung55, max5, "accp")),
        ("five_asset_15_accp_max_K5", "solve_one accp, call_on_max(all 5, "
         "K=5), 15-instrument rung", 60.0,
         _solve_one_probe(rung15, max5, "accp")),
        ("five_asset_15_accp_min01_K2", "solve_one accp, call_on_min(assets "
         "0,1, K=2), 15-instrument rung", 60.0,
         _solve_one_probe(rung15, pb.call_on_min(5, [0, 1], 2.0), "accp")),
    ]
    for m in (25, 30, 35, 40, 45, 50):
        for inject in (False, True):
            out.append((
                "box_chain_detect_%d%s" % (m, "_arb" if inject else ""),
                "detect on a %d-strike box chain quoted +-%g%s" % (
                    m, TIGHT_SPREAD,
                    " with an injected arbitrage" if inject else ""),
                10.0, _chain_detect(m, inject, 1000 + m, TIGHT_SPREAD)))
    for seed, index, d, upper in ((402, 4, 1, True), (404, 19, 2, True),
                                  (401, 30, 3, True), (401, 18, 2, False)):
        out.append((
            "battery_accp_%s_%d_%d" % ("up" if upper else "lo", seed, index),
            "solve_accp %s bound, battery seed %d instance %d (d=%d)" % (
                "upper" if upper else "lower", seed, index, d),
            60.0, _battery_accp(seed, index, upper)))
    for m, seed in CHAIN_ARB_HANGS:
        out.append((
            "box_chain_detect_%d_arb_seed%d" % (m, seed),
            "detect on a %d-strike chain-workload chain with an injected "
            "arbitrage, seed %d" % (m, seed), 30.0,
            _chain_detect(m, True, seed)))
    for m, seed in CHAIN_TIGHT_HANGS:
        out.append((
            "box_chain_detect_%d_tight_seed%d" % (m, seed),
            "detect on an arbitrage-free %d-strike box chain quoted "
            "+-%g, seed %d" % (m, TIGHT_SPREAD, seed), 30.0,
            _chain_detect(m, False, seed, TIGHT_SPREAD)))
    out += [
        ("chain_unrounded_6", "detect on an unrounded 6-strike box chain",
         60.0, _unrounded_chain()),
        ("halfspace_chain_detect_7", "detect on a 7-strike half-space "
         "chain", 120.0, _halfspace_detect(7, False)),
        ("halfspace_chain_detect_8", "detect on an 8-strike half-space "
         "chain", 120.0, _halfspace_detect(8, False)),
        ("halfspace_chain_detect_3_arb", "detect on a 3-strike half-space "
         "chain with an injected arbitrage", 60.0,
         _halfspace_detect(3, True)),
    ]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=OUT)
    args = p.parse_args(argv)
    records = []
    for name, what, cap, call in probes():
        status, value, secs = harness.run_op(call, cap)
        rec = {"name": name, "what": what, "cap_s": cap, "status": status,
               "seconds": round(secs, 2)}
        if status == "error":
            rec["exception"], _, rec["message"] = value.partition(": ")
        elif status == "ok":
            rec["result"] = _describe(value)
        records.append(rec)
        print(json.dumps(rec), flush=True)
    with open(args.out, "w") as fh:
        json.dump({"command": "python3 perfbench/frontier.py",
                   "machine": "%s, %d CPUs, Python %s" % (
                       platform.machine(), os.cpu_count(),
                       platform.python_version()),
                   "blas_threads": 1, "probes": records}, fh, indent=1)
        fh.write("\n")
    return 0


def _describe(value):
    if isinstance(value, dict):
        return {k: value[k] for k in ("lb", "ub", "status") if k in value}
    if hasattr(value, "arbitrage_free"):
        return {"arbitrage_free": bool(value.arbitrage_free)}
    return repr(value)[:200]


if __name__ == "__main__":
    sys.exit(main())
