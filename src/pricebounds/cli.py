"""Command-line interface.

Subcommands:
  gen-market  write a synthetic MarketInstance JSON from a preset
  bounds      price-bound sweep over strikes, CSV output
  detect      arbitrage detection on an instance or quote chain
  repair      minimal-adjustment repair of a quote chain
  measure     extremal pricing measure for a payoff on an instance

Exit codes: 0 success, 1 arbitrage found (detect), 2 usage error,
3 resource, conditioning or solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import cpwa, market, arbitrage
from .lp import ResourceLimitError, ConditioningError
from .ecp import MarketInstance, EcpOptions, solve_ecp, dominating_cash
from .accp import AccpOptions, solve_accp, extract_measure

EXIT_OK = 0
EXIT_ARBITRAGE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _payoff_params(spec, d):
    """The kind and the parameters of a 'kind:key=value,...' payoff
    string; see parse_payoff_spec."""
    kind, _, rest = spec.partition(":")
    params = {"d": d}
    for item in rest.split(",") if rest else []:
        key, eq, val = item.partition("=")
        key = key.strip()
        is_list = key in ("assets", "weights", "strikes")
        if not eq:
            raise ValueError("bad payoff parameter %r" % item)
        try:
            vals = [float(v) for v in
                    (re.split(r"(?<![eE])\+", val) if is_list else [val])]
        except ValueError:
            raise ValueError("bad payoff parameter %r" % item) from None
        if key in ("asset", "long", "short", "assets"):
            if not all(v.is_integer() and 0 <= v < d for v in vals):
                raise ValueError("bad asset index in %r" % item)
            vals = [int(v) for v in vals]
        params[key] = vals if is_list else vals[0]
    return kind.strip(), params


def _make_payoff(kind, params):
    try:
        return cpwa.make_payoff(kind, params)
    except KeyError as exc:
        raise ValueError("payoff %r needs the parameter %s"
                         % (kind, exc)) from None


def parse_payoff_spec(spec, d):
    """Parse 'kind:key=value,...' payoff strings.  List values use '+'
    separators, e.g. 'call_on_max:assets=1+2+3,strike=5'; `assets`,
    `weights` and `strikes` are lists even with one entry, and only they
    are split.  A '+' right after an exponent marker is the exponent's
    sign: 'weights=1e+0+2' is [1.0, 2.0].  A bad spec, or an asset index
    not an integer in [0, d), raises ValueError."""
    return _make_payoff(*_payoff_params(spec, d))


def _load_instance(path):
    with open(path) as fh:
        return MarketInstance.from_json_dict(json.load(fh))


def _write_out(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def solve_one(instance, f, algo, epsilon, tau, delta, gamma, zeta,
              xbar=None, support=None):
    """Upper bound phi(f) and lower bound -phi(-f) with one algorithm.

    Returns a dict with bounds, counters, and the final support set."""
    support = list(support or [])
    neg_f = cpwa.linear_combination([-1.0], [f])
    # (c, 0) with c = max(0, max h) dominates h; phi(f) >= -max(-f)
    # and phi(-f) >= -max(f) follow from any feasible measure
    c_f = dominating_cash(instance, f)
    c_nf = dominating_cash(instance, neg_f)

    def bound(g, phi_low, initial_support):
        if algo == "ecp":
            return solve_ecp(instance, g, EcpOptions(
                epsilon=epsilon, tau=tau, delta=delta, xbar=xbar,
                phi_low=phi_low, initial_support=initial_support))
        return solve_accp(instance, g, AccpOptions(
            epsilon=epsilon, tau=tau, delta=delta, gamma=gamma, zeta=zeta,
            phi_low=phi_low, initial_support=initial_support))[0]

    up = bound(f, -c_nf, support)
    lo = bound(neg_f, -c_f, up.support)
    return {"ub": up.phi_ub, "lb": 0.0 - lo.phi_ub,  # never -0.0
            "ub_lb_gap": (up.phi_ub - up.phi_lb,
                          lo.phi_ub - lo.phi_lb),
            "lp_count": up.lp_count + lo.lp_count,
            "milp_count": up.milp_count + lo.milp_count,
            "status": ("arbitrage"
                       if "unbounded_arbitrage" in (up.status, lo.status)
                       else "ok"),
            "support": [list(map(float, x))
                        for x in (list(up.support) + list(lo.support))]}


def _reference_quote(instance, f):
    target = json.dumps(cpwa.to_json_dict(f), sort_keys=True)
    for j, gj in enumerate(instance.g):
        if json.dumps(cpwa.to_json_dict(gj), sort_keys=True) == target:
            return float(instance.bid[j]), float(instance.ask[j])
    return None, None


def _sweep_strikes(sweep_spec):
    parts = sweep_spec.split(":")
    if len(parts) != 3:
        raise ValueError("--sweep expects start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("--sweep needs start <= stop and a positive step")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _swept_payoffs(payoff_spec, d, strikes):
    """The payoff of `payoff_spec` at each of `strikes`, each set as the
    exact float in its `strike` parameter.  A kind that takes no strike
    raises ValueError."""
    kind, params = _payoff_params(payoff_spec, d)
    params.pop("strike", None)
    payoffs = [_make_payoff(kind, dict(params, strike=s)) for s in strikes]
    try:
        cpwa.make_payoff(kind, params)
    except KeyError:
        # every other parameter is there: the payoffs above were built
        return payoffs
    raise ValueError("payoff %r takes no strike to sweep" % kind)


def cmd_gen_market(args):
    if args.preset == "five-asset":
        fam = market.five_asset_family(seed=args.seed,
                                       mc_samples=args.samples)
        include = tuple(args.include.split(",")) if args.include else (
            "assets", "vanilla", "basket", "spread", "rainbow")
        instruments = market.five_asset_instruments(include)
    else:
        fam = market.random_family(args.d, seed=args.seed,
                                   mc_samples=args.samples)
        instruments = ([cpwa.asset(args.d, i) for i in range(args.d)] +
                       [cpwa.vanilla_call(args.d, i, k)
                        for i in range(args.d) for k in range(1, 11)])
    if args.single_model:
        fam.models = fam.models[:1]
    instance = market.build_market(fam, instruments)
    _write_out(args.out, json.dumps(instance.to_json_dict()) + "\n")
    return EXIT_OK


def cmd_bounds(args):
    instance = _load_instance(args.instance)
    algos = ["ecp", "accp"] if args.algo == "both" else [args.algo]
    if args.algo != "ecp" and not instance.is_box():
        raise ValueError("accp requires a box-domain instance")

    xbar = ([float(v) for v in args.xbar.split(",")]
            if args.xbar else None)
    if args.sweep:
        strikes = _sweep_strikes(args.sweep)
        payoffs = _swept_payoffs(args.payoff, instance.dimension, strikes)
    else:
        strikes = [None]
        payoffs = [parse_payoff_spec(args.payoff, instance.dimension)]
    solvers = {algo: functools.partial(
        solve_one, instance, algo=algo, epsilon=args.epsilon, tau=args.tau,
        delta=args.delta, gamma=args.gamma, zeta=args.zeta, xbar=xbar)
        for algo in algos}
    if args.workers > 1 and len(payoffs) > 1:
        # every strike starts cold, as with --no-warm-start
        with ProcessPoolExecutor(
                max_workers=args.workers,
                mp_context=multiprocessing.get_context("spawn")) as ex:
            runs = {algo: ex.map(solve, payoffs)
                    for algo, solve in solvers.items()}
            results = {algo: list(run) for algo, run in runs.items()}
    else:
        results = {algo: [] for algo in algos}
        for algo, solve in solvers.items():
            support = None
            for f in payoffs:
                r = solve(f, support=support if args.warm_start else None)
                support = r["support"]
                results[algo].append(r)

    header = ["strike", "LB", "UB", "reference_bid", "reference_ask",
              "algorithm", "lp_count", "milp_count", "status"]
    if len(algos) == 2:
        header.append("agreement")
    lines = [",".join(header)]
    for i, (s, f) in enumerate(zip(strikes, payoffs)):
        ref_bid, ref_ask = _reference_quote(instance, f)
        for algo in algos:
            r = results[algo][i]
            row = ["%.9g" % s if s is not None else "",
                   "%.9g" % r["lb"], "%.9g" % r["ub"],
                   "%.9g" % ref_bid if ref_bid is not None else "",
                   "%.9g" % ref_ask if ref_ask is not None else "",
                   algo, str(r["lp_count"]), str(r["milp_count"]),
                   r["status"]]
            if len(algos) == 2:
                row.append("%.9g" % abs(results["ecp"][i]["ub"] -
                                        results["accp"][i]["ub"]))
            lines.append(",".join(row))
    _write_out(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_detect(args):
    if args.chain:
        with open(args.chain) as fh:
            chain = arbitrage.OptionChain.from_json_dict(json.load(fh))
        instance = arbitrage.chain_to_instance(chain)
    else:
        instance = _load_instance(args.instance)
    res = arbitrage.detect(instance, epsilon=args.epsilon)
    _write_out(args.out, json.dumps(res.to_json_dict()) + "\n")
    if res.arbitrage_free:
        print("no arbitrage (phi_lb=%.6g, phi_ub=%.6g)"
              % (res.phi_lb, res.phi_ub), file=sys.stderr)
        return EXIT_OK
    print("arbitrage found: cost %.6g" % res.cost, file=sys.stderr)
    return EXIT_ARBITRAGE


def cmd_repair(args):
    with open(args.chain) as fh:
        chain = arbitrage.OptionChain.from_json_dict(json.load(fh))
    res = arbitrage.repair_chain(chain, eta=args.eta,
                                 outlier_threshold=args.outlier_threshold)
    out = {"chain": res.chain.to_json_dict(),
           "adjustments": {
               "call_bid": [float(v) for v in res.v_call_minus],
               "call_ask": [float(v) for v in res.v_call_plus],
               "put_bid": [float(v) for v in res.v_put_minus],
               "put_ask": [float(v) for v in res.v_put_plus]},
           "certificate": {
               "support": [float(v) for v in res.support],
               "probabilities": [float(v) for v in res.probabilities],
               "min_mass": res.min_mass},
           "objective": res.objective}
    _write_out(args.out, json.dumps(out) + "\n")
    print("%d of %d prices adjusted, largest change %.6g"
          % (res.num_adjusted, 4 * chain.m, res.max_change),
          file=sys.stderr)
    return EXIT_OK


def cmd_measure(args):
    instance = _load_instance(args.instance)
    f = parse_payoff_spec(args.payoff, instance.dimension)
    res, dagger = solve_accp(instance, f, AccpOptions(
        epsilon=args.epsilon, tau=args.tau, delta=args.delta,
        gamma=args.gamma, zeta=args.zeta))
    # the dual support of the last lower-bound LP reproduces phi_lb
    # exactly; fall back to the final cut set if none was recorded
    support = list(res.support)
    interior = True
    if dagger is not None:
        support = list(dagger[2])
        interior = dagger[3]
    mu = extract_measure(instance, f, support, interior_ok=interior)
    out = mu.to_json_dict()
    out.update(value=mu.value, phi_lb=res.phi_lb, phi_ub=res.phi_ub,
               interior_ok=bool(mu.interior_ok))
    _write_out(args.out, json.dumps(out) + "\n")
    return EXIT_OK


def build_parser():
    # the solver parameters of `bounds` and `measure`, at ACCP's defaults
    solver = argparse.ArgumentParser(add_help=False)
    group = solver.add_argument_group("solver parameters")
    defaults = AccpOptions()
    for name in ("epsilon", "tau", "delta", "gamma", "zeta"):
        group.add_argument("--" + name, type=float,
                           default=getattr(defaults, name))

    p = argparse.ArgumentParser(
        prog="pricebounds",
        description="Model-free price bounds, arbitrage detection, and "
                    "quote repair for piece-wise affine payoffs.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-market", help="generate a synthetic market")
    g.add_argument("--preset", choices=["five-asset", "random"],
                   default="five-asset")
    g.add_argument("--d", type=int, default=3,
                   help="dimension (random preset)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--samples", type=int,
                   default=market.MC_SAMPLES_DEFAULT)
    g.add_argument("--include", default=None,
                   help="comma list: assets,vanilla,basket,spread,"
                        "rainbow (five-asset preset)")
    g.add_argument("--single-model", action="store_true",
                   help="zero-spread market from the first model only")
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen_market)

    b = sub.add_parser("bounds", help="compute price bounds",
                       parents=[solver])
    b.add_argument("--instance", required=True)
    b.add_argument("--payoff", required=True,
                   help="e.g. 'call_on_max:assets=1+2+3,strike=5'")
    b.add_argument("--algo", choices=["ecp", "accp", "both"],
                   default="accp")
    b.add_argument("--xbar", default=None,
                   help="comma-separated truncation box (half-space "
                        "instances)")
    b.add_argument("--sweep", default=None, help="start:stop:step over "
                                                 "the strike parameter")
    b.add_argument("--workers", type=int, default=1,
                   help="solve the swept strikes in this many processes, "
                        "each strike cold as with --no-warm-start")
    b.add_argument("--no-warm-start", dest="warm_start",
                   action="store_false",
                   help="do not reuse support points across the sweep")
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_bounds)

    d = sub.add_parser("detect", help="detect arbitrage")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance")
    src.add_argument("--chain")
    d.add_argument("--epsilon", type=float, default=1e-3)
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_detect)

    r = sub.add_parser("repair", help="repair a quote chain")
    r.add_argument("--chain", required=True)
    r.add_argument("--eta", type=float, default=arbitrage.ETA_DEFAULT)
    r.add_argument("--outlier-threshold", type=float, default=None)
    r.add_argument("--out", default="-")
    r.set_defaults(func=cmd_repair)

    m = sub.add_parser("measure", help="extract an extremal measure",
                       parents=[solver])
    m.add_argument("--instance", required=True)
    m.add_argument("--payoff", required=True)
    m.add_argument("--out", default="-")
    m.set_defaults(func=cmd_measure)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except ConditioningError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
