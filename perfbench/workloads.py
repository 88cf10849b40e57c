"""The benchmark's workloads: input generators, op lists and result checks.

Every workload turns a seed into a list of items (see harness.py).  The
library receives only the generated inputs.  `setup` is the work done
before timing starts: market pricing, instance and chain construction.
Library functions are called through their modules (`accp.solve_accp`), so
that the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import pricebounds as pb
from pricebounds import accp, arbitrage, cli, cpwa, ecp, market
from pricebounds.accp import AccpOptions

from harness import Item, Op

EPS = 1e-3
HEDGE_TOL = 1e-6
PRICE_TOL = 1e-7
VALUE_TOL = 1e-6


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# result checks (run outside the timed and traced regions)
# ---------------------------------------------------------------------------

def _bounds_msg(lb, ub, gap):
    if not lb <= ub + 1e-9:
        return "bounds out of order: lb %.9g > ub %.9g" % (lb, ub)
    if gap > EPS + 1e-12:
        return "gap %.3g exceeds epsilon %g" % (gap, EPS)
    return None


def _check_result(res, inst, target):
    """A BoundsResult: status ok, ordered bounds, gap <= eps, and a hedge
    that an independent MILP confirms dominates the target."""
    if res.status != "ok":
        return "status %s" % res.status
    msg = _bounds_msg(res.phi_lb, res.phi_ub, res.phi_ub - res.phi_lb)
    if msg:
        return msg
    slack = ecp.verify_hedge(inst, target, res.c_star, res.y_star)
    if slack < -HEDGE_TOL:
        return "hedge slack %.3g below -%g" % (slack, HEDGE_TOL)
    return None


def _agree_msg(a_ub, a_lb, b_ub, b_lb):
    worst = max(abs(a_ub - b_ub), abs(a_lb - b_lb))
    if worst > 2 * EPS:
        return "ECP and ACCP disagree by %.3g > 2 eps" % worst
    return None


def _check_measure(mu, inst, phi_lb):
    if abs(mu.total_mass() - 1.0) > 1e-9:
        return "measure mass %.12g" % mu.total_mass()
    w = np.array([m for _, m in mu.atoms])
    gx = np.array([[cpwa.evaluate(gj, x) for gj in inst.g]
                   for x, _ in mu.atoms])
    priced = w @ gx
    if (np.any(priced < inst.bid - PRICE_TOL) or
            np.any(priced > inst.ask + PRICE_TOL)):
        return "measure prices an instrument outside its band"
    if abs(mu.value - phi_lb) > VALUE_TOL:
        return "measure value %.9g != ACCP phi_lb %.9g" % (mu.value,
                                                          phi_lb)
    return None


def _check_verdict(res, expect_arbitrage):
    if res.arbitrage_free == expect_arbitrage:
        return "detect says %s, construction says %s" % (
            "no arbitrage" if res.arbitrage_free else "arbitrage",
            "arbitrage" if expect_arbitrage else "no arbitrage")
    return None


def _check_repair(rep):
    ch = rep.chain
    if abs(rep.probabilities.sum() - 1.0) > 1e-9:
        return "certificate mass %.12g" % rep.probabilities.sum()
    for j, k in enumerate(ch.strikes):
        c = rep.certificate_call_price(k)
        p = rep.certificate_put_price(k)
        if not (ch.call_bid[j] - PRICE_TOL <= c <= ch.call_ask[j] + PRICE_TOL
                and ch.put_bid[j] - PRICE_TOL <= p
                <= ch.put_ask[j] + PRICE_TOL):
            return "certificate misprices strike %g" % k
    return None


def _check_repair_arb(rep, ctx):
    """A chain with an arbitrage: the repair must adjust some quote."""
    if rep.num_adjusted < 1:
        return "repair adjusted no quote of a chain with an arbitrage"
    return _check_repair(rep)


def _check_solve_one(r):
    if r["status"] != "ok":
        return "status %s" % r["status"]
    return _bounds_msg(r["lb"], r["ub"], max(r["ub_lb_gap"]))


def _cli_defaults():
    """The `pricebounds bounds` defaults for the solver parameters."""
    args = cli.build_parser().parse_args(
        ["bounds", "--instance", "-", "--payoff", "-"])
    return dict(epsilon=args.epsilon, tau=args.tau, delta=args.delta,
                gamma=args.gamma, zeta=args.zeta)


CLI_DEFAULTS = _cli_defaults()


def cli_bounds(inst, f, algo):
    """What `pricebounds bounds` runs for one payoff, at its defaults."""
    return cli.solve_one(inst, f, algo, **CLI_DEFAULTS)


# ---------------------------------------------------------------------------
# five_asset: the paper's preset; ops run on its largest finishing rung
# ---------------------------------------------------------------------------

FIVE_ASSET_MC = 20000
FIVE_ASSET_STRIKES = (3, 7)
FIVE_ASSET_PAYOFF_STRIKE = 3.0


def five_asset_market(seed):
    """Price the full 439-instrument preset, then keep the 5 assets and
    the vanilla calls at FIVE_ASSET_STRIKES (closed-form priced, so the
    kept quotes do not depend on the Monte Carlo seed)."""
    fam = market.five_asset_family(seed, mc_samples=FIVE_ASSET_MC)
    full = market.build_market(fam, market.five_asset_instruments())
    idx = list(range(5)) + [5 + 10 * i + (k - 1)
                            for i in range(5) for k in FIVE_ASSET_STRIKES]
    return pb.MarketInstance(dimension=5, domain=full.domain,
                             g=[full.g[j] for j in idx],
                             bid=full.bid[idx], ask=full.ask[idx])


def measure_at_defaults(inst, f):
    """What `pricebounds measure` runs, at its defaults: the ACCP upper
    bound, then a pricing measure from its last lower-bound LP's dual
    support (or from the final cut set if none was recorded)."""
    res, dagger = accp.solve_accp(inst, f, AccpOptions(**CLI_DEFAULTS))
    if dagger is None:
        return res, accp.extract_measure(inst, f, res.support)
    return res, accp.extract_measure(inst, f, dagger[2],
                                     interior_ok=dagger[3])


def five_asset_setup(seed, count):
    inst = five_asset_market(seed)
    f = pb.call_on_max(5, list(range(5)), FIVE_ASSET_PAYOFF_STRIKE)

    def accp_check(r, ctx):
        msg = _check_solve_one(r)
        if msg is None and "ecp" in ctx:
            e = ctx["ecp"]
            msg = _agree_msg(r["ub"], r["lb"], e["ub"], e["lb"])
        return msg

    item = Item("call_on_max K=3 on %d instruments" % inst.m, [
        Op("ecp", lambda ctx: cli_bounds(inst, f, "ecp"),
           lambda r, ctx: _check_solve_one(r)),
        Op("accp", lambda ctx: cli_bounds(inst, f, "accp"), accp_check),
        Op("measure", lambda ctx: measure_at_defaults(inst, f),
           lambda r, ctx: (_check_result(r[0], inst, f) or
                           _check_measure(r[1], inst, r[0].phi_lb))),
    ])
    return [item] * count


# ---------------------------------------------------------------------------
# chain: single-asset call/put chains on a box, half with an arbitrage
# ---------------------------------------------------------------------------

CHAIN_XBAR = 20.0
CHAIN_SPREAD = 0.05
CHAIN_MIN_STRIKES = 4
CHAIN_MAX_STRIKES = 16


def model_chain(rng, m, xbar=CHAIN_XBAR, inject=False, spread=CHAIN_SPREAD):
    """Call/put quotes at m evenly spaced strikes from 0.5 to 10, rounded
    to 2 decimals: bid/ask are the min/max of two truncated-lognormal
    models' closed-form prices minus/plus a spread.  With `inject`, one
    call's bid is raised above the ask of the call at the next-lower
    strike (a vertical-spread arbitrage)."""
    strikes = np.round(np.linspace(0.5, 10.0, m), 2)
    mu = rng.uniform(0.3, 0.9)
    s2 = rng.uniform(0.15, 0.35)
    models = [(mu, s2), (mu + rng.uniform(-0.05, 0.05),
                         s2 + rng.uniform(0.01, 0.05))]
    calls = np.array([[market.trunc_lognorm_call_price(a, b, xbar, k)
                       for k in strikes] for a, b in models])
    puts = np.array([[market.trunc_lognorm_put_price(a, b, xbar, k)
                      for k in strikes] for a, b in models])
    call_bid = np.maximum(calls.min(axis=0) - spread, 0.0)
    call_ask = calls.max(axis=0) + spread
    put_bid = np.maximum(puts.min(axis=0) - spread, 0.0)
    put_ask = puts.max(axis=0) + spread
    if inject:
        j = int(rng.integers(1, m))
        call_bid[j] = call_ask[j - 1] + 0.05
        call_ask[j] = max(call_ask[j], call_bid[j] + 0.02)
    return arbitrage.OptionChain(strikes, call_bid, call_ask, put_bid,
                                 put_ask, xbar=xbar)


def chain_setup(seed, count):
    """Strike counts cycle through 4..16.  Even items are arbitrage-free
    chains, checked with `detect`; odd items carry an injected arbitrage
    and are repaired with `repair_chain`.  A 13-chain cycle has each
    strike count once, and consecutive cycles swap which counts are
    checked and which repaired.  `detect` is not run on chains with an
    arbitrage: it stalls on a few in a hundred (see FRONTIER.json)."""
    rng = rng_for(seed)
    span = CHAIN_MAX_STRIKES - CHAIN_MIN_STRIKES + 1
    items = []
    for i in range(count):
        m = CHAIN_MIN_STRIKES + i % span
        inject = i % 2 == 1
        chain = model_chain(rng, m, inject=inject)
        if inject:
            items.append(Item(
                "chain %d (%d strikes, arbitrage)" % (i, m),
                [Op("repair", lambda ctx, chain=chain:
                    arbitrage.repair_chain(chain), _check_repair_arb)]))
        else:
            items.append(Item(
                "chain %d (%d strikes)" % (i, m),
                [Op("detect", lambda ctx, chain=chain: arbitrage.detect(
                    arbitrage.chain_to_instance(chain)),
                    lambda r, ctx: _check_verdict(r, False))]))
    return items


# ---------------------------------------------------------------------------
# halfspace: Setting 1 (R^d_+), where the radial system is generated
# ---------------------------------------------------------------------------

HALFSPACE_SPREAD = 0.01
HALFSPACE_MIN_STRIKES = 3
HALFSPACE_MAX_STRIKES = 6
# market dimensions repeat every 3 pairs of items, strike counts every 4
HALFSPACE_CYCLE = 2 * 12


def _halfspace_market(rng, d, seed):
    fam = market.random_family(d, seed=seed)
    g = [pb.asset(d, i) for i in range(d)]
    for i in range(d):
        for k in rng.choice(np.arange(1, 11), size=int(rng.integers(1, 3)),
                            replace=False):
            g.append(pb.vanilla_call(d, i, float(k)))
    boxed = market.build_market(fam, g)
    return pb.MarketInstance(dimension=d, domain=pb.HalfSpacePositive(),
                             g=g, bid=boxed.bid, ask=boxed.ask)


def halfspace_chain(rng, m):
    """Asset + calls + puts at m strikes on R_+, quoted by two lognormal
    models (truncated far beyond every strike)."""
    chain = model_chain(rng, m, xbar=1e4, spread=HALFSPACE_SPREAD)
    g = ([pb.asset(1, 0)] +
         [pb.vanilla_call(1, 0, float(k)) for k in chain.strikes] +
         [pb.vanilla_put(1, 0, float(k)) for k in chain.strikes])
    # the asset's quote by put-call parity at the lowest strike
    mean_lo = chain.call_bid[0] - chain.put_ask[0] + chain.strikes[0]
    mean_hi = chain.call_ask[0] - chain.put_bid[0] + chain.strikes[0]
    return pb.MarketInstance(
        dimension=1, domain=pb.HalfSpacePositive(), g=g,
        bid=np.concatenate([[max(mean_lo, 0.0)], chain.call_bid,
                            chain.put_bid]),
        ask=np.concatenate([[mean_hi], chain.call_ask, chain.put_ask]))


def halfspace_setup(seed, count):
    """Alternates ECP bounds on d = 1..3 markets with `detect` on
    arbitrage-free chains of 3..6 strikes.  Op names carry the size, so
    that each size is its own op kind: op time grows about 4 times per
    strike, and a median over all sizes would jump between them."""
    rng = rng_for(seed)
    span = HALFSPACE_MAX_STRIKES - HALFSPACE_MIN_STRIKES + 1
    items = []
    for i in range(count):
        if i % 2 == 0:
            d = 1 + (i // 2) % 3
            inst = _halfspace_market(rng, d, seed * 1000 + i)
            f = pb.call_on_max(d, list(range(d)),
                               float(rng.integers(1, 8)))
            items.append(Item(
                "market %d (d=%d, m=%d)" % (i, d, inst.m),
                [Op("ecp_d%d" % d, lambda ctx, inst=inst, f=f:
                    cli_bounds(inst, f, "ecp"),
                    lambda r, ctx: _check_solve_one(r))]))
        else:
            m = HALFSPACE_MIN_STRIKES + (i // 2) % span
            inst = halfspace_chain(rng, m)
            items.append(Item(
                "chain %d (%d strikes)" % (i, m),
                [Op("detect_m%d" % m, lambda ctx, inst=inst:
                    arbitrage.detect(inst),
                    lambda r, ctx: _check_verdict(r, False))]))
    return items


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """`setup(seed, n)` returns the first n items of the seed's input
    stream.  Sizes cycle with period `cycle`, and runs use whole cycles,
    so every run sees the same size mix."""
    name: str
    setup: Callable
    cycle: int  # items per cycle; a traced run uses the first cycle
    pool: int  # cycles generated for a timed run (reused if exhausted)
    cap: float  # per-op wall cap, seconds
    default_seed: int


WORKLOADS = {w.name: w for w in [
    Workload("five_asset", five_asset_setup, cycle=1, pool=1, cap=40.0,
             default_seed=1),
    Workload("chain", chain_setup,
             cycle=CHAIN_MAX_STRIKES - CHAIN_MIN_STRIKES + 1, pool=6,
             cap=10.0, default_seed=1),
    Workload("halfspace", halfspace_setup, cycle=HALFSPACE_CYCLE, pool=6,
             cap=10.0,
             default_seed=1),
]}
