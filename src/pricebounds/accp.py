"""Accelerated central cutting plane solver for box domains.

Maintains a shrinking bracket [phi_lo, phi_hi] around the superhedging
price.  Each iteration queries the Chebyshev center of the polytope of
hedges whose cost lies in a speculative band; an empty polytope proves
the speculative band too ambitious and raises the certified lower
bound, while a feasible center is tested by a (loosely solved) slack
MILP whose bound either certifies a better upper bound or produces new
feasibility cuts.  Cuts cleared by the center with room to spare are
deactivated when the inscribed radius collapses, keeping the LPs small.

The lower-bound LPs double as a source of the dual support set from
which an extremal pricing measure is extracted by one final LP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cpwa
from .cpwa import CpwaFunction
from .lp import LinearProgram, solve_lp, chebyshev_center
from .milp import MilpOptions, solve_milp
from .encoding import encode_min
from .ecp import (MarketInstance, BoundsResult, CutSet, price_pi,
                  compute_lower_phi, dominating_cash, verify_hedge)

MAX_ITERATIONS = 100000
# the hedges' box: |c| <= max(C_BAR, |c0| + 2) and |y_j| <= Y_BAR, with
# (c0, y0) the initial portfolio
C_BAR = 100.0
Y_BAR = 100.0


class LpContradictionError(RuntimeError):
    """The Chebyshev LP found the speculative band empty, but the
    lower-bound LP over the same cuts has an optimum inside the band."""


@dataclass
class AccpOptions:
    epsilon: float = 1e-3
    tau: float = 1.0
    gamma: float = 0.1
    zeta: float = 0.8
    delta: float = 0.7
    phi_low: float = None
    # (c0, y0), must dominate f; its cost is the first upper bound
    initial_portfolio: tuple = None
    initial_support: list = field(default_factory=list)


@dataclass
class DiscreteMeasure:
    atoms: list  # of (x: ndarray, mass: float)
    value: float  # integral of f
    interior_ok: bool = True

    def total_mass(self):
        return sum(m for _, m in self.atoms)

    def expectation(self, fn):
        return sum(m * cpwa.evaluate(fn, x) for x, m in self.atoms)

    def to_json_dict(self):
        return {"atoms": [{"x": [float(v) for v in x], "mass": float(m)}
                          for x, m in self.atoms]}


def solve_accp(instance: MarketInstance, f: CpwaFunction,
               opts: AccpOptions = None):
    """Returns (BoundsResult, dagger) with dagger either None or
    (c_dagger, y_dagger, X_dagger support list)."""
    if opts is None:
        opts = AccpOptions()
    if not instance.is_box():
        raise ValueError("accp requires a box domain")
    t0 = time.monotonic()
    box = instance.box_array()
    m = instance.m
    d = instance.dimension
    eps = opts.epsilon
    if opts.tau <= eps:
        raise ValueError("tau must exceed epsilon")

    if opts.initial_portfolio is not None:
        c0, y0 = opts.initial_portfolio
        y0 = np.asarray(y0, dtype=float)
    else:
        c0, y0 = dominating_cash(instance, f), np.zeros(m)
    min_slack = verify_hedge(instance, f, c0, y0, box)
    if min_slack < -1e-9:
        raise ValueError("initial portfolio does not dominate f "
                         "(min %.6g)" % min_slack)

    phi_low_in = opts.phi_low
    if phi_low_in is None:
        phi_low_in = compute_lower_phi(instance, f)
    if np.any(np.abs(y0) > Y_BAR - 1):
        raise ValueError("initial portfolio too close to the bounding "
                         "box |y_j| <= %g" % Y_BAR)
    c_bar = max(C_BAR, abs(c0) + 2.0)

    template = cpwa.slack_template(instance.g, f)
    obj_band = np.concatenate([[1.0], instance.ask, -instance.bid])
    band_scale = float(np.linalg.norm(obj_band))

    # cut aging is ACCP's own: per cut, the iteration that found it,
    # whether it is in the LPs and whether it may be dropped
    cuts = CutSet(instance, f, box)
    generation, active, removable = [], [], []

    def add_point(x, r):
        i, is_new = cuts.add(x)
        if is_new:
            generation.append(r)
            active.append(True)
            removable.append(True)
        active[i] = removable[i] = True
        return i

    gens = {0: [add_point(x, 0) for x in opts.initial_support]}

    # bounding box |c| <= c_bar, 0 <= y+, y- <= Y_BAR: 4m + 2 rows, the
    # lower and the upper bound of each variable in turn
    n = 1 + 2 * m
    box_A = np.kron(np.eye(n), [[1.0], [-1.0]])
    lower = np.concatenate([[-c_bar], np.zeros(2 * m)])
    upper = np.concatenate([[c_bar], np.full(2 * m, Y_BAR)])
    box_b = np.column_stack([lower, -upper]).ravel()

    phi_lo = phi_low_in - opts.tau
    phi_hi = c0 + price_pi(y0, instance)
    c_star, y_star = float(c0), y0.copy()
    flag = False
    cheb = None  # the last optimal Chebyshev LP, the start of the next
    rho = {0: -1.0}
    dagger = None
    lp_count = 0
    milp_count = 0
    milp_nodes = 0
    r = 0
    while phi_hi - phi_lo > eps:
        r += 1
        if r > MAX_ITERATIONS:
            raise RuntimeError("iteration limit reached")
        phi_mid = (phi_lo + phi_hi) / 2.0
        if flag:
            phi_mid = (phi_lo + phi_mid) / 2.0
        live = [i for i in range(len(cuts)) if active[i]]
        cut_A = cuts.row(live, n)
        cut_b = np.array([cuts.fx[i] for i in live])
        cscales = [np.sqrt(1.0 + cuts.gx[i] @ cuts.gx[i]) for i in live]
        center = chebyshev_center(
            np.vstack([box_A, obj_band, -obj_band, cut_A]),
            np.concatenate([box_b, [phi_lo, -phi_mid], cut_b]),
            np.concatenate([np.ones(len(box_b)), [band_scale, band_scale],
                            cscales]), start=cheb)
        lp_count += 1
        if center is None:
            # speculative band empty: certified new lower bound via LP
            bounds = [(-c_bar, c_bar)] + [(0.0, Y_BAR)] * (2 * m)
            sol = solve_lp(LinearProgram(obj_band, [(cut_A, ">=", cut_b)],
                                         bounds))
            lp_count += 1
            if sol.status != "optimal":
                raise RuntimeError("lower-bound LP status %s" % sol.status)
            if sol.objective <= phi_mid:
                # phi_lo would not pass phi_mid, and the next iteration
                # would solve the same two LPs again
                raise LpContradictionError(
                    "band [%.9g, %.9g] is empty, yet the lower-bound LP "
                    "reaches %.9g" % (phi_lo, phi_mid, sol.objective))
            phi_lo = sol.objective
            cd = float(sol.x[0])
            yd = sol.x[1:1 + m] - sol.x[1 + m:1 + 2 * m]
            interior = (abs(cd) < c_bar - 1e-7 and
                        np.all(sol.x[1:] < Y_BAR - 1e-7))
            dagger = (cd, yd, [cuts.x[i].copy() for i in live], interior)
            for i, gen in enumerate(generation):
                if 1 <= gen <= r - 1:
                    removable[i] = True
            rho[r] = -1.0
            gens[r] = []
            continue
        v, radius, cheb = center
        rho[r] = radius
        c_r = float(v[0])
        y_r = v[1:1 + m] - v[1 + m:1 + 2 * m]

        slack_fn = cpwa.instantiate(template, y_r)
        enc = encode_min(slack_fn, box)
        res = solve_milp(enc.program,
                         MilpOptions(rel_gap=opts.zeta,
                                     pool_threshold=opts.delta),
                         offset=enc.constant + c_r)
        milp_count += 1
        milp_nodes += res.nodes
        if res.incumbent_value is None:
            raise RuntimeError("slack MILP found no incumbent")
        s_hi = res.incumbent_value  # approximate optimal value
        s_lo = res.best_bound  # certified lower bound at termination
        gens[r] = []
        for x_full, val in res.pool:
            if val <= opts.delta * s_hi + 1e-9:
                gens[r].append(add_point(x_full[:d], r))

        hedge_cost = c_r + price_pi(y_r, instance) - s_lo
        if hedge_cost < phi_hi:
            # every certified hedge tightens the bound, but only a gain of
            # eps counts as progress.  A center in the band gains at least
            # half the gap, which is less than eps once the gap is below
            # 2 eps: without this update the bracket would stall there.
            improved = hedge_cost < phi_hi - eps
            phi_hi = hedge_cost
            c_star = c_r - s_lo
            y_star = y_r.copy()
            if improved and s_lo >= 0:
                for i, gen in enumerate(generation):
                    if 1 <= gen <= r:
                        removable[i] = True
                continue

        if flag:
            flag = False
            for i in gens[r]:
                removable[i] = False
            continue
        flag = True
        for l in range(0, r + 1):
            if rho[r] < opts.gamma * rho.get(l, -1.0):
                for i in gens.get(l, []):
                    if removable[i] and active[i]:
                        gx = cuts.gx[i]
                        lhs = c_r + y_r @ gx - np.sqrt(1.0 + gx @ gx) * rho[r]
                        if lhs > cuts.fx[i]:
                            active[i] = False

    phi_ub = phi_hi
    phi_lb = phi_lo
    status = "ok"
    if phi_ub < phi_low_in:
        status = "unbounded_arbitrage"
    result = BoundsResult(
        phi_lb=phi_lb, phi_ub=phi_ub, c_star=c_star, y_star=y_star,
        support=[cuts.x[i].copy() for i in range(len(cuts)) if active[i]],
        status=status, lp_count=lp_count, milp_count=milp_count,
        milp_nodes=milp_nodes, iterations=r,
        wall_time=time.monotonic() - t0)
    return result, dagger


def extract_measure(instance: MarketInstance, f: CpwaFunction,
                    support, interior_ok=True) -> DiscreteMeasure:
    """Extremal pricing measure on a finite support: maximize the
    integral of f over probability measures pricing every instrument
    inside its band."""
    support = [np.asarray(x, dtype=float) for x in support]
    if not support:
        raise ValueError("empty support")
    nx = len(support)
    fx = np.array([cpwa.evaluate(f, x) for x in support])
    G = np.stack([[cpwa.evaluate(gj, x) for gj in instance.g]
                  for x in support])  # nx x m
    # total mass 1, then per instrument its bid row and its ask row
    A = np.vstack([np.ones(nx), np.repeat(G.T, 2, axis=0)])
    b = np.concatenate([[1.0], np.column_stack(
        [instance.bid, instance.ask]).ravel()])
    sense = np.concatenate([[0], np.tile([1, -1], instance.m)])
    sol = solve_lp(LinearProgram.from_arrays(
        -fx, A, b, sense, np.zeros(nx), np.full(nx, np.inf)))
    if sol.status != "optimal":
        raise RuntimeError("measure LP status %s: support set inadequate"
                           % sol.status)
    atoms = [(support[i], float(sol.x[i])) for i in range(nx)
             if sol.x[i] > 1e-12]
    return DiscreteMeasure(atoms=atoms, value=float(-sol.objective),
                           interior_ok=interior_ok)


def detect_unbounded_flag(result: BoundsResult) -> bool:
    return result.status == "unbounded_arbitrage"
