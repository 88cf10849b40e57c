"""Exterior cutting plane solver for the superhedging LSIP.

The superhedging price phi(f) = inf { c + pi(y) : c + <y, g(x)> >= f(x)
for all x in the domain } is approached from below by a finite LP over
an accumulating set of feasibility cuts.  Each iteration solves the
relaxed LP, then globally minimizes the slack c + <y, g(x)> - f(x) over
the box by MILP; negative minima yield new cuts (one per pooled
integer-feasible solution within a threshold), and the final shift
c* = c - s turns the relaxed optimum into a certified superhedge.

On the unbounded domain R^d_+ (Setting 1) radial constraints on y are
added up front so every slack minimization is bounded, and the MILP box
is a caller-supplied (or defaulted) truncation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import cpwa
from .cpwa import CpwaFunction
from .lp import LinearProgram, solve_lp
from .milp import MilpOptions, solve_milp
from .encoding import encode_min, minimize_over_box
from . import radial as radial_mod

SUPPORT_ROUNDING = 4  # support points rounded to multiples of 1e-4
MAX_ITERATIONS = 10000


@dataclass(frozen=True)
class Box:
    xbar: tuple

    def __post_init__(self):
        if any(v <= 0 for v in self.xbar):
            raise ValueError("box must be strictly positive")


@dataclass(frozen=True)
class HalfSpacePositive:
    pass


@dataclass
class MarketInstance:
    dimension: int
    domain: object  # Box | HalfSpacePositive
    g: list  # of CpwaFunction
    bid: np.ndarray
    ask: np.ndarray

    def __post_init__(self):
        self.bid = np.asarray(self.bid, dtype=float)
        self.ask = np.asarray(self.ask, dtype=float)
        m = len(self.g)
        if self.bid.shape != (m,) or self.ask.shape != (m,):
            raise ValueError("bid/ask length must equal number of payoffs")
        bad = (~np.isfinite(self.bid) | ~np.isfinite(self.ask)).nonzero()[0]
        if bad.size:
            raise ValueError("instrument %d has a non-finite bid or ask"
                             % bad[0])
        if np.any(self.bid > self.ask + 1e-12):
            raise ValueError("bid must not exceed ask")
        for gj in self.g:
            if gj.dimension != self.dimension:
                raise ValueError("payoff dimension mismatch")

    @property
    def m(self):
        return len(self.g)

    def is_box(self):
        return isinstance(self.domain, Box)

    def box_array(self):
        if not self.is_box():
            raise ValueError("instance has no box domain")
        return np.asarray(self.domain.xbar, dtype=float)

    def to_json_dict(self):
        dom = ({"box": list(self.domain.xbar)} if self.is_box()
               else {"halfspace": True})
        return {"d": self.dimension, "domain": dom,
                "g": [cpwa.to_json_dict(gj) for gj in self.g],
                "bid": [float(v) for v in self.bid],
                "ask": [float(v) for v in self.ask]}

    @staticmethod
    def from_json_dict(obj):
        """to_json_dict's instance; ValueError names a bad field."""
        read = cpwa.json_field
        domain = HalfSpacePositive()
        if "box" in read(obj, "domain", dict):
            domain = Box(read(obj, "domain.box",
                              lambda v: tuple(map(float, v))))
        return MarketInstance(
            dimension=read(obj, "d", int), domain=domain,
            g=read(obj, "g", lambda v: [cpwa.from_json_dict(gj) for gj in v]),
            bid=read(obj, "bid"), ask=read(obj, "ask"))


@dataclass
class EcpOptions:
    epsilon: float = 1e-3
    tau: float = 0.1
    delta: float = 0.7
    xbar: np.ndarray = None  # Setting-1 MILP box
    phi_low: float = None  # verified lower bound on phi(f)
    initial_support: list = field(default_factory=list)


@dataclass
class BoundsResult:
    phi_lb: float
    phi_ub: float
    c_star: float
    y_star: np.ndarray
    support: list
    status: str  # "ok" | "unbounded_arbitrage"
    lp_count: int = 0
    milp_count: int = 0
    milp_nodes: int = 0
    iterations: int = 0
    wall_time: float = 0.0
    caveats: list = field(default_factory=list)

    def to_json_dict(self):
        return {"phi_lb": self.phi_lb, "phi_ub": self.phi_ub,
                "c_star": self.c_star,
                "y_star": [float(v) for v in self.y_star],
                "support": [[float(v) for v in x] for x in self.support],
                "status": self.status, "lp_count": self.lp_count,
                "milp_count": self.milp_count,
                "iterations": self.iterations,
                "wall_time": self.wall_time, "caveats": self.caveats}


def price_pi(y, instance: MarketInstance) -> float:
    """Cost of entering portfolio y at ask (long) and bid (short)."""
    y = np.asarray(y, dtype=float)
    yp = np.maximum(y, 0.0)
    yn = np.maximum(-y, 0.0)
    return float(yp @ instance.ask - yn @ instance.bid)


def default_xbar(instance: MarketInstance, f: CpwaFunction) -> np.ndarray:
    """Fallback MILP truncation box for the half-space domain: ten times
    the largest offset magnitude across all payoffs."""
    mag = 1.0
    for fn in list(instance.g) + [f]:
        for t in fn.terms:
            for _, b in t.pieces:
                mag = max(mag, abs(b))
    return np.full(instance.dimension, 10.0 * mag)


def _milp_box(instance, f, opts_xbar):
    if instance.is_box():
        return instance.box_array(), False
    if opts_xbar is not None:
        return np.asarray(opts_xbar, dtype=float), False
    return default_xbar(instance, f), True


def dominating_cash(instance: MarketInstance, f: CpwaFunction) -> float:
    """c0 = max(0, max of f over the MILP box), so that the cash hedge
    (c0, 0) dominates f there."""
    box, _ = _milp_box(instance, f, None)
    _, res = minimize_over_box(cpwa.linear_combination([-1.0], [f]), box)
    return float(max(0.0, -res.incumbent_value))


class CutSet:
    """Feasibility cuts c + <y, g(x)> >= f(x) at support points x.

    A point is rounded to SUPPORT_ROUNDING decimals (unless added
    exactly) and clipped to the box; a point already in the set is not
    added again.  Cut i has support point x[i], instrument payoffs gx[i]
    and target payoff fx[i]."""

    def __init__(self, instance: MarketInstance, f: CpwaFunction, box):
        self.g = instance.g
        self._g_at = cpwa.Stacked(instance.g)
        self.f = f
        self.box = box
        self.x = []
        self.gx = []
        self.fx = []
        self._index = {}

    def __len__(self):
        return len(self.x)

    def add(self, x, rounded=True):
        """Returns (index of the cut at x, whether it is new)."""
        x = np.asarray(x, dtype=float)
        if rounded:
            x = np.round(x, SUPPORT_ROUNDING)
        x = np.clip(x, 0.0, self.box)
        key = tuple(x)
        i = self._index.get(key)
        if i is not None:
            return i, False
        self._index[key] = i = len(self.x)
        self.x.append(x)
        self.gx.append(self._g_at(x))
        self.fx.append(cpwa.evaluate(self.f, x))
        return i, True

    def row(self, idx, n):
        """Coefficients over c | y+ | y- of cut idx, zero-padded to n: one
        row for an index, a block of rows for a sequence of indices."""
        m = len(self.g)
        gx = np.array(self.gx, dtype=float).reshape(len(self.gx), m)[idx]
        coeffs = np.zeros(gx.shape[:-1] + (n,))
        coeffs[..., 0] = 1.0
        coeffs[..., 1:1 + m] = gx
        coeffs[..., 1 + m:1 + 2 * m] = -gx
        return coeffs


def compute_lower_phi(instance: MarketInstance, f: CpwaFunction,
                      portfolio=None, xbar=None) -> float:
    """A valid lower bound on phi(f) from a sub-replicating portfolio
    (c0, y0) with c0 + <y0, g> >= -f, verified by a MILP minimization.

    With no portfolio given, f >= 0 is checked and (0, 0) is used."""
    box, _ = _milp_box(instance, f, xbar)
    if portfolio is None:
        _, res = minimize_over_box(f, box)
        if res.incumbent_value < -1e-9:
            raise ValueError(
                "f is not nonnegative (min %.6g at %s); supply a "
                "sub-replicating portfolio" %
                (res.incumbent_value, res.incumbent[:f.dimension]))
        return 0.0
    c0, y0 = portfolio
    y0 = np.asarray(y0, dtype=float)
    h = cpwa.linear_combination(list(y0) + [1.0], list(instance.g) + [f])
    _, res = minimize_over_box(h, box, extra_offset=c0)
    if res.incumbent_value < -1e-9:
        raise ValueError(
            "portfolio does not dominate -f (min %.6g at %s)" %
            (res.incumbent_value, res.incumbent[:f.dimension]))
    return float(-c0 - price_pi(y0, instance))


def solve_ecp(instance: MarketInstance, f: CpwaFunction,
              opts: EcpOptions = None) -> BoundsResult:
    if opts is None:
        opts = EcpOptions()
    t0 = time.monotonic()
    m = instance.m
    d = instance.dimension
    caveats = []
    box, defaulted = _milp_box(instance, f, opts.xbar)
    if defaulted:
        caveats.append("default-truncation-box")

    phi_low = opts.phi_low
    if phi_low is None:
        phi_low = compute_lower_phi(instance, f, xbar=box)

    template = cpwa.slack_template(instance.g, f)

    # variables: c | y+ (m) | y- (m) | eta blocks (Setting 1 only); all
    # rows are >=: the radial rows, the floor row, then one per cut
    n = 1 + 2 * m
    bounds = [(None, None)] + [(0.0, None)] * (2 * m)
    blocks, rhs = [], []
    if not instance.is_box():
        system = radial_mod.generate(cpwa.radial_template(template))
        eta0 = n
        n += system.aux_count
        bounds.extend([(0.0, None)] * system.aux_count)
        for blk in system.blocks:
            n_eta = blk.E.shape[1]
            block = np.zeros((blk.Y.shape[0], n))
            block[:, 1:1 + m] = blk.Y
            block[:, 1 + m:1 + 2 * m] = -blk.Y
            block[:, eta0:eta0 + n_eta] = blk.E
            blocks.append(block)
            rhs.append(blk.rhs)
            eta0 += n_eta

    obj = np.zeros(n)
    obj[0] = 1.0
    obj[1:1 + m] = instance.ask
    obj[1 + m:1 + 2 * m] = -instance.bid
    fixed_A = np.vstack(blocks + [obj])
    fixed_b = np.concatenate(rhs + [[phi_low - opts.tau]])
    cuts = CutSet(instance, f, box)
    for x in opts.initial_support:
        cuts.add(x)

    lp_count = 0
    milp_count = 0
    milp_nodes = 0
    s_r = None
    sol = None  # the last relaxed LP, the start of the next
    phi_r = None
    c_r = None
    y_r = None
    it = 0
    while True:
        it += 1
        if it > MAX_ITERATIONS:
            raise RuntimeError("iteration limit reached in cutting-plane "
                               "loop")
        A = np.vstack([fixed_A, cuts.row(range(len(cuts)), n)])
        b = np.concatenate([fixed_b, cuts.fx])
        sol = solve_lp(LinearProgram(obj, [(A, ">=", b)], bounds),
                       start=sol)
        lp_count += 1
        if sol.status != "optimal":
            raise RuntimeError("relaxed LP ended with status %s"
                               % sol.status)
        phi_r = sol.objective
        c_r = float(sol.x[0])
        y_r = sol.x[1:1 + m] - sol.x[1 + m:1 + 2 * m]

        slack_fn = cpwa.instantiate(template, y_r)
        enc = encode_min(slack_fn, box)
        res = solve_milp(enc.program,
                         MilpOptions(pool_threshold=opts.delta),
                         offset=enc.constant + c_r)
        milp_count += 1
        milp_nodes += res.nodes
        s_r = res.incumbent_value
        if s_r >= -opts.epsilon:
            break
        added = sum(cuts.add(x_full[:d])[1] for x_full, _ in res.pool)
        if added == 0:
            # rounding swallowed every new point; fall back to the exact
            # minimizer to guarantee progress
            if not cuts.add(res.incumbent[:d], rounded=False)[1]:
                raise RuntimeError("no progress: slack minimizer already "
                                   "cut but slack still below -epsilon")

    phi_lb = phi_r
    phi_ub = phi_r - s_r
    c_star = c_r - s_r
    status = "ok"
    if phi_ub < phi_low:
        status = "unbounded_arbitrage"
    return BoundsResult(phi_lb=phi_lb, phi_ub=phi_ub, c_star=c_star,
                        y_star=y_r, support=list(cuts.x), status=status,
                        lp_count=lp_count, milp_count=milp_count,
                        milp_nodes=milp_nodes, iterations=it,
                        wall_time=time.monotonic() - t0, caveats=caveats)


def verify_hedge(instance: MarketInstance, f: CpwaFunction, c_star,
                 y_star, box=None):
    """Global MILP check: min over the box of c* + <y*, g> - f."""
    if box is None:
        box = instance.box_array()
    h = cpwa.linear_combination(list(y_star) + [-1.0],
                                list(instance.g) + [f])
    _, res = minimize_over_box(h, box, extra_offset=c_star)
    return res.incumbent_value
