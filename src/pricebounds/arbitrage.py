"""Arbitrage detection and quote repair.

Detection prices the zero payoff: in a consistent market the cheapest
superhedge of f = 0 costs 0, so a run of the cutting-plane solver with
f = 0 that certifies an upper bound below zero exhibits a portfolio
with nonnegative payoff and strictly negative cost, an arbitrage.

Repair takes a single-asset call/put quote chain and finds the smallest
total price adjustment (l1 norm, to encourage sparsity) that admits a
discrete pricing measure supported on {0, k_1, ..., k_m, xbar} with
every atom's mass at least a small floor eta.  Pricing all quotes
inside their (adjusted) bands, the measure certifies consistency of the
repaired chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cpwa
from .lp import LinearProgram, solve_lp
from .ecp import (MarketInstance, Box, HalfSpacePositive, EcpOptions,
                  solve_ecp, verify_hedge, price_pi, _milp_box)
from .accp import AccpOptions, solve_accp

ETA_DEFAULT = 1e-6
# an arbitrage must cost less than -COST_TOL per unit of the largest ask:
# on a consistent market rounding in the LPs leaves the zero payoff's
# superhedge a cost of order 1e-17 on either side of zero
COST_TOL = 1e-9


@dataclass
class OptionChain:
    strikes: np.ndarray
    call_bid: np.ndarray
    call_ask: np.ndarray
    put_bid: np.ndarray
    put_ask: np.ndarray
    xbar: float = None  # truncation bound; defaults to 2 * max strike

    def __post_init__(self):
        self.strikes = np.asarray(self.strikes, dtype=float)
        self.call_bid = np.asarray(self.call_bid, dtype=float)
        self.call_ask = np.asarray(self.call_ask, dtype=float)
        self.put_bid = np.asarray(self.put_bid, dtype=float)
        self.put_ask = np.asarray(self.put_ask, dtype=float)
        m = len(self.strikes)
        for v in (self.call_bid, self.call_ask, self.put_bid,
                  self.put_ask):
            if v.shape != (m,):
                raise ValueError("quote vectors must match strikes")
        if m == 0:
            raise ValueError("chain must contain at least one strike")
        if self.strikes[0] <= 0 or np.any(np.diff(self.strikes) <= 0):
            raise ValueError("strikes must be positive and strictly "
                             "increasing")
        if (np.any(self.call_bid > self.call_ask + 1e-12) or
                np.any(self.put_bid > self.put_ask + 1e-12)):
            raise ValueError("bid must not exceed ask")
        if self.xbar is None:
            self.xbar = 2.0 * float(self.strikes[-1])
        if self.xbar <= self.strikes[-1]:
            raise ValueError("xbar must exceed the largest strike")

    @property
    def m(self):
        return len(self.strikes)

    def to_json_dict(self):
        return {"strikes": [float(k) for k in self.strikes],
                "call": {"bid": [float(v) for v in self.call_bid],
                         "ask": [float(v) for v in self.call_ask]},
                "put": {"bid": [float(v) for v in self.put_bid],
                        "ask": [float(v) for v in self.put_ask]},
                "xbar": float(self.xbar)}

    @staticmethod
    def from_json_dict(obj):
        """to_json_dict's chain; ValueError names a bad field."""
        read = cpwa.json_field
        return OptionChain(
            strikes=read(obj, "strikes"), call_bid=read(obj, "call.bid"),
            call_ask=read(obj, "call.ask"), put_bid=read(obj, "put.bid"),
            put_ask=read(obj, "put.ask"), xbar=None
            if obj.get("xbar") is None else read(obj, "xbar", float))


@dataclass
class RepairResult:
    chain: OptionChain  # adjusted quotes
    v_call_minus: np.ndarray  # bid reductions
    v_call_plus: np.ndarray  # ask increases
    v_put_minus: np.ndarray
    v_put_plus: np.ndarray
    support: np.ndarray  # {0, k_1, ..., k_m, xbar}
    probabilities: np.ndarray  # certificate measure masses
    objective: float  # total adjustment (LP optimum)
    min_mass: float

    @property
    def num_adjusted(self):
        tol = 1e-9
        return int(sum(np.sum(v > tol) for v in
                       (self.v_call_minus, self.v_call_plus,
                        self.v_put_minus, self.v_put_plus)))

    @property
    def max_change(self):
        return float(max(v.max(initial=0.0) for v in
                         (self.v_call_minus, self.v_call_plus,
                          self.v_put_minus, self.v_put_plus)))

    def certificate_call_price(self, strike):
        return float(np.sum(self.probabilities *
                            np.maximum(self.support - strike, 0.0)))

    def certificate_put_price(self, strike):
        return float(np.sum(self.probabilities *
                            np.maximum(strike - self.support, 0.0)))


def filter_outliers(chain: OptionChain, threshold) -> tuple:
    """Drop strikes whose mid quote violates the domain-implied price
    bounds (call in [0, xbar - k], put in [0, k]) by more than
    `threshold`.  Returns (filtered chain, dropped strike indices)."""
    keep = []
    dropped = []
    for j, k in enumerate(chain.strikes):
        call_mid = 0.5 * (chain.call_bid[j] + chain.call_ask[j])
        put_mid = 0.5 * (chain.put_bid[j] + chain.put_ask[j])
        bad = (call_mid < -threshold or
               call_mid > max(chain.xbar - k, 0.0) + threshold or
               put_mid < -threshold or put_mid > k + threshold)
        (dropped if bad else keep).append(j)
    if not keep:
        raise ValueError("outlier filter removed every strike")
    keep = np.array(keep, dtype=int)
    return OptionChain(strikes=chain.strikes[keep],
                       call_bid=chain.call_bid[keep],
                       call_ask=chain.call_ask[keep],
                       put_bid=chain.put_bid[keep],
                       put_ask=chain.put_ask[keep],
                       xbar=chain.xbar), list(dropped)


def repair_chain(chain: OptionChain, eta=ETA_DEFAULT,
                 outlier_threshold=None) -> RepairResult:
    """Minimal l1 adjustment of the chain's quotes admitting a discrete
    pricing measure with all masses >= eta.

    Variable layout: v_call_minus | v_call_plus | v_put_minus |
    v_put_plus (m each, >= 0) | p_0 .. p_{m+1} (>= eta)."""
    if outlier_threshold is not None:
        chain, _ = filter_outliers(chain, outlier_threshold)
    m = chain.m
    k = chain.strikes
    xbar = chain.xbar
    support = np.concatenate([[0.0], k, [xbar]])
    n = 4 * m + (m + 2)
    p0 = 4 * m

    obj = np.zeros(n)
    obj[:4 * m] = 1.0
    bounds = [(0.0, None)] * (4 * m) + [(float(eta), None)] * (m + 2)

    rows = [(np.concatenate([np.zeros(4 * m), np.ones(m + 2)]), "=", 1.0)]
    call_pay = np.maximum(support[None, :] - k[:, None], 0.0)  # m x (m+2)
    put_pay = np.maximum(k[:, None] - support[None, :], 0.0)
    for j in range(m):
        lo = np.zeros(n)
        lo[p0:] = call_pay[j]
        lo[j] = 1.0  # + v_call_minus_j
        rows.append((lo, ">=", float(chain.call_bid[j])))
        hi = np.zeros(n)
        hi[p0:] = call_pay[j]
        hi[m + j] = -1.0  # - v_call_plus_j
        rows.append((hi, "<=", float(chain.call_ask[j])))
        lo = np.zeros(n)
        lo[p0:] = put_pay[j]
        lo[2 * m + j] = 1.0
        rows.append((lo, ">=", float(chain.put_bid[j])))
        hi = np.zeros(n)
        hi[p0:] = put_pay[j]
        hi[3 * m + j] = -1.0
        rows.append((hi, "<=", float(chain.put_ask[j])))

    sol = solve_lp(LinearProgram(obj, rows, bounds))
    if sol.status != "optimal":
        raise ValueError("repair LP is %s; eta=%g may be too large"
                         % (sol.status, eta))
    vcm = np.maximum(sol.x[:m], 0.0)
    vcp = np.maximum(sol.x[m:2 * m], 0.0)
    vpm = np.maximum(sol.x[2 * m:3 * m], 0.0)
    vpp = np.maximum(sol.x[3 * m:4 * m], 0.0)
    p = sol.x[p0:]
    adjusted = OptionChain(strikes=k,
                           call_bid=chain.call_bid - vcm,
                           call_ask=chain.call_ask + vcp,
                           put_bid=chain.put_bid - vpm,
                           put_ask=chain.put_ask + vpp,
                           xbar=xbar)
    return RepairResult(chain=adjusted, v_call_minus=vcm, v_call_plus=vcp,
                        v_put_minus=vpm, v_put_plus=vpp, support=support,
                        probabilities=p, objective=float(sol.objective),
                        min_mass=float(p.min()))


def chain_to_instance(chain: OptionChain) -> MarketInstance:
    """Single-asset box market holding the chain's calls and puts."""
    g = ([cpwa.vanilla_call(1, 0, float(k)) for k in chain.strikes] +
         [cpwa.vanilla_put(1, 0, float(k)) for k in chain.strikes])
    bid = np.concatenate([chain.call_bid, chain.put_bid])
    ask = np.concatenate([chain.call_ask, chain.put_ask])
    return MarketInstance(dimension=1, domain=Box((float(chain.xbar),)),
                          g=g, bid=bid, ask=ask)


@dataclass
class DetectionResult:
    arbitrage_free: bool
    strategy: tuple = None  # (c_star, y_star) when arbitrage found
    phi_lb: float = 0.0
    phi_ub: float = 0.0
    cost: float = None  # c_star + pi(y_star) < 0 when arbitrage found
    domination_slack: float = None  # MILP-certified min of c* + <y*, g>

    def to_json_dict(self):
        out = {"arbitrage_free": self.arbitrage_free,
               "phi_lb": self.phi_lb, "phi_ub": self.phi_ub}
        if self.strategy is not None:
            c, y = self.strategy
            out["strategy"] = {"c": float(c),
                               "y": [float(v) for v in y]}
            out["cost"] = self.cost
            out["domination_slack"] = self.domination_slack
        return out


def detect(instance: MarketInstance, epsilon=1e-3,
           xbar=None) -> DetectionResult:
    """Price f = 0 with both target bounds pinned at 0; a certified
    upper bound below zero is an arbitrage, and the shifted portfolio
    (c*, y*) is returned after a MILP domination check."""
    f = cpwa.zero_function(instance.dimension)
    if instance.is_box():
        res, _ = solve_accp(instance, f, AccpOptions(
            epsilon=epsilon, phi_low=0.0, phi_high=0.0,
            initial_portfolio=(0.0, np.zeros(instance.m))))
        box = instance.box_array()
    else:
        res = solve_ecp(instance, f, EcpOptions(
            epsilon=epsilon, phi_low=0.0, xbar=xbar))
        # ECP's truncation box; its radial rows cover growth beyond it
        box = _milp_box(instance, f, xbar)[0]
    if res.status != "unbounded_arbitrage":
        return DetectionResult(arbitrage_free=True, phi_lb=res.phi_lb,
                               phi_ub=res.phi_ub)
    slack = verify_hedge(instance, f, res.c_star, res.y_star, box=box)
    c_star = res.c_star
    if slack < 0:
        # lift the constant until the payoff is certified nonnegative
        c_star = res.c_star - slack
        slack = 0.0
    cost = c_star + price_pi(res.y_star, instance)
    if cost >= -COST_TOL * float(np.abs(instance.ask).max(initial=1.0)):
        # the lift consumed the negative cost, or rounding made it; no
        # certified strategy
        return DetectionResult(arbitrage_free=True, phi_lb=res.phi_lb,
                               phi_ub=res.phi_ub)
    return DetectionResult(arbitrage_free=False,
                           strategy=(float(c_star), res.y_star),
                           phi_lb=res.phi_lb, phi_ub=res.phi_ub,
                           cost=float(cost),
                           domination_slack=float(slack))
