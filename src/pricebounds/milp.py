"""Branch-and-bound solver for LPs with binary variables.

Minimizes over the LP relaxation tree, branching on the most fractional
binary and exploring nodes in best-bound order.  Both children of a
node are solved right after it is popped, each re-optimized from its
optimal basis by the bounded-variable dual simplex, starting from
copies of the node's basis inverse: the one the node's own re-solve
left on its solution once its residuals certified it, or, for the root
and a node without one, the inverse that the first child builds from a
factorization.  Pending nodes hold their inverses up to
WARM_STATE_BYTES.
Terminates on a relative-gap rule (p_bar - p_low)/|p_bar| <= rel_gap
(absolute gap rel_gap * 1e-6 when the incumbent value is 0) or on a node
limit.
Keeps a pool of integer-feasible solutions whose objective clears a
caller-supplied threshold fraction of the incumbent value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .lp import LinearProgram, solve_lp

INT_TOL = 1e-6
# pending nodes keep their LP's re-solve state, an m x m basis inverse,
# while these bytes of such states fit; a node over the budget keeps none,
# and its children start from one factorization of its basis
WARM_STATE_BYTES = 32 * 2**20


@dataclass
class MixedIntegerProgram:
    base: LinearProgram
    binary_vars: list

    def __post_init__(self):
        n = len(self.base.objective)
        for j in self.binary_vars:
            if not (0 <= j < n):
                raise ValueError("binary index out of range")
            if self.base.lo[j] < -1e-12 or self.base.hi[j] > 1 + 1e-12:
                raise ValueError("binary variable %d must be bounded "
                                 "in [0,1]" % j)


@dataclass
class MilpOptions:
    rel_gap: float = 1e-9
    node_limit: int = None
    pool_threshold: float = 1.0  # delta in (0, 1]


@dataclass
class MilpResult:
    status: str  # optimal | gap_reached | node_limit | infeasible
    incumbent: np.ndarray = None
    incumbent_value: float = None  # p_bar
    best_bound: float = None  # p_low
    pool: list = field(default_factory=list)  # of (x, value)
    nodes: int = 0


def _gap_met(p_bar, p_low, zeta):
    if p_bar == np.inf:
        return False
    if abs(p_bar) < 1e-300:
        return (p_bar - p_low) <= zeta * 1e-6
    return (p_bar - p_low) / abs(p_bar) <= zeta


def solve_milp(p: MixedIntegerProgram, opts: MilpOptions = None,
               offset=0.0) -> MilpResult:
    """All reported values (incumbent, bound, pool) include `offset`."""
    if opts is None:
        opts = MilpOptions()
    binaries = list(p.binary_vars)
    bset = np.array(sorted(binaries), dtype=int)

    def node_lp(fixed, parent=None):
        return solve_lp(p.base.fix(list(fixed), list(fixed.values())),
                        start=parent)

    root = node_lp({})
    if root.status == "infeasible":
        return MilpResult(status="infeasible", nodes=1)
    if root.status == "unbounded":
        raise RuntimeError("relaxation is unbounded")

    if not binaries:
        v = root.objective + offset
        return MilpResult(status="optimal", incumbent=root.x,
                          incumbent_value=v, best_bound=v,
                          pool=[(root.x, v)], nodes=1)

    counter = 0
    heap = [(root.objective, counter, {}, root)]
    m = len(p.base.b)
    states, max_states = 0, WARM_STATE_BYTES // (8 * m * m + 1)
    p_bar = np.inf
    incumbent = None
    raw_pool = []  # (x, value incl. offset)
    nodes = 0
    status = "optimal"

    while heap:
        bound, _, fixed, sol = heapq.heappop(heap)
        states -= sol.warm is not None
        p_low = bound + offset
        if _gap_met(p_bar, p_low, opts.rel_gap):
            status = "gap_reached" if p_bar - p_low > 1e-12 else "optimal"
            heapq.heappush(heap, (bound, -1, fixed, sol))
            break
        if bound + offset >= p_bar - 1e-12:
            continue
        nodes += 1
        if opts.node_limit is not None and nodes > opts.node_limit:
            status = "node_limit"
            heapq.heappush(heap, (bound, -1, fixed, sol))
            break
        xb = sol.x[bset]
        frac = np.abs(xb - np.round(xb))
        if frac.max(initial=0.0) <= INT_TOL:
            v = sol.objective + offset
            raw_pool.append((sol.x.copy(), v))
            if v < p_bar:
                p_bar = v
                incumbent = sol.x.copy()
            continue
        j = int(bset[np.argmax(frac)])
        for val in (0, 1):
            child_fixed = dict(fixed)
            child_fixed[j] = val
            child = node_lp(child_fixed, sol)
            if child.status == "infeasible":
                continue
            counter += 1
            if states < max_states:
                states += child.warm is not None
            else:
                child.warm = None
            heapq.heappush(heap, (child.objective, counter, child_fixed,
                                  child))

    if incumbent is None:
        if status in ("node_limit", "gap_reached"):
            p_low = min((b + offset for b, *_ in heap), default=np.inf)
            return MilpResult(status=status, best_bound=p_low, nodes=nodes)
        return MilpResult(status="infeasible", nodes=nodes)

    if heap:
        p_low = min(b + offset for b, *_ in heap)
        p_low = min(p_low, p_bar)
    else:
        p_low = p_bar

    pool = []
    seen = set()
    thr = opts.pool_threshold * p_bar if p_bar < 0 else p_bar
    for x, v in raw_pool:
        if v <= thr + 1e-9 or v <= p_bar + 1e-12:
            key = tuple(np.round(x, 9))
            if key not in seen:
                seen.add(key)
                pool.append((x, v))
    key = tuple(np.round(incumbent, 9))
    if key not in seen:
        pool.append((incumbent, p_bar))
    return MilpResult(status=status, incumbent=incumbent,
                      incumbent_value=p_bar, best_bound=p_low,
                      pool=pool, nodes=nodes)
