"""Branch-and-bound solver for LPs with binary variables.

Minimizes over the LP relaxation tree, branching on the most fractional
binary and exploring nodes in best-bound order.  Both children of a
node are solved right after it is popped, each re-optimized from its
optimal basis by the bounded-variable dual simplex, starting from
copies of the node's basis inverse: the one the node's own solve, the
root's cold one included, left on its solution once its residuals
certified it, or, for a node that holds none, the inverse that the
first child builds from a factorization.  Pending nodes, the root
included, hold their inverses up to WARM_STATE_BYTES.
Terminates on a relative-gap rule (p_bar - p_low)/|p_bar| <= rel_gap
(absolute gap rel_gap * 1e-6 when the incumbent value is 0) or when no
node is left; a search that ends without an incumbent is infeasible.
Keeps a pool of integer-feasible solutions whose objective clears a
caller-supplied threshold fraction of the incumbent value (`_pool`,
which `encoding.CompiledSlack` pools its candidate points with too).

Incumbents and pool points come from integral node LP optima and, for a
program with a completion (`MixedIntegerProgram.complete`, which
`encoding.encode_min` sets), from the completed point of the root's and
of every feasible child's LP solution.  A completed point is used only
once it holds the program's rows within COMPLETION_TOL (1 + |b|_inf),
its bounds, and is exactly 0 or 1 on every binary, and is checked and
pooled once per search however many nodes complete to it.  The bound
p_low still comes from node LPs only.  Early incumbents prune nodes, and
let a loose rel_gap stop the search before the optimal node is popped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lp import LinearProgram, solve_lp

INT_TOL = 1e-6
# pending nodes keep their LP's re-solve state, an m x m basis inverse,
# while these bytes of such states fit; a node over the budget keeps none,
# and its children start from one factorization of its basis
WARM_STATE_BYTES = 32 * 2**20
# a completed point's row residuals, relative to 1 + |b|_inf
COMPLETION_TOL = 1e-9


@dataclass
class MixedIntegerProgram:
    base: LinearProgram
    binary_vars: list
    # maps a point of the LP relaxation to a candidate integer-feasible
    # point of the program; None where the program has no such map
    complete: Callable = None

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
    pool_threshold: float = 1.0  # delta in (0, 1]


@dataclass
class MilpResult:
    status: str  # optimal | gap_reached | infeasible
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


def _checker(q: LinearProgram, bset):
    """A test of whether x holds q's rows by their sense within
    COMPLETION_TOL (1 + |b|_inf), q's bounds, and is 0 or 1 at the
    indices bset."""
    eq, sign = q.sense == 0, -q.sense.astype(float)
    tol = COMPLETION_TOL * (1.0 + np.abs(q.b).max(initial=0.0))

    def holds(x):
        r = q.A @ x - q.b
        # by how much each row misses its sense
        miss = np.where(eq, np.abs(r), sign * r)
        # a binary within its bounds [0, 1] is 0 or 1 when it is integral
        return bool(miss.max(initial=0.0) <= tol
                    and (x >= q.lo).all() and (x <= q.hi).all()
                    and not (x[bset] % 1.0).any())
    return holds


def _pool(points, values, threshold):
    """The pool of a search whose points have these values: each point
    whose value clears the threshold fraction of the least value, or is
    within 1e-12 of it, once per key rounded to 9 decimals, in order, as
    (x, value)."""
    p_bar = values.min()
    thr = threshold * p_bar if p_bar < 0 else p_bar
    keep = (values <= thr + 1e-9) | (values <= p_bar + 1e-12)
    pool, seen = [], set()
    for i in np.flatnonzero(keep):
        x = points[i]
        key = tuple(np.round(x, 9))
        if key in seen:
            continue
        seen.add(key)
        pool.append((x, float(values[i])))
    return pool


def solve_milp(p: MixedIntegerProgram, opts: MilpOptions = None,
               offset=0.0) -> MilpResult:
    """All reported values (incumbent, bound, pool) include `offset`."""
    if opts is None:
        opts = MilpOptions()
    binaries = list(p.binary_vars)
    bset = np.array(sorted(binaries), dtype=int)
    holds = None if p.complete is None else _checker(p.base, bset)

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

    heap = []
    counter = 0
    m = len(p.base.b)
    states, max_states = 0, WARM_STATE_BYTES // (8 * m * m + 1)

    def push(fixed, sol):
        """Push a node, with its re-solve state while the budget holds."""
        nonlocal counter, states
        if states < max_states:
            states += sol.warm is not None
        else:
            sol.warm = None
        heapq.heappush(heap, (sol.objective, counter, fixed, sol))
        counter += 1

    push({}, root)
    p_bar = np.inf
    incumbent = None
    raw_x, raw_v = [], []  # offered points, and their values incl. offset
    nodes = 0
    status = "optimal"

    def offer(x, v):
        nonlocal p_bar, incumbent
        raw_x.append(x)
        raw_v.append(v)
        if v < p_bar:
            p_bar, incumbent = v, x

    completed = set()

    def offer_completion(x):
        if holds is None:
            return
        xc = p.complete(x)
        key = xc.tobytes()
        if key in completed:
            return  # this point was checked and offered already
        completed.add(key)
        if holds(xc):
            offer(xc, float(p.base.objective @ xc) + offset)

    offer_completion(root.x)

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
        xb = sol.x[bset]
        frac = np.abs(xb - np.round(xb))
        if frac.max(initial=0.0) <= INT_TOL:
            offer(sol.x.copy(), sol.objective + offset)
            continue
        j = int(bset[np.argmax(frac)])
        for val in (0, 1):
            child_fixed = dict(fixed)
            child_fixed[j] = val
            child = node_lp(child_fixed, sol)
            if child.status == "infeasible":
                continue
            offer_completion(child.x)
            push(child_fixed, child)

    if incumbent is None:
        return MilpResult(status="infeasible", nodes=nodes)
    p_low = min([b + offset for b, *_ in heap] + [p_bar])
    return MilpResult(status=status, incumbent=incumbent,
                      incumbent_value=p_bar, best_bound=p_low,
                      pool=_pool(raw_x, np.array(raw_v), opts.pool_threshold),
                      nodes=nodes)
