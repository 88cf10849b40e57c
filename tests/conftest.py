"""Shared test helpers: random function generators and independent
oracles (arrangement-vertex minimization, discretized measure LP)."""

import itertools

import numpy as np
import pytest

import pricebounds as pb
from pricebounds import cpwa
from pricebounds.encoding import Separation
from pricebounds.lp import LinearProgram, solve_lp


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_cpwa(rng, d, max_terms=4, max_pieces=3, coef_scale=2.0):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        sign = int(rng.choice([-1, 1]))
        pieces = []
        for _ in range(rng.integers(1, max_pieces + 1)):
            a = rng.uniform(-coef_scale, coef_scale, size=d)
            b = rng.uniform(-coef_scale, coef_scale)
            pieces.append((a, float(b)))
        terms.append((sign, pieces))
    return cpwa.make_function(d, terms)


def min_oracle(h, box, tol=1e-9):
    """Exact minimum of a CPWA function over [0, box] for d <= 2.

    The function is affine on each cell of the hyperplane arrangement
    cut out by the piece-crossing hyperplanes, so the minimum over the
    box is attained at an arrangement vertex (or box corner / edge
    crossing).  All candidate points are enumerated and evaluated."""
    box = np.asarray(box, dtype=float)
    d = h.dimension
    # crossing hyperplanes (a_i - a_j) . x = b_j - b_i within each term
    planes = []
    for t in h.terms:
        ps = [(np.asarray(a), float(b)) for a, b in t.pieces]
        for (ai, bi), (aj, bj) in itertools.combinations(ps, 2):
            nrm = ai - aj
            if np.abs(nrm).max(initial=0.0) > tol:
                planes.append((nrm, bj - bi))
    if d == 1:
        cands = [0.0, box[0]]
        for nrm, rhs in planes:
            x = rhs / nrm[0]
            if -tol <= x <= box[0] + tol:
                cands.append(min(max(x, 0.0), box[0]))
        pts = np.array(cands)[:, None]
    elif d == 2:
        # box edges as additional lines
        lines = list(planes) + [
            (np.array([1.0, 0.0]), 0.0), (np.array([1.0, 0.0]), box[0]),
            (np.array([0.0, 1.0]), 0.0), (np.array([0.0, 1.0]), box[1])]
        cands = [np.array([x, y]) for x in (0.0, box[0])
                 for y in (0.0, box[1])]
        for (n1, r1), (n2, r2) in itertools.combinations(lines, 2):
            A = np.stack([n1, n2])
            if abs(np.linalg.det(A)) < tol:
                continue
            p = np.linalg.solve(A, np.array([r1, r2]))
            if np.all(p >= -tol) and np.all(p <= box + tol):
                cands.append(np.clip(p, 0.0, box))
        pts = np.stack(cands)
    else:
        raise ValueError("oracle supports d <= 2 only")
    vals = cpwa.evaluate_many(h, pts)
    i = int(np.argmin(vals))
    return float(vals[i]), pts[i]


def function_separation(h, box):
    """h over [0, box] as minimize_over_box separates it: the slack of no
    portfolio against -h.  Called with (c, np.zeros(0), threshold), it
    returns the least of h + c at its candidate points, with their pool
    at threshold, or None."""
    return Separation([], cpwa.linear_combination([-1.0], [h]), box)


def function_candidates(h, box):
    """The candidate points at which function_separation values h over
    [0, box], each once in lexicographic order; None where there are
    none."""
    slack = function_separation(h, box)._slack
    return slack.points(slack.z)


def assert_integer_feasible(p, x, row_tol=1e-9, int_tol=0.0):
    """x holds the MILP p's rows by their sense within row_tol (1 +
    |b|_inf) and p's bounds, and is within int_tol of 0 or 1 on every
    binary."""
    q = p.base
    r = q.A @ x - q.b
    tol = row_tol * (1.0 + np.abs(q.b).max(initial=0.0))
    assert (r[q.sense < 0] <= tol).all()
    assert (r[q.sense > 0] >= -tol).all()
    assert (np.abs(r[q.sense == 0]) <= tol).all()
    assert (x >= q.lo).all() and (x <= q.hi).all()
    xb = x[p.binary_vars]
    assert (np.minimum(np.abs(xb), np.abs(xb - 1.0)) <= int_tol).all()


def negative_terms(program):
    """(zeta, deltas, iotas) per negative term of an encode_min program,
    read from its arrays: a term's iotas are the variables of one = row
    over binary variables only, and its zeta (objective -1) and its
    deltas (lower bound 0) are the variables just before them (see
    encode_min)."""
    p = program.base
    binary = np.zeros(len(p.objective), dtype=bool)
    binary[program.binary_vars] = True
    one_hot = (p.sense == 0) & ~(p.A[:, ~binary] != 0).any(axis=1)
    out = []
    for row in p.A[one_hot]:
        iotas = row.nonzero()[0].tolist()
        first, P = iotas[0], len(iotas)
        assert p.objective[first - P - 1] == -1.0
        assert (p.lo[first - P:first] == 0.0).all()
        out.append((first - P - 1, list(range(first - P, first)), iotas))
    return out


def grid_points(box, step):
    axes = [np.arange(0.0, b + step / 2, step) for b in box]
    return np.array(list(itertools.product(*axes)))


def grid_measure_lp(instance, f, pts, maximize=True):
    """Discretized dual: optimize the expectation of f over probability
    measures on the grid pricing every instrument inside its band.
    Returns (value, weights) or None if the grid admits no measure."""
    fx = cpwa.evaluate_many(f, pts)
    n = len(pts)
    rows = [(np.ones(n), "=", 1.0)]
    for j, gj in enumerate(instance.g):
        gx = cpwa.evaluate_many(gj, pts)
        rows.append((gx, ">=", float(instance.bid[j])))
        rows.append((gx, "<=", float(instance.ask[j])))
    obj = -fx if maximize else fx
    sol = solve_lp(LinearProgram(obj, rows, [(0.0, None)] * n))
    if sol.status != "optimal":
        return None
    val = -sol.objective if maximize else sol.objective
    return val, sol.x


def random_box_instance(rng, d, n_calls, box_hi=20.0, spread=0.01,
                        n_atoms=6, extra=()):
    """Setting-2 instance priced by two random discrete measures."""
    g = [pb.asset(d, i) for i in range(d)]
    for _ in range(n_calls):
        i = int(rng.integers(d))
        k = float(rng.integers(1, 11))
        g.append(pb.vanilla_call(d, i, k))
    g.extend(extra)
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


@pytest.fixture(scope="session")
def example_setting1_instance():
    """Single asset on the positive half-line quoted in [0, 1]."""
    return pb.MarketInstance(dimension=1, domain=pb.HalfSpacePositive(),
                             g=[pb.asset(1, 0)], bid=[0.0], ask=[1.0])


@pytest.fixture(scope="session")
def example_box_instance():
    """The same single-asset market truncated to [0, 100]."""
    return pb.MarketInstance(dimension=1, domain=pb.Box((100.0,)),
                             g=[pb.asset(1, 0)], bid=[0.0], ask=[1.0])
