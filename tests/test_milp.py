import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from pricebounds.lp import LinearProgram, solve_lp
from pricebounds.milp import (MixedIntegerProgram, MilpOptions,
                              MilpResult, solve_milp)
from pricebounds.encoding import minimize_over_box
from pricebounds import cpwa
from conftest import rng_for


def brute_force(p: MixedIntegerProgram):
    """Enumerate all binary assignments, solving an LP for each."""
    best = (np.inf, None)
    feasible = False
    for assign in itertools.product((0.0, 1.0),
                                    repeat=len(p.binary_vars)):
        bounds = list(p.base.var_bounds)
        for j, v in zip(p.binary_vars, assign):
            bounds[j] = (v, v)
        sol = solve_lp(LinearProgram(p.base.objective, p.base.rows,
                                     bounds))
        if sol.status == "optimal":
            feasible = True
            if sol.objective < best[0]:
                best = (sol.objective, sol.x)
    return best if feasible else None


def test_continuous_program_matches_lp():
    p = MixedIntegerProgram(
        LinearProgram([1.0, -1.0],
                      [(np.array([1.0, 1.0]), "<=", 2.0)],
                      [(0.0, 3.0), (0.0, 3.0)]), [])
    res = solve_milp(p)
    assert res.status == "optimal"
    assert res.incumbent_value == pytest.approx(-2.0, abs=1e-9)


def test_three_binary_knapsack():
    p = MixedIntegerProgram(
        LinearProgram([-1.0, -2.0, -3.0],
                      [(np.ones(3), "<=", 2.0)],
                      [(0.0, 1.0)] * 3), [0, 1, 2])
    res = solve_milp(p, MilpOptions(rel_gap=1e-9))
    assert res.incumbent_value == pytest.approx(-5.0, abs=1e-9)
    assert np.round(res.incumbent).tolist() == [0, 1, 1]


def test_negative_call_minimum():
    h = cpwa.linear_combination([-1.0], [cpwa.vanilla_call(1, 0, 1.0)])
    _, res = minimize_over_box(h, [10.0])
    assert res.incumbent_value == pytest.approx(-9.0, abs=1e-8)
    assert res.incumbent[0] == pytest.approx(10.0, abs=1e-6)


def _random_milp(rng):
    nb = int(rng.integers(1, 7))
    nc = int(rng.integers(0, 5))
    n = nb + nc
    c = rng.uniform(-2, 2, size=n)
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        a = rng.uniform(-2, 2, size=n)
        rel = rng.choice(["<=", ">="])
        b = float(rng.uniform(-1, 3))
        rows.append((a, rel, b))
    bounds = ([(0.0, 1.0)] * nb +
              [(0.0, float(rng.uniform(1, 4))) for _ in range(nc)])
    return MixedIntegerProgram(LinearProgram(c, rows, bounds),
                               list(range(nb)))


def test_random_milps_vs_brute_force():
    rng = rng_for(301)
    for trial in range(200):
        p = _random_milp(rng)
        res = solve_milp(p, MilpOptions(rel_gap=1e-9))
        ref = brute_force(p)
        if ref is None:
            assert res.status == "infeasible", trial
            continue
        assert res.incumbent_value == pytest.approx(ref[0], abs=1e-6), \
            trial
        assert res.best_bound <= res.incumbent_value + 1e-9


def test_pool_soundness_and_threshold():
    rng = rng_for(302)
    checked = 0
    for _ in range(50):
        p = _random_milp(rng)
        res = solve_milp(p, MilpOptions(rel_gap=1e-9,
                                        pool_threshold=0.7))
        if res.status == "infeasible":
            continue
        for x, v in res.pool:
            checked += 1
            assert v == pytest.approx(p.base.objective @ x, abs=1e-7)
            for a, rel, b in p.base.rows:
                lhs = a @ x
                if rel == "<=":
                    assert lhs <= b + 1e-6
                elif rel == ">=":
                    assert lhs >= b - 1e-6
                else:
                    assert lhs == pytest.approx(b, abs=1e-6)
            xb = x[p.binary_vars]
            assert np.abs(xb - np.round(xb)).max(initial=0.0) <= 1e-5
        assert any(abs(v - res.incumbent_value) <= 1e-9
                   for _, v in res.pool)
    assert checked > 0


def test_offset_shifts_all_values():
    p = MixedIntegerProgram(
        LinearProgram([-1.0], [(np.array([1.0]), "<=", 1.0)],
                      [(0.0, 1.0)]), [0])
    res = solve_milp(p, offset=5.0)
    assert res.incumbent_value == pytest.approx(4.0, abs=1e-9)
    assert res.best_bound == pytest.approx(4.0, abs=1e-9)
    assert all(v >= 3.9 for _, v in res.pool)


def test_node_limit_returns_bounds():
    rng = rng_for(303)
    p = _random_milp(rng)
    res = solve_milp(p, MilpOptions(rel_gap=1e-12, node_limit=1))
    assert res.status in ("node_limit", "optimal", "gap_reached",
                          "infeasible")
    if res.status == "node_limit" and res.incumbent_value is not None:
        assert res.best_bound <= res.incumbent_value + 1e-9


def test_binary_bound_validation():
    with pytest.raises(ValueError):
        MixedIntegerProgram(
            LinearProgram([1.0], [], [(0.0, 2.0)]), [0])


def test_random_milps_vs_highs():
    """Branch and bound with warm-started node LPs against scipy's HiGHS
    MILP on random programs with up to 12 binaries."""
    rng = rng_for(304)
    infeasible = 0
    nodes = []
    for trial in range(80):
        nb = int(rng.integers(4, 13))
        nc = int(rng.integers(0, 9))
        n = nb + nc
        A = rng.uniform(-2, 2, size=(int(rng.integers(2, 13)), n))
        A[rng.uniform(size=A.shape) < 0.3] = 0.0
        lo_row = rng.uniform(-2, 1.5, size=len(A))
        hi_row = lo_row + rng.uniform(0.2, 3, size=len(A))
        lo_row[rng.uniform(size=len(A)) < 0.4] = -np.inf
        rows = []
        for a, l, h in zip(A, lo_row, hi_row):
            rows.append((a, "<=", float(h)))
            if np.isfinite(l):
                rows.append((a, ">=", float(l)))
        bounds = ([(0.0, 1.0)] * nb +
                  [(0.0, float(rng.uniform(1, 4))) for _ in range(nc)])
        c = rng.uniform(-2, 2, size=n)
        res = solve_milp(MixedIntegerProgram(LinearProgram(c, rows, bounds),
                                             list(range(nb))),
                         MilpOptions(rel_gap=1e-9))
        ref = milp(c, constraints=LinearConstraint(A, lo_row, hi_row),
                   integrality=[1] * nb + [0] * nc,
                   bounds=Bounds([lo for lo, _ in bounds],
                                 [up for _, up in bounds]))
        if ref.status == 2:
            infeasible += 1
            assert res.status == "infeasible", trial
            continue
        assert ref.status == 0, trial
        assert res.incumbent_value == pytest.approx(ref.fun, abs=1e-6), trial
        nodes.append(res.nodes)
    # both verdicts occur, and some programs need a real search
    assert 0 < infeasible < 80
    assert max(nodes) > 10
