import json
import os

import numpy as np
import pytest
from scipy.optimize import linprog

from pricebounds import lp
from pricebounds.lp import (LinearProgram, LpSolution, solve_lp,
                            chebyshev_center, ConditioningError)
from conftest import rng_for


def test_simple_bound_problem():
    p = LinearProgram([1.0], [(np.array([1.0]), ">=", 3.0)],
                      [(None, 10.0)])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_degenerate_segment_objective():
    p = LinearProgram([-1.0, -1.0],
                      [(np.array([1.0, 1.0]), "<=", 1.0)],
                      [(0.0, None), (0.0, None)])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_infeasible():
    p = LinearProgram([1.0], [(np.array([1.0]), ">=", 1.0)],
                      [(None, 0.0)])
    assert solve_lp(p).status == "infeasible"


def test_unbounded_with_ray():
    p = LinearProgram([-1.0], [(np.array([1.0]), ">=", 0.0)],
                      [(0.0, None)])
    sol = solve_lp(p)
    assert sol.status == "unbounded"
    assert sol.ray is not None
    assert sol.ray @ np.array([-1.0]) < 0
    _assert_ray(p, sol.ray)


def test_unbounded_without_rows_has_a_ray():
    """With no row, or only empty ones, the cold start leaves each
    improving column at an artificial bound, and the first one's column
    is the ray."""
    for p, ray in [
            (LinearProgram([-1.0], [], [(0.0, None)]), [1.0]),
            (LinearProgram([-1.0], [(np.zeros(1), "<=", 1.0)],
                           [(0.0, None)]), [1.0]),
            (LinearProgram([0.5, 2.0], [(np.zeros(2), ">=", -1.0)],
                           [(0.0, 1.0), (None, 3.0)]), [0.0, -1.0]),
            (LinearProgram([1.0], [], [(None, None)]), [-1.0])]:
        assert _highs(p).status == 3
        sol = solve_lp(p)
        assert sol.status == "unbounded"
        assert sol.ray.tolist() == ray
        _assert_ray(p, sol.ray)


def test_ray_check_rejects_a_corrupted_ray(monkeypatch):
    """Every unbounded ray goes through its check; a ray that fails it is
    refused, and an unbounded verdict without a valid ray raises."""
    p = LinearProgram([-1.0, -1.0], [(np.array([1.0, -1.0]), ">=", -1.0)],
                      [(0.0, None), (0.0, None)])
    real = lp._ray
    seen = []

    def spy(r, q):
        seen.append((r, q))
        return real(r, q)

    monkeypatch.setattr(lp, "_ray", spy)
    sol = solve_lp(p)
    assert sol.status == "unbounded"
    _assert_ray(p, sol.ray)
    r, q = seen[-1]
    assert q is p and real(r, p) is not None
    assert real(-r, p) is None  # not improving
    assert real(np.array([0.0, 1.0]), p) is None  # leaves the row
    assert real(np.array([1.0, -0.5]), p) is None  # leaves a bound
    # a floor row equal to the objective bounds it below, so a direction
    # that the rows cannot tell from zero is no ray
    c = np.array([1.0, -1.0])
    floor = LinearProgram(c, [(c, ">=", -1.0)], [(None, None)] * 2)
    r = np.array([1.0, 1.0 + 1e-13])
    assert -2e-13 < c @ r < 0.0
    assert real(r, floor) is None
    monkeypatch.setattr(lp, "_ray", lambda *args: None)
    with pytest.raises(ConditioningError):
        solve_lp(p)
    with pytest.raises(ConditioningError):
        solve_lp(LinearProgram([-1.0], [], [(0.0, None)]))


def test_duality_gap_and_constraints_random(monkeypatch):
    rng = rng_for(201)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-2, 2, size=n)
        rows = []
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for _ in range(m):
            a = rng.uniform(-2, 2, size=n)
            b = float(rng.uniform(-1, 3))
            rel = rng.choice(["<=", ">=", "="])
            rows.append((a, rel, b))
            if rel == "<=":
                A_ub.append(a); b_ub.append(b)
            elif rel == ">=":
                A_ub.append(-a); b_ub.append(-b)
            else:
                A_eq.append(a); b_eq.append(b)
        bounds = [(0.0, float(rng.uniform(1, 5))) for _ in range(n)]
        sol = solve_lp(LinearProgram(c, rows, bounds))
        ref = linprog(c, A_ub=np.array(A_ub) if A_ub else None,
                      b_ub=b_ub or None,
                      A_eq=np.array(A_eq) if A_eq else None,
                      b_eq=b_eq or None, bounds=bounds, method="highs")
        if ref.status == 2:
            assert sol.status == "infeasible", trial
            continue
        assert ref.status == 0
        assert sol.status == "optimal", trial
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
        # primal feasibility
        for a, rel, b in rows:
            lhs = a @ sol.x
            if rel == "<=":
                assert lhs <= b + 1e-7
            elif rel == ">=":
                assert lhs >= b - 1e-7
            else:
                assert lhs == pytest.approx(b, abs=1e-7)
        # strong duality
        assert sol.dual_objective == pytest.approx(
            sol.objective, abs=1e-7 * (1 + abs(sol.objective)))
    # cold starts through artificial bounds: an optimum beyond the first
    # one (x0 = 1e7 with |b| = 0), reached after widening it; an optimum
    # on an unbounded optimal face, where a column left at one has zero
    # reduced cost and moves to zero; an unbounded program whose ray
    # leaves through one; an infeasible one with free columns, whose
    # Farkas vector is checked against their infinite bounds
    widened = []
    real_widen = lp._widen

    def widen(*args):
        widened.append(real_widen(*args))
        return widened[-1]

    monkeypatch.setattr(lp, "_widen", widen)
    free = [(None, None)] * 2
    for p, status in [
            (LinearProgram([-1.0, 0.0], [(np.array([1.0, -1e7]), "<=", 0.0)],
                           [(None, None), (0.0, 1.0)]), "optimal"),
            (LinearProgram([1.0, -1.0], [(np.array([1.0, -1.0]), ">=", 0.0)],
                           free), "optimal"),
            (LinearProgram([-1.0, 0.5], [(np.array([1.0, -1.0]), "<=", 1.0)],
                           free), "unbounded"),
            (LinearProgram([1.0, 1.0], [(np.ones(2), ">=", 1.0),
                                        (np.ones(2), "<=", 0.0)], free),
             "infeasible")]:
        ref, sol = _highs(p), solve_lp(p)
        assert ref.status == {"optimal": 0, "infeasible": 2,
                              "unbounded": 3}[status]
        assert sol.status == status
        if status == "optimal":
            _assert_solution(p, sol, ref.fun)
        elif status == "unbounded":
            _assert_ray(p, sol.ray)
        else:
            _assert_farkas(p, sol.farkas)
    assert widened == [True]


def test_determinism():
    rng = rng_for(202)
    c = rng.uniform(-1, 1, size=4)
    rows = [(rng.uniform(-1, 1, size=4), "<=", 1.0) for _ in range(3)]
    bounds = [(0.0, 5.0)] * 4
    s1 = solve_lp(LinearProgram(c, rows, bounds))
    s2 = solve_lp(LinearProgram(c, rows, bounds))
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


def test_conditioning_guard():
    p = LinearProgram([1.0, 1.0],
                      [(np.array([1e9, 1e-9]), "<=", 1.0)],
                      [(0.0, 1.0)] * 2)
    with pytest.raises(ConditioningError):
        solve_lp(p)


def _stack(rows):
    """(A, b) from rows (a, b) of A v >= b."""
    return np.array([a for a, _ in rows]), np.array([b for _, b in rows])


def test_block_rows_match_per_row_tuples():
    """Rows given as blocks, one per run of a relation, and as one tuple
    per row make the same program and the same solve."""
    rng = rng_for(206)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        runs = [(str(rel), int(rng.integers(1, 4))) for rel in
                rng.choice(["<=", ">=", "="], size=int(rng.integers(1, 4)))]
        m = sum(k for _, k in runs)
        A = rng.uniform(-2, 2, size=(m, n))
        b = rng.uniform(-1, 3, size=m)
        c = rng.uniform(-2, 2, size=n)
        bounds = [(0.0, float(rng.uniform(1, 5))) for _ in range(n)]
        blocks, per_row, i = [], [], 0
        for rel, k in runs:
            blocks.append((A[i:i + k], rel, b[i:i + k]))
            per_row += [(A[j], rel, b[j]) for j in range(i, i + k)]
            i += k
        p, q = LinearProgram(c, blocks, bounds), LinearProgram(c, per_row,
                                                                bounds)
        assert len(p.rows) == len(q.rows) == m
        s1, s2 = solve_lp(p), solve_lp(q)
        assert s1.status == s2.status, trial
        assert s1.iterations == s2.iterations, trial
        if s1.status == "optimal":
            assert np.array_equal(s1.x, s2.x), trial
            assert s1.objective == s2.objective, trial
            assert np.array_equal(s1.row_duals, s2.row_duals), trial
    # a scalar rhs holds for every row of its block
    p = LinearProgram(np.zeros(2), [(np.eye(2), "<=", 1.5)], [(0.0, None)] * 2)
    assert [(a.tolist(), rel, v) for a, rel, v in p.rows] == [
        ([1.0, 0.0], "<=", 1.5), ([0.0, 1.0], "<=", 1.5)]


def test_non_finite_input_is_rejected():
    row = [(np.array([1.0]), ">=", 1.0)]
    LinearProgram([1.0], row, [(0.0, None)])
    for objective, rows, bounds in [
            ([np.nan], row, [(0.0, None)]),
            ([1.0], [(np.array([np.nan]), ">=", 1.0)], [(0.0, None)]),
            ([1.0], [(np.array([np.inf]), "<=", 1.0)], [(0.0, None)]),
            ([1.0], [(np.array([1.0]), ">=", np.inf)], [(0.0, None)]),
            ([1.0], [(np.array([[1.0], [np.nan]]), ">=", [1.0, 2.0])],
             [(0.0, None)]),
            ([1.0], [(np.eye(1), ">=", [np.nan])], [(0.0, None)]),
            ([1.0], row, [(np.nan, None)]),
            ([1.0], row, [(0.0, np.nan)]),
            ([1.0], row, [(np.inf, None)]),
            ([1.0], row, [(None, -np.inf)])]:
        with pytest.raises(ValueError):
            LinearProgram(objective, rows, bounds)


def test_from_arrays_matches_rows_and_checks_input():
    rng = rng_for(207)
    A, b, c = rng.uniform(-2, 2, size=(3, 2)), rng.uniform(-1, 1, size=3), \
        rng.uniform(-1, 1, size=2)
    p = LinearProgram(c, [(A[:2], "<=", b[:2]), (A[2], "=", b[2])],
                      [(0.0, 1.0), (None, 2.0)])
    q = LinearProgram.from_arrays(c, A, b, [-1, -1, 0], [0.0, -np.inf],
                                  [1.0, 2.0])
    for name in ("objective", "A", "b", "sense", "lo", "hi"):
        u, v = getattr(p, name), getattr(q, name)
        assert u.dtype == v.dtype and np.array_equal(u, v), name
    for args in [(c, A, b, [-1, 2, 0], [0.0, 0.0], [1.0, 1.0]),
                 (c, A, b, [-1, 1], [0.0, 0.0], [1.0, 1.0]),
                 (c, A[:, :1], b, [-1, 1, 0], [0.0, 0.0], [1.0, 1.0]),
                 (c, A, np.full(3, np.nan), [0, 0, 0], [0.0, 0.0],
                  [1.0, 1.0]),
                 (c, A, b, [0, 0, 0], [0.0, 2.0], [1.0, 1.0])]:
        with pytest.raises(ValueError):
            LinearProgram.from_arrays(*args)


def test_inconsistent_empty_row_has_unit_certificate():
    for rel, rhs, y in ((">=", 1.0, 1.0), ("<=", -1.0, -1.0),
                        ("=", -2.0, -1.0)):
        p = LinearProgram([1.0, 1.0], [(np.array([1.0, 0.0]), "<=", 5.0),
                                       (np.zeros(2), rel, rhs)],
                          [(0.0, None)] * 2)
        sol = solve_lp(p)
        assert sol.status == "infeasible"
        assert sol.farkas.tolist() == [0.0, y]
        _assert_farkas(p, sol.farkas)


def test_farkas_check_rejects_a_corrupted_certificate(monkeypatch):
    """The cold solve's Farkas vector goes through the same check as the
    warm one; a vector that fails it is refused, and a cold verdict
    without a valid vector raises."""
    p = LinearProgram([1.0, 1.0], [(np.array([1.0, 1.0]), ">=", 3.0),
                                   (np.array([1.0, -1.0]), "<=", 5.0)],
                      [(0.0, 1.0)] * 2)
    real = lp._farkas
    seen = []

    def spy(y, *args):
        seen.append((y, args))
        return real(y, *args)

    monkeypatch.setattr(lp, "_farkas", spy)
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    _assert_farkas(p, sol.farkas)
    y, args = seen[-1]
    assert real(y, *args) is not None
    assert real(-y, *args) is None
    bent = y.copy()
    bent[np.argmin(bent)] += 2.0 * np.abs(y).max()
    assert real(bent, *args) is None
    monkeypatch.setattr(lp, "_farkas", lambda *args: None)
    with pytest.raises(ConditioningError):
        solve_lp(p)


def test_farkas_check_uses_the_column_bounds():
    """y proves A x = b infeasible only if the largest y.A x over the
    column bounds falls short of y.b."""
    A, b = np.array([[1.0, 1.0, -1.0]]), np.array([3.0])
    lo, hi = np.zeros(3), np.array([1.0, 1.0, np.inf])
    assert lp._farkas(np.array([2.0]), A, b, lo, hi, 1e-9).tolist() == [1.0]
    for y, lo_, hi_ in [
            (np.array([1.0]), lo, np.array([1.0, 2.0, np.inf])),  # reaches 3
            (np.array([1.0]), lo, np.array([1.0, np.inf, np.inf])),
            (np.array([1.0]), np.array([0.0, 0.0, -1.0]), hi),  # -x2 <= 1
            (np.array([-1.0]), lo, hi)]:
        assert lp._farkas(y, A, b, lo_, hi_, 1e-9) is None
    # a column pushed toward an infinite bound is ignored only while
    # |y.A| is within FARKAS_TOL
    A2 = np.array([[1.0, 1.0, 0.5 * lp.FARKAS_TOL]])
    assert lp._farkas(np.array([1.0]), A2, b, lo, hi, 1e-9) is not None
    A2[0, 2] = 2.0 * lp.FARKAS_TOL
    assert lp._farkas(np.array([1.0]), A2, b, lo, hi, 1e-9) is None


def test_warm_farkas_check_falls_back_and_raises(monkeypatch):
    """A re-solve's infeasible verdict carries a certificate checked over
    the column bounds; when the check fails the solve falls back to the
    cold solve, whose own failed check raises."""
    p = LinearProgram([1.0, 1.0], [(np.array([1.0, 1.0]), ">=", 1.5)],
                      [(0.0, 1.0)] * 2)
    parent = solve_lp(p)
    child = p.fix([0], [0.0])
    real = lp._farkas
    seen = []

    def spy(y, *args):
        seen.append((y, args))
        return real(y, *args)

    monkeypatch.setattr(lp, "_farkas", spy)
    sol = solve_lp(child, start=parent)
    assert sol.status == "infeasible" and len(seen) == 1
    _assert_farkas(child, sol.farkas)
    y, (A, b, lo, hi, margin) = seen[0]
    assert real(y, A, b, lo, hi, margin) is not None
    widened = hi.copy()
    widened[0] = 1.0  # with x0 free to reach 1 the row holds
    assert real(y, A, b, lo, widened, margin) is None
    monkeypatch.setattr(lp, "_farkas", lambda *args: None)
    with pytest.raises(ConditioningError):
        solve_lp(child, start=parent)


def test_chebyshev_unit_square():
    rows = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), -1.0),
            (np.array([0.0, 1.0]), 0.0), (np.array([0.0, -1.0]), -1.0)]
    center, radius, _ = chebyshev_center(*_stack(rows))
    assert center == pytest.approx([0.5, 0.5], abs=1e-8)
    assert radius == pytest.approx(0.5, abs=1e-8)


def test_chebyshev_right_triangle_incenter():
    rows = [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0),
            (np.array([-1.0, -1.0]), -1.0)]
    center, radius, _ = chebyshev_center(*_stack(rows))
    r = 1.0 / (2.0 + np.sqrt(2.0))
    assert radius == pytest.approx(r, abs=1e-8)
    assert center == pytest.approx([r, r], abs=1e-8)


def test_chebyshev_infeasible():
    rows = [(np.array([1.0]), 1.0), (np.array([-1.0]), 0.0)]
    assert chebyshev_center(*_stack(rows)) is None


def test_chebyshev_scaled_rows_ball_feasible():
    rng = rng_for(203)
    for _ in range(10):
        rows = [(np.array([1.0, 0.0]), -3.0),
                (np.array([-1.0, 0.0]), -3.0),
                (np.array([0.0, 1.0]), -3.0),
                (np.array([0.0, -1.0]), -3.0)]
        for _ in range(6):
            a = rng.uniform(-1, 1, size=2)
            rows.append((a, float(rng.uniform(-2, -0.5))))
        out = chebyshev_center(*_stack(rows))
        if out is None:
            continue
        center, radius, _ = out
        assert radius >= 0
        for a, b in rows:
            # every point of the inscribed ball satisfies the row
            assert a @ center - np.linalg.norm(a) * radius >= b - 1e-7


def test_chebyshev_warm_matches_cold(monkeypatch):
    """ACCP-like sequences of Chebyshev LPs in a box, each re-solved from
    the last nonempty one: the band [lo, mid] halves a bracket [lo, hi]
    on the cost obj.v; a center adds cuts that cut it off (but keep a
    fixed point x_in) and lowers hi toward its cost, not below x_in's,
    and drops some of the cuts that its ball clears; an empty band
    raises lo to the least cost over the cuts.  Every sequence ends on
    an empty band.  The warm radius equals the cold one, the warm
    center's ball lies in the polytope (centers are not unique), and
    empty verdicts agree and carry a valid certificate."""
    answered = {"optimal": 0, "infeasible": 0}
    warm = lp._solve_warm

    def counting(p, start, *args):
        sol = warm(p, start, *args)
        answered[sol.status] += 1
        if sol.status == "infeasible":
            _assert_farkas(p, sol.farkas)
        return sol

    monkeypatch.setattr(lp, "_solve_warm", counting)
    rng = rng_for(209)
    empty = 0
    for trial in range(8):
        n = int(rng.integers(3, 9))
        box_A = np.kron(np.eye(n), [[1.0], [-1.0]])
        box_b = np.full(2 * n, -5.0)
        obj = rng.uniform(0.2, 1.0, size=n)
        scale = float(np.linalg.norm(obj))
        cuts, start = [], None
        x_in = rng.uniform(-4.0, 4.0, size=n)  # every cut keeps it
        lo, hi = -5.0 * obj.sum(), 5.0 * obj.sum()
        for step in range(30):
            A = np.array([a for a, _ in cuts]).reshape(len(cuts), n)
            b = np.array([v for _, v in cuts])
            least = linprog(obj, A_ub=-A if len(cuts) else None,
                            b_ub=-b if len(cuts) else None,
                            bounds=(-5.0, 5.0), method="highs")
            assert least.status == 0
            mid = 0.5 * (lo + hi)
            if step == 29:
                # below the least cost over the cuts, above the floor
                lo, mid = least.fun - 1.0, least.fun - 1e-3
            rows_A = np.vstack([box_A, obj, -obj, A])
            rows_b = np.concatenate([box_b, [lo, -mid], b])
            scales = np.concatenate([np.ones(2 * n), [scale, scale],
                                     np.linalg.norm(A, axis=1)])
            out = chebyshev_center(rows_A, rows_b, scales, start=start)
            cold = chebyshev_center(rows_A, rows_b, scales)
            assert (out is None) == (cold is None), (trial, step)
            if out is None:
                assert least.fun > mid - 1e-7, (trial, step)
                empty += 1
                lo = least.fun
                continue
            v, radius, start = out
            assert radius == pytest.approx(cold[1], abs=1e-8), (trial, step)
            assert (rows_A @ v - scales * radius >= rows_b - 1e-7).all()
            hi = max(float(obj @ x_in), 0.5 * (hi + float(obj @ v)))
            clear = A @ v - scales[2 * n + 2:] * radius > b + 0.1
            cuts = [c for c, k in zip(cuts, clear)
                    if not k or rng.uniform() < 0.5]
            for _ in range(int(rng.integers(1, 3))):
                # a cut that x_in keeps and v violates, unless v is x_in
                a = x_in - v + rng.uniform(-0.3, 0.3, size=n)
                gap = a @ (x_in - v)
                cuts.append((a, float(a @ v + rng.uniform(0.1, 0.9) *
                                      max(gap, 0.0))))
    assert empty >= 16 and answered["infeasible"] >= 16
    assert answered["optimal"] >= 150


def _highs(p):
    """scipy's HiGHS on the same program: the test oracle."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for a, rel, b in p.rows:
        if rel == "<=":
            A_ub.append(a); b_ub.append(b)
        elif rel == ">=":
            A_ub.append(-a); b_ub.append(-b)
        else:
            A_eq.append(a); b_eq.append(b)
    return linprog(p.objective, A_ub=np.array(A_ub) if A_ub else None,
                   b_ub=b_ub or None, A_eq=np.array(A_eq) if A_eq else None,
                   b_eq=b_eq or None, bounds=p.var_bounds, method="highs")


def test_accp_lower_bound_lp_is_not_infeasible():
    """A lower-bound LP captured from ACCP on the five-asset rung, which
    tiny ratio-test pivots once made the simplex report infeasible."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "accp_lower_bound_lp.json")
    with open(path) as fh:
        data = json.load(fh)
    p = LinearProgram(data["objective"],
                      [(np.array(r["a"]), r["rel"], r["b"])
                       for r in data["rows"]],
                      [tuple(bd) for bd in data["bounds"]])
    ref = _highs(p)
    assert ref.status == 0
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_captured_chebyshev_lps_are_solved_cold():
    """Chebyshev-center LPs captured from ACCP, each solved cold to
    HiGHS's radius within 1e-9 with every row held to within
    1e-9 (1 + |b|_inf), although the radius variable starts at its cap
    rho_cap = 1e9:
    - accp_chebyshev_lp: 480 x 112, on the 55-instrument five-asset rung
      (five_asset_family(1, mc_samples=20000), assets + vanilla calls,
      call_on_max of all five assets, K = 5, CLI defaults), which a
      two-phase tableau once called infeasible with a Farkas vector that
      failed its check;
    - two on a d = 20 box market (random_family(20, 1), the assets and
      calls at K = 1 and 2 on each asset, the equal-weight basket call at
      K = 1, CLI defaults): accp_d20_farkas_lp (663 x 122), where a row
      of a drifted B^-1 finds no entering column and fails the Farkas
      check until the basis is refactorized, and accp_d20_cycling_lp
      (595 x 122), where the largest-infeasibility rule cycles through
      92 degenerate pivots at the optimum until Bland's rule ends it."""
    for name, shape in [("accp_chebyshev_lp", (480, 112)),
                        ("accp_d20_farkas_lp", (663, 122)),
                        ("accp_d20_cycling_lp", (595, 122))]:
        path = os.path.join(os.path.dirname(__file__), "data",
                            name + ".npz")
        with np.load(path) as data:
            p = LinearProgram.from_arrays(*(data[k] for k in (
                "objective", "A", "b", "sense", "lo", "hi")))
        assert p.A.shape == shape and p.hi[-1] == 1e9, name
        ref = _highs(p)
        assert ref.status == 0, name
        sol = solve_lp(p)
        assert sol.status == "optimal", name
        assert sol.x[-1] == pytest.approx(-ref.fun, abs=1e-9), name
        assert (p.A @ sol.x - p.b).min() >= \
            -1e-9 * (1.0 + np.abs(p.b).max()), name
        if name == "accp_chebyshev_lp":
            assert sol.x[-1] == pytest.approx(0.10509, abs=1e-5)


def test_phase_one_takes_no_tiny_pivot():
    """A cone LP  min 0  s.t.  1.x = 1, V x <= 0, x >= 0  that HiGHS finds
    feasible: x = e5 holds every row to within 1e-11.  A two-phase
    tableau once pivoted in phase 1 on an element of 2.8e-9 in a column
    whose largest entry was 6.9, ended at a false optimum and raised on
    its Farkas check."""
    V = np.array([[0.0251, 0.0231, 0.0, 0.835, 1e-11, 0.0],
                  [0.828, -1e-11, 0.0531, 0.356, -0.144, 0.515]])
    p = LinearProgram(np.zeros(6), [(np.ones(6), "=", 1.0),
                                    (V, "<=", np.zeros(2))],
                      [(0.0, None)] * 6)
    assert _highs(p).status == 0
    sol = solve_lp(p)
    assert sol.status == "optimal"
    tol = lp.FEAS_TOL * (1.0 + np.abs(p.b).max())
    assert abs(sol.x.sum() - 1.0) <= tol
    assert (V @ sol.x <= tol).all() and (sol.x >= -tol).all()


def _check_conditioning_by_row(p):
    """The per-row loop that _check_conditioning replaced: the reference."""
    mags = []
    for a, _, _ in p.rows:
        nz = np.abs(a[a != 0.0])
        if nz.size:
            mags.append((nz.max(), nz.min()))
    if mags:
        hi = max(m[0] for m in mags)
        lo = min(m[1] for m in mags)
        if lo > 0 and hi / lo > lp.CONDITION_RATIO_MAX:
            raise ConditioningError("range %.3g" % (hi / lo))


def test_conditioning_check_matches_row_loop():
    rng = rng_for(204)
    raised = 0
    for trial in range(200):
        n = int(rng.integers(1, 6))
        rows = []
        for _ in range(int(rng.integers(0, 5))):
            a = (rng.uniform(-1, 1, size=n) *
                 10.0 ** rng.integers(-7, 7, size=n))
            a[rng.uniform(size=n) < 0.3] = 0.0
            rows.append((a, "<=", 1.0))
        p = LinearProgram(np.zeros(n), rows, [(0.0, 1.0)] * n)
        try:
            _check_conditioning_by_row(p)
            expected = None
        except ConditioningError as exc:
            expected = exc
        if expected is None:
            lp._check_conditioning(p)
        else:
            raised += 1
            with pytest.raises(ConditioningError):
                lp._check_conditioning(p)
    assert 0 < raised < 200


def _random_node_lp(rng, n_max, m_max):
    """A random LP with binaries in [0, 1] whose root is feasible: the
    rows hold at a random point of the bounds, with fractional binaries,
    so fixing a binary or narrowing a box can make a child infeasible.
    Box rows on the variables with an infinite bound keep every
    relaxation bounded."""
    n = int(rng.integers(4, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    nb = int(rng.integers(1, min(n, 6) + 1))
    kinds = rng.choice(["box", "lower", "upper", "free"], size=n - nb,
                       p=[0.5, 0.2, 0.15, 0.15])
    bounds = [(0.0, 1.0)] * nb
    x0 = list(rng.uniform(0.0, 1.0, size=nb))
    for kind in kinds:
        lo, up = sorted(rng.uniform(-3.0, 3.0, size=2))
        bounds.append({"box": (lo, up), "lower": (lo, None),
                       "upper": (None, up), "free": (None, None)}[kind])
        x0.append(rng.uniform(lo, up))
    x0 = np.array(x0)
    rows = []
    for _ in range(m):
        a = rng.uniform(-2, 2, size=n)
        a[rng.uniform(size=n) < 0.4] = 0.0
        rel = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.4, 0.15]))
        slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[rel] * rng.uniform(0, 0.5)
        rows.append((a, rel, float(a @ x0 + slack)))
    for j in nb + (kinds != "box").nonzero()[0]:
        e = np.zeros(n)
        e[j] = 1.0
        rows += [(e, "<=", 10.0), (e, ">=", -10.0)]
    bounded = nb + (kinds != "free").nonzero()[0]
    return LinearProgram(rng.uniform(-2, 2, size=n), rows, bounds), nb, \
        bounded


def _branch(p, root, rng, nb, bounded, x):
    """Two children of p that differ from it in one variable's bounds: a
    binary fixed at 0 and at 1; a box variable's range split at its value
    s in x (the middle of the range when x is at a bound), its lower side
    sometimes fixed; or a one-sided variable's finite bound moved to s and
    halfway to s.  Sometimes the second child instead widens a variable
    that p narrows back to its range in root.  The children share p's
    objective and row arrays, except that a child is sometimes rebuilt
    from p's rows, so that its arrays are equal to p's but not the same
    objects."""
    if not bounded.size or rng.uniform() < 0.5:
        j = int(rng.integers(nb))
        children = [p.fix([j], [v]) for v in (0.0, 1.0)]
    else:
        j = int(rng.choice(bounded))
        lo, hi = p.lo[j], p.hi[j]
        if lo > -np.inf and hi < np.inf:
            s = x[j] if lo < x[j] < hi else 0.5 * (lo + hi)
            children = [p.fix([j], [lo]) if rng.uniform() < 0.3 else
                        _with_bounds(p, j, lo, s), _with_bounds(p, j, s, hi)]
        elif lo > -np.inf:
            s = x[j] if x[j] > lo else lo + 1.0
            children = [_with_bounds(p, j, t, hi) for t in (s, 0.5 * (lo + s))]
        else:
            s = x[j] if x[j] < hi else hi - 1.0
            children = [_with_bounds(p, j, lo, t) for t in (s, 0.5 * (hi + s))]
    narrowed = ((p.lo != root.lo) | (p.hi != root.hi)).nonzero()[0]
    if narrowed.size and rng.uniform() < 0.3:
        j = int(rng.choice(narrowed))
        children[1] = _with_bounds(p, j, root.lo[j], root.hi[j])
    if rng.uniform() < 0.3:
        q = children[0]
        children[0] = LinearProgram(q.objective, q.rows, q.var_bounds)
    return children


def _with_bounds(p, j, lo, hi):
    q = p.fix([j], [lo])
    q.hi[j] = hi
    return q


def _assert_farkas(p, y, tol=1e-7):
    """y certifies that p has no solution: y_i >= 0 on >= rows and <= 0
    on <= rows make y.A x >= y.b for every x satisfying the rows, yet the
    largest y.A x over the variable bounds is smaller than y.b."""
    y = y / np.abs(y).max()
    rels = [rel for _, rel, _ in p.rows]
    assert all(yi >= -tol for yi, rel in zip(y, rels) if rel == ">=")
    assert all(yi <= tol for yi, rel in zip(y, rels) if rel == "<=")
    g = y @ np.array([a for a, _, _ in p.rows])
    top = 0.0
    for gj, (lo, up) in zip(g, p.var_bounds):
        if abs(gj) > tol:
            bound = up if gj > 0 else lo
            assert bound is not None
            top += gj * bound
    assert top < y @ np.array([b for _, _, b in p.rows]) - tol


def _assert_ray(p, r, tol=1e-7):
    """r is an improving ray of p: c.r < 0, every row moves to the side
    its relation allows, and no variable moves past a finite bound."""
    r = r / np.abs(r).max()
    assert p.objective @ r < 0
    for a, rel, _ in p.rows:
        v = a @ r
        assert {"<=": v <= tol, ">=": v >= -tol, "=": abs(v) <= tol}[rel]
    for rj, (lo, up) in zip(r, p.var_bounds):
        assert lo is None or rj >= -tol
        assert up is None or rj <= tol


def _assert_solution(p, sol, ref):
    """sol is optimal for p with ref's objective, feasible and with a
    dual objective equal to its objective."""
    scale = 1.0 + abs(ref)
    assert sol.objective == pytest.approx(ref, abs=1e-7 * scale)
    assert sol.dual_objective == pytest.approx(sol.objective,
                                               abs=1e-7 * scale)
    for a, rel, b in p.rows:
        lhs = a @ sol.x
        assert {"<=": lhs <= b + 1e-7, ">=": lhs >= b - 1e-7,
                "=": abs(lhs - b) <= 1e-7}[rel]
    for xj, (lo, up) in zip(sol.x, p.var_bounds):
        assert lo is None or xj >= lo - 1e-9
        assert up is None or xj <= up + 1e-9


def test_warm_start_matches_cold_solve(monkeypatch):
    """Chains of four branchings on random LPs of up to 30 and up to 100
    rows and columns, with binary fixes and moved or widened bounds: both
    children of a node re-solve from the node's solution (sharing its
    basis inverse), and the chain goes on from a feasible child's
    re-solved solution.
    Each child agrees with the cold solve and with HiGHS in status and
    objective, and its infeasible verdicts carry a valid
    certificate."""
    answered = {"optimal": 0, "infeasible": 0, "rebuilt": 0}
    warm = lp._solve_warm

    def counting(p, start, *args):
        sol = warm(p, start, *args)
        if sol is not None:
            answered[sol.status] += 1
            answered["rebuilt"] += p.A is not start.form.program.A
        return sol

    monkeypatch.setattr(lp, "_solve_warm", counting)
    rng = rng_for(205)
    children = 0
    for trial, size in enumerate([30] * 100 + [100] * 12):
        root, nb, bounded = _random_node_lp(rng, size, size)
        node, parent = root, solve_lp(root)
        assert parent.status == "optimal", trial
        for depth in range(4):
            feasible = []
            for child in _branch(node, root, rng, nb, bounded, parent.x):
                children += 1
                cold = solve_lp(child)
                ref = _highs(child)
                sol = solve_lp(child, start=parent)
                assert sol.status == cold.status, trial
                if sol.status == "infeasible":
                    assert ref.status == 2, trial
                    _assert_farkas(child, sol.farkas)
                    continue
                assert ref.status == 0, trial
                _assert_solution(child, sol, ref.fun)
                _assert_solution(child, cold, ref.fun)
                feasible.append((child, sol))
            if not feasible:
                break
            node, parent = feasible[int(rng.integers(len(feasible)))]
    # nearly every child is answered by the re-solve, also when its row
    # arrays are equal to, but not the same objects as, its parent's
    assert answered["optimal"] + answered["infeasible"] >= 0.95 * children
    assert answered["optimal"] > 150 and answered["infeasible"] > 30
    assert answered["rebuilt"] > 100


def _random_row(rng, n, x_ref, rels=("<=", ">=", "="), p=(0.45, 0.45, 0.1)):
    """A sparse random row that holds at x_ref, with some slack unless it
    is an equation."""
    a = rng.uniform(-2, 2, size=n)
    a[rng.uniform(size=n) < 0.5] = 0.0
    a[int(rng.integers(n))] = rng.uniform(0.5, 2.0)
    rel = str(rng.choice(rels, p=p))
    slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[rel] * rng.uniform(0, 0.5)
    return a, rel, float(a @ x_ref + slack)


def _row_slack(x, a, rel, b):
    return {"<=": b - a @ x, ">=": a @ x - b, "=": 0.0}[rel]


def _next_rows(rng, rows, x, n, x_ref):
    """rows after one cutting-plane step from a solution x: some rows
    dropped (rows slack at x, whose logicals are basic, and now and then
    a binding one), some right-hand sides moved, 1-5 new rows, now and
    then a copy of a kept row, inserted anywhere, and now and then a row
    that contradicts a kept one, which makes the program infeasible."""
    rows = list(rows)
    slack = [i for i, r in enumerate(rows) if _row_slack(x, *r) > 1e-6]
    drop = set(rng.choice(slack, size=min(len(slack), int(rng.integers(3))),
                          replace=False).tolist()) if slack else set()
    if rng.uniform() < 0.15:
        binding = [i for i, r in enumerate(rows)
                   if abs(_row_slack(x, *r)) < 1e-9 and r[1] != "="]
        if binding:
            drop.add(int(rng.choice(binding)))
    rows = [r for i, r in enumerate(rows) if i not in drop] or rows[:1]
    for i in rng.choice(len(rows), size=min(len(rows), int(rng.integers(3))),
                        replace=False):
        a, rel, b = rows[i]
        if rel != "=":
            rows[i] = (a, rel, b + rng.uniform(-0.3, 0.3))
    for _ in range(int(rng.integers(1, 6))):
        row = _random_row(rng, n, x_ref)
        if rng.uniform() < 0.1:
            row = rows[int(rng.integers(len(rows)))]
        rows.insert(int(rng.integers(len(rows) + 1)) if rng.uniform() < 0.3
                    else len(rows), row)
    if rng.uniform() < 0.15:
        a, rel, b = rows[int(rng.integers(len(rows)))]
        if rel != "=":
            flip = "<=" if rel == ">=" else ">="
            rows.append((a, flip, b + (1.0 if flip == ">=" else -1.0)))
    return rows


def test_row_changing_resolves_match_cold_solves():
    """Chains of 24 cutting-plane steps on random LPs of up to 60
    columns and a few more rows: each step drops rows, moves right-hand
    sides and adds rows (see _next_rows), and its program is re-solved
    from the last optimal solution of the chain, as ACCP and ECP do.
    Every re-solve agrees with the cold solve and with HiGHS in status
    and objective, and its infeasible verdicts carry a valid
    certificate.  Dropping a row whose logical is nonbasic falls back to
    the cold solve, which still answers correctly."""
    rng = rng_for(208)
    seen = {"warm": 0, "infeasible": 0, "nonbasic logical dropped": 0,
            "other": 0}
    for trial in range(16):
        n = int(rng.integers(5, 61))
        kinds = rng.choice(["box", "lower", "upper", "free"], size=n,
                           p=[0.4, 0.3, 0.15, 0.15])
        bounds, x_ref = [], []
        for kind in kinds:
            lo, up = sorted(rng.uniform(-3.0, 3.0, size=2))
            bounds.append({"box": (lo, up), "lower": (lo, None),
                           "upper": (None, up), "free": (None, None)}[kind])
            x_ref.append(rng.uniform(lo, up))
        x_ref = np.array(x_ref)
        c = rng.uniform(-2, 2, size=n)
        # box rows on the unbounded sides keep every program bounded
        fixed = []
        for j in (kinds != "box").nonzero()[0]:
            e = np.zeros(n)
            e[j] = 1.0
            fixed += [(e, "<=", 10.0), (e, ">=", -10.0)]
        rows = [_random_row(rng, n, x_ref)
                for _ in range(int(rng.integers(3, max(4, n // 2))))]
        start = solve_lp(LinearProgram(c, fixed + rows, bounds))
        assert start.status == "optimal", trial
        for step in range(24):
            new_rows = _next_rows(rng, rows, start.x[:n], n, x_ref)
            p = LinearProgram(c, fixed + new_rows, bounds)
            sol = solve_lp(p, start=start)
            cold, ref = solve_lp(p), _highs(p)
            assert sol.status == cold.status, (trial, step)
            seen["warm" if sol.fallback is None else
                 sol.fallback if sol.fallback in seen else "other"] += 1
            if sol.status == "infeasible":
                assert ref.status == 2, (trial, step)
                _assert_farkas(p, sol.farkas)
                seen["infeasible"] += sol.fallback is None
                continue
            assert ref.status == 0, (trial, step)
            _assert_solution(p, sol, ref.fun)
            _assert_solution(p, cold, ref.fun)
            rows, start = new_rows, sol
    # 384 steps: the re-solve answers all but those that drop a row
    # whose logical is nonbasic, a few of them infeasible
    assert seen["warm"] >= 290 and seen["other"] == 0, seen
    assert seen["infeasible"] >= 10, seen
    assert seen["nonbasic logical dropped"] >= 1, seen


def test_carried_state_over_deep_chains(monkeypatch):
    """Branch-and-bound chains 25 deep on random LPs of up to about 60
    rows and 60 columns.  A certified warm optimum carries its B^-1 and
    reduced costs, so each node starts from copies of its parent's and
    rank-1 updates pile up along the chain without a factorization.
    Every node agrees with the cold solve and HiGHS in status and
    objective, infeasible ones carry a valid certificate, and nearly
    every warm optimum passes the residual certificate on its first
    check.  The cold solves, the roots' included, leave their inverses
    and factorize nothing, so the warm solves' factorizations are
    counted apart from theirs."""
    checks = {True: 0, False: 0}
    factorized = [0]
    warm_factorized = 0
    real_cert, real_inverse = lp._certified, lp._inverse

    def certified(*args):
        sol = real_cert(*args)
        checks[sol is not None] += 1
        return sol

    def inverse(*args):
        factorized[0] += 1
        return real_inverse(*args)

    monkeypatch.setattr(lp, "_certified", certified)
    monkeypatch.setattr(lp, "_inverse", inverse)
    rng = rng_for(210)
    nodes = full = 0
    longest = 0  # pivots on one carried inverse since its factorization
    for trial in range(12):
        root, nb, bounded = _random_node_lp(rng, 60, 40)
        node, parent = root, solve_lp(root)
        assert parent.status == "optimal", trial
        updates = 0
        for depth in range(25):
            feasible = []
            for child in _branch(node, root, rng, nb, bounded, parent.x):
                nodes += 1
                before = factorized[0]
                sol = solve_lp(child, start=parent)
                fresh = factorized[0] > before or sol.warm is None
                warm_factorized += factorized[0] - before
                before = factorized[0]
                cold, ref = solve_lp(child), _highs(child)
                assert factorized[0] == before, (trial, depth)
                assert sol.status == cold.status, (trial, depth)
                if sol.status == "infeasible":
                    assert ref.status == 2, (trial, depth)
                    _assert_farkas(child, sol.farkas)
                    continue
                assert ref.status == 0, (trial, depth)
                _assert_solution(child, sol, ref.fun)
                feasible.append((child, sol, fresh))
            if not feasible:
                break
            node, parent, fresh = feasible[int(rng.integers(len(feasible)))]
            updates = parent.iterations + (0 if fresh else updates)
            longest = max(longest, updates)
        full += depth == 24
    assert full >= 8 and nodes >= 400
    assert checks[True] >= 0.95 * (checks[True] + checks[False]), checks
    # the roots' cold solves leave their inverses, so a warm solve
    # factorizes only when a certificate or a pivot check fails
    assert warm_factorized <= 0.05 * nodes, (warm_factorized, nodes)
    assert longest >= 40, longest


def test_corrupted_carried_state_is_refactorized(monkeypatch):
    """A carried state whose B^-1 is off by 1e-5 in one entry, or whose
    reduced costs were lost, does not certify its re-solves: the residual
    or reduced-cost check fails, the solve goes on from a fresh
    factorization (or falls back to the cold solve) and answers as the
    cold solve does."""
    seen = []
    real_cert = lp._certified

    def certified(*args):
        seen.append(real_cert(*args))
        return seen[-1]

    monkeypatch.setattr(lp, "_certified", certified)
    rng = rng_for(211)
    rejected = {"inverse": 0, "reduced costs": 0}
    refactorized = 0
    for trial in range(30):
        root, nb, bounded = _random_node_lp(rng, 30, 30)
        parent = solve_lp(root)
        first = _branch(root, root, rng, nb, bounded, parent.x)[0]
        node = solve_lp(first, start=parent)
        if node.status != "optimal" or not isinstance(node.warm, tuple):
            continue
        bf, basis, upper, Binv, d = node.warm
        i, j = np.unravel_index(np.abs(Binv).argmax(), Binv.shape)
        bent = Binv.copy()
        bent[i, j] += 1e-5
        for kind, state in [("inverse", (bf, basis, upper, bent, d)),
                            ("reduced costs", (bf, basis, upper, Binv,
                                               np.zeros_like(d)))]:
            for child in _branch(first, root, rng, nb, bounded, node.x):
                start = LpSolution(**{**node.__dict__, "warm": state})
                del seen[:]
                sol = solve_lp(child, start=start)
                cold = solve_lp(child)
                assert sol.status == cold.status, (trial, kind)
                if sol.status == "infeasible":
                    _assert_farkas(child, sol.farkas)
                    continue
                _assert_solution(child, sol, cold.objective)
                if seen and seen[0] is None:
                    rejected[kind] += 1
                    refactorized += seen[-1] is not None
    assert rejected["inverse"] >= 20 and rejected["reduced costs"] >= 5, \
        rejected
    assert refactorized >= 10


def test_certificate_needs_zero_basic_reduced_costs(monkeypatch):
    """A carried B^-1 that is off only along a direction v with
    v.(b - A x_N) = 0 and v.A_j = 0 on the degenerate nonbasic columns
    leaves the basic values, the residual, the gap and the sign of every
    nonbasic reduced cost as they were, but moves y = c_B B^-1 off the
    basis: c_B - y A_B is no longer zero, and the certificate refuses
    it.  The certificate checks the basic values against their bounds
    itself: a bound moved past a basic value is refused, though the
    residual, the reduced costs and the gap still hold."""
    from scipy.linalg import null_space
    seen = []
    real = lp._certified

    def spy(*args):
        seen.append([a.copy() if isinstance(a, np.ndarray) else a
                     for a in args])
        return real(*args)

    monkeypatch.setattr(lp, "_certified", spy)
    rng = rng_for(212)
    refused = 0
    for trial in range(20):
        root, nb, bounded = _random_node_lp(rng, 20, 20)
        parent = solve_lp(root)
        child = _branch(root, root, rng, nb, bounded, parent.x)[1]
        del seen[:]
        if solve_lp(child, start=parent).status != "optimal" or not seen:
            continue
        bf, p, basis, upper, Binv, x, xB, *rest = seen[-1]
        dirn, opt_tol = rest[2], rest[-1]
        rhs = p.b - bf.A @ x
        d = bf.c - bf.c[basis] @ Binv @ bf.A
        tight = (dirn != 0) & (np.abs(d) < 1e-3)
        v = null_space(np.column_stack([rhs, bf.A[:, tight]]).T)
        cB = bf.c[basis]
        if not v.shape[1] or not np.abs(cB).max() > 0.1:
            continue
        v = v[:, 0]
        i = int(np.abs(cB).argmax())
        bent = Binv.copy()
        bent[i] += 1e-6 * v
        args = [bf, p, basis, upper, bent, x.copy(), xB] + rest
        d_bent = bf.c - cB @ bent @ bf.A
        assert (dirn * d_bent).min() >= -opt_tol
        assert real(bf, p, basis, upper, Binv, x.copy(), xB,
                    *rest) is not None
        assert real(*args) is None, trial
        lo_bent = rest[0].copy()
        lo_bent[basis[0]] = xB[0] + 1.0
        assert real(bf, p, basis, upper, Binv, x.copy(), xB, lo_bent,
                    *rest[1:]) is None, trial
        refused += 1
    assert refused >= 10
