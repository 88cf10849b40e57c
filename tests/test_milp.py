import heapq
import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from pricebounds import lp, milp as milp_module
from pricebounds.lp import LinearProgram, solve_lp
from pricebounds.milp import (INT_TOL, MixedIntegerProgram, MilpOptions,
                              MilpResult, solve_milp)
from pricebounds.encoding import encode_min, minimize_over_box
from pricebounds import cpwa
from conftest import (rng_for, random_cpwa, random_box_instance, min_oracle,
                      assert_integer_feasible, negative_terms,
                      function_separation)


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


def test_binary_bound_validation():
    with pytest.raises(ValueError):
        MixedIntegerProgram(
            LinearProgram([1.0], [], [(0.0, 2.0)]), [0])


def _assert_optimal_certificate(q, sol, tol=1e-7):
    """sol holds q's rows by their sense and q's bounds, and its objective
    equals its dual objective."""
    scale = 1.0 + np.abs(q.b).max(initial=0.0)
    r = q.A @ sol.x - q.b
    assert (r[q.sense < 0] <= tol * scale).all()
    assert (r[q.sense > 0] >= -tol * scale).all()
    assert (np.abs(r[q.sense == 0]) <= tol * scale).all()
    assert (sol.x >= q.lo - 1e-9).all() and (sol.x <= q.hi + 1e-9).all()
    assert abs(sol.objective - sol.dual_objective) <= \
        tol * (1.0 + abs(sol.objective))


def test_random_milps_vs_highs(monkeypatch):
    """Branch and bound with warm-started node LPs against scipy's HiGHS
    MILP on random programs with up to 12 binaries.  Every node LP that
    the warm path calls optimal is checked against its own program:
    primal residual by row sense, bounds and duality gap."""
    checked = [0]
    warm = lp._solve_warm

    def checking(q, start, *args):
        sol = warm(q, start, *args)
        if sol.status == "optimal":
            _assert_optimal_certificate(q, sol)
            checked[0] += 1
        return sol

    monkeypatch.setattr(lp, "_solve_warm", checking)
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
    assert checked[0] > 250


def test_pending_states_stay_within_budget(monkeypatch):
    """Pending nodes keep the basis inverses their re-solves left on them
    only while WARM_STATE_BYTES holds them; with no budget none is kept,
    each branched node factorizes its basis, and the answers agree."""
    rng = rng_for(305)
    programs = [_random_milp(rng) for _ in range(60)]
    held = []
    real_push = heapq.heappush

    def push(heap, entry):
        real_push(heap, entry)
        held.append(sum(isinstance(e[3].warm, tuple) for e in heap))

    monkeypatch.setattr(milp_module.heapq, "heappush", push)
    results = [solve_milp(p) for p in programs]
    assert max(held) >= 2
    del held[:]
    monkeypatch.setattr(milp_module, "WARM_STATE_BYTES", 0)
    for p, res in zip(programs, results):
        again = solve_milp(p)
        assert again.status == res.status
        if res.incumbent_value is not None:
            assert again.incumbent_value == pytest.approx(
                res.incumbent_value, abs=1e-9)
    assert held and max(held) == 0


def _plain(p):
    """p without its completion."""
    return MixedIntegerProgram(p.base, p.binary_vars)


def test_completed_search_agrees_with_oracle_and_plain_search():
    """At rel_gap 1e-9 the slack MILPs, searched with their completions,
    agree with the arrangement-vertex oracle and with the search that
    finds incumbents only at integral nodes, in fewer nodes."""
    rng = rng_for(306)
    nodes, plain_nodes = 0, 0
    for trial in range(100):
        d = int(rng.integers(1, 3))
        box = rng.uniform(1, 8, size=d)
        h = random_cpwa(rng, d, max_terms=5, max_pieces=4)
        enc = encode_min(h, box)
        res = solve_milp(enc.program, offset=enc.constant)
        plain = solve_milp(_plain(enc.program), MilpOptions(rel_gap=1e-9),
                           offset=enc.constant)
        oracle, _ = min_oracle(h, box)
        assert res.incumbent_value == pytest.approx(oracle, abs=1e-7), trial
        assert res.incumbent_value == pytest.approx(plain.incumbent_value,
                                                    abs=1e-7), trial
        nodes += res.nodes
        plain_nodes += plain.nodes
    assert nodes < plain_nodes


def test_loose_gap_brackets_the_minimum_and_pools_feasible_points():
    """At rel_gap 0.8 the search stops early on some programs; the bound
    and the incumbent still bracket the oracle's minimum, and every pool
    point is integer-feasible, priced by the objective and within the
    pool threshold."""
    rng = rng_for(307)
    stopped, pooled = 0, 0
    for trial in range(100):
        d = int(rng.integers(1, 3))
        if trial % 2:
            h = random_cpwa(rng, d, max_terms=5, max_pieces=4)
            box = rng.uniform(1, 8, size=d)
        else:
            inst = random_box_instance(rng, d, int(rng.integers(1, 5)))
            tmpl = cpwa.slack_template(
                inst.g, cpwa.call_on_max(d, list(range(d)), 2.0))
            h = cpwa.instantiate(tmpl, rng.uniform(-2, 2, size=inst.m))
            box = inst.box_array()
        enc = encode_min(h, box)
        res = solve_milp(enc.program,
                         MilpOptions(rel_gap=0.8, pool_threshold=0.7),
                         offset=enc.constant)
        oracle, _ = min_oracle(h, box)
        assert res.best_bound <= oracle + 1e-9, trial
        assert oracle <= res.incumbent_value + 1e-9, trial
        p_bar = res.incumbent_value
        thr = 0.7 * p_bar if p_bar < 0 else p_bar
        for x, v in res.pool:
            assert_integer_feasible(enc.program, x, row_tol=1e-9,
                                    int_tol=INT_TOL)
            assert v == pytest.approx(
                enc.program.base.objective @ x + enc.constant,
                abs=1e-9 * (1 + abs(v)))
            assert v <= thr + 1e-9 or v <= p_bar + 1e-12
            pooled += 1
        stopped += res.status == "gap_reached"
    assert stopped > 10 and pooled > 100


@pytest.mark.parametrize("mutation", ["negative_delta", "no_iota"])
def test_broken_completion_is_never_accepted(mutation):
    """A completion whose point has a negative delta (its rows still
    hold) or an all-zero iota fails the check: none of its points
    becomes the incumbent or enters the pool, and the search runs as if
    the program had no completion."""
    rng = rng_for(308)
    checked = 0
    for trial in range(40):
        d = int(rng.integers(1, 3))
        inst = random_box_instance(rng, d, int(rng.integers(1, 5)))
        tmpl = cpwa.slack_template(
            inst.g, cpwa.call_on_max(d, list(range(d)), 2.0))
        h = cpwa.instantiate(tmpl, rng.uniform(-2, 2, size=inst.m))
        enc = encode_min(h, inst.box_array())
        minmax = negative_terms(enc.program)
        if not minmax:
            continue
        zeta, deltas, iotas = minmax[0]
        good, made = enc.program.complete, []

        def broken(x):
            xc = good(x)
            if mutation == "negative_delta":
                xc[..., zeta] -= 1e-3
                xc[..., deltas] -= 1e-3
            else:
                xc[..., iotas] = 0.0
            made.append(xc)
            return xc

        plain = solve_milp(_plain(enc.program), offset=enc.constant)
        oracle, _ = min_oracle(h, inst.box_array())
        assert plain.incumbent_value == pytest.approx(
            oracle, abs=1e-7 * (1 + abs(oracle))), trial
        p = MixedIntegerProgram(enc.program.base, enc.program.binary_vars,
                                broken)
        res = solve_milp(p, offset=enc.constant)
        assert made, trial
        accepted = [res.incumbent] + [x for x, _ in res.pool]
        assert not any(x is y for x in made for y in accepted), trial
        for x in accepted:
            assert_integer_feasible(p, x, int_tol=INT_TOL)
        assert res.nodes == plain.nodes, trial
        assert res.incumbent_value == plain.incumbent_value, trial
        assert np.array_equal(res.incumbent, plain.incumbent), trial
        checked += 1
    assert checked > 20


def _slack_instance(rng, d, shape):
    """(h, box, c): a random function with c = 0, or a slack function of
    the kind ECP and ACCP minimize, at a random portfolio and cash c."""
    if shape == "function":
        return (random_cpwa(rng, d, max_terms=5, max_pieces=4),
                rng.uniform(1, 8, size=d), 0.0)
    inst = random_box_instance(rng, d, int(rng.integers(1, 6)))
    f = cpwa.call_on_max(d, list(range(d)), float(rng.uniform(0, 10)))
    h = cpwa.instantiate(cpwa.slack_template(inst.g, f),
                         rng.uniform(-2, 2, size=inst.m))
    return h, inst.box_array(), float(rng.uniform(-5, 5))


# ECP solves its slack MILPs to rel_gap 1e-9 and ACCP to zeta, each
# pooling at delta (the CLI's defaults 0.8 and 0.7)
SHAPES = {"function": MilpOptions(),
          "ecp": MilpOptions(pool_threshold=0.7),
          "accp": MilpOptions(rel_gap=0.8, pool_threshold=0.7)}


def _assert_pool(res, h, box, c, threshold):
    """Every pool point of res lies in [0, box], its value is h there
    plus c, and it clears the threshold of the least value; returns the
    pool's size."""
    v = res.incumbent_value
    thr = threshold * v if v < 0 else v
    for x, value in res.pool:
        assert ((x >= 0) & (x <= box)).all()
        assert abs(value - (cpwa.evaluate(h, x) + c)) <= \
            1e-9 * (1 + abs(value))
        assert value <= thr + 1e-9 or value <= v + 1e-12
    return len(res.pool)


def test_vertices_give_the_minimum_without_a_search():
    """In d <= 2 a function is separated at its arrangement vertices
    (minimize_over_box), and the least value there is the minimum,
    without a node LP.  On random functions and on ECP- and ACCP-shaped
    slack instantiations, pooled at their thresholds, the minimum equals
    the arrangement-vertex oracle and branch and bound on the function's
    program, the bound equals the incumbent, and every pool point lies in
    the box, is valued at the function and clears the pool threshold."""
    rng = rng_for(310)
    pooled = 0
    for trial in range(150):
        d = int(rng.integers(1, 3))
        shape = list(SHAPES)[trial % 3]
        h, box, c = _slack_instance(rng, d, shape)
        enc = encode_min(h, box)
        opts = SHAPES[shape]
        res = function_separation(h, box)(c, np.zeros(0),
                                          opts.pool_threshold)
        ref = solve_milp(enc.program,
                         MilpOptions(pool_threshold=opts.pool_threshold),
                         offset=enc.constant + c)
        oracle, _ = min_oracle(h, box)
        v = res.incumbent_value
        assert (res.status, res.nodes) == ("optimal", 0), trial
        assert abs(v - (oracle + c)) <= 1e-9 * (1 + abs(v)), trial
        assert abs(v - ref.incumbent_value) <= 1e-9 * (1 + abs(v)), trial
        assert res.best_bound == v, trial
        pooled += _assert_pool(res, h, box, c, opts.pool_threshold)
    assert pooled > 200


def _highs_minimum(p, offset):
    """The minimum of p plus offset, by scipy's HiGHS MILP."""
    q = p.base
    integrality = np.zeros(len(q.objective))
    integrality[p.binary_vars] = 1
    ref = milp(q.objective, integrality=integrality,
               constraints=LinearConstraint(
                   q.A, np.where(q.sense >= 0, q.b, -np.inf),
                   np.where(q.sense <= 0, q.b, np.inf)),
               bounds=Bounds(q.lo, q.hi), options={"mip_rel_gap": 0.0})
    assert ref.status == 0
    return ref.fun + offset


def _target_slack(rng, d, kinds, long=False):
    """(h, box, c): the slack of a random portfolio of the assets and of
    vanilla calls and puts, short (or, if `long`, long) a target of one of
    the `kinds` on a random subset of two or more assets, at cash c."""
    g = [cpwa.asset(d, i) for i in range(d)]
    for _ in range(int(rng.integers(1, 3 * d))):
        make = cpwa.vanilla_call if rng.uniform() < 0.6 else cpwa.vanilla_put
        g.append(make(d, int(rng.integers(d)), float(rng.uniform(0, 10))))
    assets = sorted(rng.choice(d, size=int(rng.integers(2, d + 1)),
                               replace=False).tolist())
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind in ("call_on_max", "put_on_min"):
        f = getattr(cpwa, kind)(d, assets, float(rng.uniform(0, 10)))
    elif kind == "call_on_max_or_put_on_min":
        # max((max_i x_i - k)^+, (k' - min_i x_i)^+): two pieces on each
        # asset, which cross above the floor 0 where k < k'
        call, put = (getattr(cpwa, name)(d, assets, float(rng.uniform(0, 10)))
                     for name in ("call_on_max", "put_on_min"))
        f = cpwa.make_function(d, [(1, call.terms[0].pieces
                                    + put.terms[0].pieces)])
    elif kind == "basket_call":
        w = np.zeros(d)
        w[assets] = rng.uniform(0.1, 1.0, size=len(assets))
        f = cpwa.basket_call(w, float(rng.uniform(0, 10)))
    else:
        f = cpwa.best_of_calls(d, assets, rng.uniform(0, 10, size=len(assets)))
    y = rng.uniform(-2, 2, size=len(g))
    if long:
        f = cpwa.linear_combination([-1.0], [f])
        # a light hedge leaves the minimum near that of f
        y *= 10 ** rng.uniform(-3, 0)
    h = cpwa.instantiate(cpwa.slack_template(g, f), y)
    return h, rng.uniform(5, 20, size=d), float(rng.uniform(-5, 5))


def _short_target_slack(rng, d):
    """A slack short a call on the max, a basket call or a best-of-calls,
    as the upper bound's slack is."""
    return _target_slack(rng, d, ["call_on_max", "basket_call",
                                  "best_of_calls"])


def _long_target_slack(rng, d):
    """A slack long a call on the max, a best-of-calls, a put on the min
    or the larger of a call on the max and a put on the min, as the lower
    bound's slack is."""
    return _target_slack(rng, d, ["call_on_max", "best_of_calls",
                                  "put_on_min", "call_on_max_or_put_on_min"],
                         long=True)


def _assert_solved_at_vertices(make, seed):
    """Runs 60 trials of make(rng, d) at d = 3..6: each function has
    candidate points, and its separation, at ECP's and ACCP's pool
    thresholds, takes its minimum over them without a node LP.  The
    minimum equals branch and bound on the function's program and HiGHS,
    and every pool point lies in the box, is valued at the function and
    clears the pool threshold."""
    rng = rng_for(seed)
    pooled, searched = 0, 0
    for trial in range(60):
        d = int(rng.integers(3, 7))
        h, box, c = make(rng, d)
        enc = encode_min(h, box)
        p, offset = enc.program, enc.constant + c
        threshold = SHAPES[["ecp", "accp"][trial % 2]].pool_threshold
        res = function_separation(h, box)(c, np.zeros(0), threshold)
        assert res is not None, trial
        ref = solve_milp(p, offset=offset)
        searched += ref.nodes
        v = res.incumbent_value
        assert (res.status, res.nodes) == ("optimal", 0), trial
        assert abs(v - ref.incumbent_value) <= 1e-9 * (1 + abs(v)), trial
        assert abs(v - _highs_minimum(p, offset)) <= 1e-9 * (1 + abs(v)), \
            trial
        pooled += _assert_pool(res, h, box, c, threshold)
    assert pooled > 60 and searched > 20


def test_short_targets_are_solved_at_their_minimizers():
    """In d = 3..6, a slack that is short its only multi-asset term is
    separated at the coordinatewise minimizers of its pieces, where its
    minimum lies."""
    _assert_solved_at_vertices(_short_target_slack, 311)


def test_long_targets_are_solved_at_their_level_minimizers():
    """In d = 3..6, a slack that is long its only multi-asset term, whose
    pieces each use one asset, is separated at the minimizers x(t) of its
    levels t, where its minimum lies."""
    _assert_solved_at_vertices(_long_target_slack, 312)


def test_each_completed_point_is_checked_once(monkeypatch):
    """The search checks and offers each distinct completed point once,
    the same set of points that it completes, however many nodes
    complete to the same point."""
    checked = []
    checker = milp_module._checker

    def logging_checker(q, bset):
        holds = checker(q, bset)

        def logged(x):
            checked.append(x.tobytes())
            return holds(x)
        return logged

    monkeypatch.setattr(milp_module, "_checker", logging_checker)
    rng = rng_for(309)
    repeats = 0
    for trial in range(60):
        d = int(rng.integers(1, 3))
        inst = random_box_instance(rng, d, int(rng.integers(1, 5)))
        tmpl = cpwa.slack_template(
            inst.g, cpwa.call_on_max(d, list(range(d)), 2.0))
        h = cpwa.instantiate(tmpl, rng.uniform(-2, 2, size=inst.m))
        enc = encode_min(h, inst.box_array())
        prog, completed = enc.program, []

        def logged(x):
            xc = prog.complete(x)
            completed.append(xc.tobytes())
            return xc

        del checked[:]
        solve_milp(MixedIntegerProgram(prog.base, prog.binary_vars, logged),
                   MilpOptions(rel_gap=0.8, pool_threshold=0.7),
                   offset=enc.constant)
        assert len(checked) == len(set(checked)), trial
        assert set(checked) == set(completed), trial
        repeats += len(completed) - len(checked)
    assert repeats > 0
