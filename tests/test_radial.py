import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from pricebounds import cpwa
from pricebounds import radial as radial_mod
from pricebounds.lp import (ConditioningError, LinearProgram, LpSolution,
                            solve_lp)
from conftest import rng_for, random_cpwa


def _radial_tmpl(g, f):
    return cpwa.radial_template(cpwa.slack_template(g, f))


def test_enumerate_tuples_counts():
    rng = rng_for(501)
    g = [cpwa.vanilla_call(1, 0, 1.0)]  # 2 pieces
    tmpl = _radial_tmpl(g, cpwa.zero_function(1))
    assert len(list(radial_mod.enumerate_tuples(tmpl))) == 2
    g2 = [cpwa.vanilla_call(2, 0, 1.0), cpwa.call_on_max(2, [0, 1], 0.0)]
    tmpl2 = _radial_tmpl(g2, cpwa.zero_function(2))
    assert len(list(radial_mod.enumerate_tuples(tmpl2))) == 2 * 3
    for _ in range(20):
        d = int(rng.integers(1, 3))
        fs = [random_cpwa(rng, d, max_terms=2) for _ in range(2)]
        t = _radial_tmpl(fs, random_cpwa(rng, d, max_terms=2))
        expected = int(np.prod([len(p) for _, _, p in t.terms]))
        assert len(list(radial_mod.enumerate_tuples(t))) == expected


def test_cone_interior_single_vector():
    assert radial_mod.cone_interior_empty([np.array([1.0, 0.0])]) is False


def test_cone_interior_cancelling_pair():
    A = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    assert radial_mod.cone_interior_empty(A) is True


def test_cone_interior_negative_vector():
    assert radial_mod.cone_interior_empty([np.array([-1.0, -1.0])]) \
        is True


def test_reference_single_asset_call_system():
    """g = x, f = (x-1)^+: boundedness of y*z - (z)^+ on the ray domain
    is exactly y >= 1."""
    g = [cpwa.asset(1, 0)]
    f = cpwa.vanilla_call(1, 0, 1.0)
    system = radial_mod.generate(_radial_tmpl(g, f))
    assert radial_mod.is_feasible(system, [1.0])
    assert radial_mod.is_feasible(system, [2.5])
    assert not radial_mod.is_feasible(system, [0.99])
    assert not radial_mod.is_feasible(system, [-1.0])


def test_zero_target_nonnegative_y():
    g = [cpwa.asset(1, 0)]
    system = radial_mod.generate(_radial_tmpl(g, cpwa.zero_function(1)))
    assert radial_mod.is_feasible(system, [0.0])
    assert radial_mod.is_feasible(system, [3.0])
    assert not radial_mod.is_feasible(system, [-0.01])


def test_all_constant_instance_empty_system():
    g = [cpwa.constant_function(2, 1.0)]
    f = cpwa.constant_function(2, 0.5)
    system = radial_mod.generate(_radial_tmpl(g, f))
    # radial slack is identically zero: bounded for every y, no rows
    for blk in system.blocks:
        assert blk.Y.size == 0 or np.abs(blk.Y).max() == 0
    assert radial_mod.is_feasible(system, [-5.0])
    assert radial_mod.is_feasible(system, [5.0])


def _simplex_grid(d, step):
    n = int(round(1.0 / step))
    pts = []
    for comp in itertools.product(range(n + 1), repeat=d - 1):
        if sum(comp) <= n:
            z = np.array(list(comp) + [n - sum(comp)], dtype=float) / n
            pts.append(z)
    return np.array(pts)


def _lipschitz(slack_fn):
    L = 0.0
    for t in slack_fn.terms:
        L += max(np.linalg.norm(np.asarray(a)) for a, _ in t.pieces)
    return L


def test_equivalence_with_simplex_oracle():
    """LP-feasibility of the generated system must agree with the
    sign of the radial slack's minimum over the unit simplex."""
    rng = rng_for(502)
    step = 0.02
    checked = 0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        g = [random_cpwa(rng, d, max_terms=2, max_pieces=3)
             for _ in range(m)]
        f = random_cpwa(rng, d, max_terms=2, max_pieces=3)
        tmpl = _radial_tmpl(g, f)
        system = radial_mod.generate(tmpl)
        grid = _simplex_grid(d, step)
        tried = 0
        while checked < (checked // 100 + 1) * 100 and tried < 400:
            tried += 1
            y = rng.uniform(-2, 2, size=m)
            slack = cpwa.instantiate(tmpl, y)
            vals = cpwa.evaluate_many(slack, grid)
            gmin = float(vals.min())
            margin = _lipschitz(slack) * step * d
            if -1e-9 < gmin <= margin:
                continue  # grid cannot classify this draw; redraw
            oracle_bounded = gmin > 0
            assert radial_mod.is_feasible(system, y) == oracle_bounded
            checked += 1
    assert checked >= 100


def test_row_cap(monkeypatch):
    g = [cpwa.call_on_max(2, [0, 1], k) for k in range(5)]
    tmpl = _radial_tmpl(g, cpwa.zero_function(2))
    monkeypatch.setattr(radial_mod, "ROW_CAP", 1)
    with pytest.raises(radial_mod.ResourceLimitError):
        radial_mod.generate(tmpl)


def _generate_exhaustive(tmpl):
    """Reference: one cone LP per piece tuple, no pruning, capped at
    radial.ROW_CAP rows."""
    cap = radial_mod.ROW_CAP
    d = tmpl.dimension
    blocks = []
    seen = set()
    rows = 0
    for tup in radial_mod.enumerate_tuples(tmpl):
        chosen = [tmpl.terms[k][2][ik][0] for k, ik in enumerate(tup)]
        diffs = []
        for k, ik in enumerate(tup):
            ak = chosen[k]
            for i, (ai, _) in enumerate(tmpl.terms[k][2]):
                if i == ik:
                    continue
                v = ak - ai
                if np.abs(v).max(initial=0.0) > 1e-12:
                    diffs.append(v)
        uniq = []
        useen = set()
        for v in diffs:
            key = tuple(np.round(v, 12))
            if key not in useen:
                useen.add(key)
                uniq.append(v)
        if radial_mod.cone_interior_empty(uniq):
            continue
        Y = np.zeros((d, tmpl.m))
        rhs = np.zeros(d)
        for k, ik in enumerate(tup):
            w, z, _ = tmpl.terms[k]
            ak = chosen[k]
            Y += np.outer(ak, w)
            rhs -= z * ak
        E = (-np.stack(uniq, axis=1) if uniq else np.zeros((d, 0)))
        key = (tuple(np.round(Y, 10).ravel()), tuple(np.round(rhs, 10)),
               tuple(sorted(tuple(np.round(v, 10)) for v in uniq)))
        if key in seen:
            continue
        seen.add(key)
        rows += d
        if rows > cap:
            raise radial_mod.ResourceLimitError(
                "radial system exceeds %d rows" % cap)
        blocks.append(radial_mod.RadialBlock(Y=Y, E=E, rhs=rhs,
                                             tuple_index=tup))
    return radial_mod.RadialSystem(m=tmpl.m, dimension=d, blocks=blocks)


def _assert_same_system(a, b):
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert x.tuple_index == y.tuple_index
        assert np.array_equal(x.Y, y.Y)
        assert np.array_equal(x.E, y.E)
        assert np.array_equal(x.rhs, y.rhs)


def _chain_template(strikes):
    """Radial template of f = 0 hedged by the asset, calls and puts."""
    g = ([cpwa.asset(1, 0)] +
         [cpwa.vanilla_call(1, 0, float(k)) for k in strikes] +
         [cpwa.vanilla_put(1, 0, float(k)) for k in strikes])
    return _radial_tmpl(g, cpwa.zero_function(1))


def test_pruned_generate_matches_exhaustive_random():
    rng = rng_for(503)
    for _ in range(45):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        g = [random_cpwa(rng, d, max_terms=2, max_pieces=3)
             for _ in range(m)]
        tmpl = _radial_tmpl(g, random_cpwa(rng, d, max_terms=2,
                                           max_pieces=3))
        _assert_same_system(radial_mod.generate(tmpl),
                            _generate_exhaustive(tmpl))


def test_pruned_generate_matches_exhaustive_chains():
    for m in range(3, 7):
        tmpl = _chain_template(np.arange(1, m + 1) * 10.0)
        _assert_same_system(radial_mod.generate(tmpl),
                            _generate_exhaustive(tmpl))


def test_pruned_generate_cone_lp_count(monkeypatch):
    """The depth-first build makes few cone tests: at most two per term
    on a chain that the exhaustive loop would test 4096 times."""
    tmpl = _chain_template(np.arange(1, 7) * 10.0)
    assert len(list(radial_mod.enumerate_tuples(tmpl))) == 4096
    calls = []
    real = radial_mod.cone_interior_empty

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(radial_mod, "cone_interior_empty", counting)
    system = radial_mod.generate(tmpl)
    assert system.blocks
    assert 0 < len(calls) <= 2 * len(tmpl.terms)


def test_row_cap_matches_exhaustive(monkeypatch):
    g = [cpwa.call_on_max(2, [0, 1], k) for k in range(5)]
    tmpl = _radial_tmpl(g, cpwa.zero_function(2))
    full = radial_mod.generate(tmpl)
    assert len(full.blocks) > 1
    for cap in range(full.row_count + 2):
        monkeypatch.setattr(radial_mod, "ROW_CAP", cap)
        try:
            ref = _generate_exhaustive(tmpl)
        except radial_mod.ResourceLimitError:
            with pytest.raises(radial_mod.ResourceLimitError):
                radial_mod.generate(tmpl)
            continue
        _assert_same_system(radial_mod.generate(tmpl), ref)


def test_cone_interior_bad_witness_raises(monkeypatch):
    """An "empty" verdict whose weights do not give a convex combination
    <= 0 must raise instead of pruning, whether the weights come from the
    LP (d >= 3) or in closed form (d <= 2)."""
    def bogus(p, **kwargs):
        return LpSolution(status="optimal", x=np.array([0.5, 0.5]),
                          objective=0.0)

    monkeypatch.setattr(radial_mod, "solve_lp", bogus)
    A = [np.array([1.0, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0])]
    with pytest.raises(ConditioningError):
        radial_mod.cone_interior_empty(A)
    monkeypatch.setattr(radial_mod, "_planar_weights",
                        lambda V, h: np.array([0.5, 0.5]))
    A = [np.array([1.0, 0.0]), np.array([-0.5, 0.0])]
    with pytest.raises(ConditioningError):
        radial_mod.cone_interior_empty(A)


def _cone_lp_verdicts(V):
    """The verdicts of the cone LP that decides every dimension, from
    HiGHS and from the native solver (None where it raises): is some
    convex combination of the columns of V <= 0?  The references."""
    n = V.shape[1]
    ref = linprog(np.zeros(n), A_ub=V, b_ub=np.zeros(len(V)),
                  A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0.0, None),
                  method="highs")
    assert ref.status in (0, 2)
    rows = [(np.ones(n), "=", 1.0), (V, "<=", 0.0)]
    try:
        native = solve_lp(LinearProgram(np.zeros(n), rows,
                                        [(0.0, None)] * n)).status
    except ConditioningError:
        native = None
    return ref.status == 0, None if native is None else native == "optimal"


def test_closed_form_cone_test_matches_the_lp():
    """In d = 1 and d = 2 the closed-form verdict equals the cone LP's,
    from HiGHS and from the native solver wherever that answers (its
    Farkas check can refuse one with components of 1e-11), on random
    vectors whose components are often zero or within 1e-11 of it, on
    integer vectors that make exact ties, and on planar vectors of which
    no single one is <= 0, so that pairs decide."""
    rng = rng_for(504)
    verdicts, pairs, refused = [], 0, 0
    for trial in range(1500):
        d = 2 if trial % 3 == 1 else int(rng.integers(1, 3))
        n = int(rng.integers(1, 7))
        if trial % 3 == 0:
            V = rng.integers(-1, 3, size=(d, n)).astype(float)
        elif trial % 3 == 1:
            # each vector has one positive and one negative component
            V = rng.uniform(0.0, 1.0, size=(d, n))
            V[0] *= rng.choice([-1.0, 1.0], size=n)
            V[1] *= -np.sign(V[0])
        else:
            V = rng.uniform(-0.2, 1.0, size=(d, n))
        kind = rng.uniform(size=(d, n))
        V[kind < 0.1] = 0.0
        near = (kind >= 0.1) & (kind < 0.2)
        V[near] = rng.choice([-1e-11, -5e-12, 5e-12, 1e-11], size=near.sum())
        if not np.abs(V).max() > 0.0:
            continue
        got = radial_mod.cone_interior_empty(list(V.T))
        highs, native = _cone_lp_verdicts(V)
        assert got is highs, (trial, V)
        assert native in (got, None), (trial, V)
        refused += native is None
        verdicts.append(got)
        pairs += got and not (V <= 1e-9).all(axis=0).any()
    # both verdicts are well represented, and pairs decide many
    assert min(sum(verdicts), len(verdicts) - sum(verdicts)) > 300
    assert pairs > 50 and refused < 20
