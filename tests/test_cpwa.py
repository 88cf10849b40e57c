import json

import numpy as np
import pytest

from pricebounds import cpwa
from pricebounds.encoding import big_m, encode_min, minimize_over_box
from pricebounds.milp import solve_milp
from conftest import rng_for, random_cpwa


def test_evaluate_vanilla_call():
    f = cpwa.vanilla_call(1, 0, 2.0)
    assert cpwa.evaluate(f, [5.0]) == 3.0
    assert cpwa.evaluate(f, [1.0]) == 0.0


def test_radial_of_vanilla_call_is_identity():
    f = cpwa.vanilla_call(1, 0, 2.0)
    r = cpwa.radial(f)
    for z in (0.0, 0.5, 3.0):
        assert cpwa.evaluate(r, [z]) == pytest.approx(z, abs=1e-12)


def test_radial_of_constant_is_zero():
    f = cpwa.constant_function(2, 7.5)
    r = cpwa.radial(f)
    for z in ([0.0, 0.0], [1.0, 2.0], [3.0, 0.1]):
        assert cpwa.evaluate(r, z) == 0.0


def test_radial_matches_asymptotic_slope():
    rng = rng_for(101)
    T = 1e6
    for _ in range(50):
        d = int(rng.integers(1, 4))
        f = random_cpwa(rng, d)
        r = cpwa.radial(f)
        z = rng.uniform(0, 3, size=d)
        quotient = (cpwa.evaluate(f, 2 * T * z) -
                    cpwa.evaluate(f, T * z)) / T
        expected = cpwa.evaluate(r, z)
        assert quotient == pytest.approx(expected,
                                         rel=1e-6, abs=1e-6)


def test_linear_combination_identity():
    rng = rng_for(102)
    f = random_cpwa(rng, 2)
    g = random_cpwa(rng, 2)
    h = cpwa.linear_combination([1.0, 0.0], [f, g])
    for _ in range(100):
        x = rng.uniform(0, 10, size=2)
        assert cpwa.evaluate(h, x) == pytest.approx(
            cpwa.evaluate(f, x), abs=1e-10)


def test_linear_combination_negated_call():
    kappa = 2.0
    h = cpwa.linear_combination([-1.0], [cpwa.vanilla_call(1, 0, kappa)])
    assert cpwa.evaluate(h, [kappa + 3.0]) == pytest.approx(-3.0)


def test_linear_combination_portfolio_vs_direct():
    g1 = cpwa.vanilla_call(1, 0, 1.0)
    g2 = cpwa.vanilla_call(1, 0, 3.0)
    f = cpwa.vanilla_call(1, 0, 2.0)
    h = cpwa.linear_combination([2.0, -1.0, -1.0], [g1, g2, f])
    for x in np.linspace(0.0, 6.0, 61):
        direct = (2.0 * max(x - 1.0, 0.0) - max(x - 3.0, 0.0) -
                  max(x - 2.0, 0.0))
        assert cpwa.evaluate(h, [x]) == pytest.approx(direct, abs=1e-12)


def test_linear_combination_empty_rejected():
    with pytest.raises(ValueError):
        cpwa.linear_combination([], [])


def test_call_on_min_two_term_structure():
    f = cpwa.call_on_min(2, [0, 1], 1.5)
    signs = [t.sign for t in f.terms]
    assert signs == [1, -1]
    for x in ([0.0, 0.0], [2.0, 3.0], [1.0, 5.0], [1.6, 1.7]):
        expected = max(min(x) - 1.5, 0.0)
        assert cpwa.evaluate(f, x) == pytest.approx(expected, abs=1e-12)


def test_basket_call_arithmetic():
    f = cpwa.basket_call([0.2] * 5, 3.0)
    assert cpwa.evaluate(f, [5.0] * 5) == pytest.approx(2.0)


def test_best_of_calls():
    f = cpwa.best_of_calls(2, [0, 1], [1.0, 2.0])
    assert cpwa.evaluate(f, [0.0, 5.0]) == pytest.approx(3.0)


def test_constructors_match_closed_forms():
    rng = rng_for(103)
    d = 3
    payoffs = [
        (cpwa.vanilla_call(d, 1, 2.0),
         lambda x: max(x[1] - 2.0, 0.0)),
        (cpwa.vanilla_put(d, 0, 3.0),
         lambda x: max(3.0 - x[0], 0.0)),
        (cpwa.asset(d, 2), lambda x: x[2]),
        (cpwa.basket_call([0.5, 0.3, 0.2], 1.0),
         lambda x: max(0.5 * x[0] + 0.3 * x[1] + 0.2 * x[2] - 1, 0.0)),
        (cpwa.spread_call(d, 0, 2, -1.0),
         lambda x: max(x[0] - x[2] + 1.0, 0.0)),
        (cpwa.call_on_max(d, [0, 1, 2], 2.0),
         lambda x: max(max(x) - 2.0, 0.0)),
        (cpwa.call_on_min(d, [0, 1, 2], 2.0),
         lambda x: max(min(x) - 2.0, 0.0)),
        (cpwa.put_on_min(d, [0, 1], 2.0),
         lambda x: max(2.0 - min(x[0], x[1]), 0.0)),
    ]
    xs = rng.uniform(0, 6, size=(1000, d))
    for f, closed in payoffs:
        vals = cpwa.evaluate_many(f, xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(closed(x), abs=1e-10)


def test_strike_sign_validation():
    with pytest.raises(ValueError):
        cpwa.call_on_max(2, [0, 1], -1.0)
    with pytest.raises(ValueError):
        cpwa.call_on_min(2, [0, 1], -0.5)


def test_make_payoff_dispatch():
    f = cpwa.make_payoff("vanilla_call", {"d": 1, "asset": 0,
                                          "strike": 2.0})
    assert cpwa.evaluate(f, [5.0]) == 3.0
    with pytest.raises(ValueError):
        cpwa.make_payoff("digital", {})


def test_slack_template_zero_portfolio():
    rng = rng_for(104)
    g = [random_cpwa(rng, 2) for _ in range(3)]
    f = random_cpwa(rng, 2)
    tmpl = cpwa.slack_template(g, f)
    s = cpwa.instantiate(tmpl, np.zeros(3))
    for _ in range(20):
        x = rng.uniform(0, 5, size=2)
        assert cpwa.evaluate(s, x) == pytest.approx(
            -cpwa.evaluate(f, x), abs=1e-12)


def test_slack_template_single_asset():
    tmpl = cpwa.slack_template([cpwa.asset(1, 0)],
                               cpwa.zero_function(1))
    s = cpwa.instantiate(tmpl, [2.0])
    assert cpwa.evaluate(s, [3.0]) == pytest.approx(6.0)


def test_slack_template_random_vs_direct():
    rng = rng_for(105)
    g = [random_cpwa(rng, 2) for _ in range(3)]
    f = random_cpwa(rng, 2)
    tmpl = cpwa.slack_template(g, f)
    for _ in range(50):
        y = rng.uniform(-3, 3, size=3)
        x = rng.uniform(0, 5, size=2)
        s = cpwa.instantiate(tmpl, y)
        direct = (sum(yj * cpwa.evaluate(gj, x)
                      for yj, gj in zip(y, g)) - cpwa.evaluate(f, x))
        assert cpwa.evaluate(s, x) == pytest.approx(direct, abs=1e-12)


def test_radial_template_drops_offsets():
    g = [cpwa.vanilla_call(1, 0, 2.0)]
    tmpl = cpwa.radial_template(cpwa.slack_template(g,
                                                    cpwa.zero_function(1)))
    s = cpwa.instantiate(tmpl, [1.0])
    assert cpwa.evaluate(s, [3.0]) == pytest.approx(3.0)


def test_prune_drops_tiny_pieces():
    """The encoder replaces a tiny piece of a multi-piece term by an exact
    zero piece: the program is that of max(x - 2, 0), not of max(x - 2,
    1e-9 x + 1e-9), whose minimum over [0, 5] is 1e-9.  minimize_over_box
    values the function itself, unpruned, and builds no program."""
    f = cpwa.make_function(1, [(1, [(np.array([1.0]), -2.0),
                                    (np.array([1e-9]), 1e-9)])])
    assert big_m(f, [5.0]) == [[2.0, 3.0]]
    enc = encode_min(f, [5.0])
    assert enc.program.base.A[:, 0].tolist() == [1.0, 0.0]
    assert enc.program.base.b.tolist() == [2.0, 0.0]
    res = solve_milp(enc.program, offset=enc.constant)
    assert res.incumbent_value == pytest.approx(0.0, abs=1e-12)
    enc, res = minimize_over_box(f, [5.0])
    assert enc is None
    assert res.incumbent_value == 1e-9


def test_json_round_trip():
    rng = rng_for(106)
    for _ in range(10):
        f = random_cpwa(rng, int(rng.integers(1, 4)))
        obj = cpwa.to_json_dict(f)
        g = cpwa.from_json_dict(json.loads(json.dumps(obj)))
        for _ in range(10):
            x = rng.uniform(0, 5, size=f.dimension)
            assert cpwa.evaluate(g, x) == pytest.approx(
                cpwa.evaluate(f, x), abs=1e-12)


def test_stacked_matches_evaluate():
    """Evaluating several functions at once from their stacked pieces
    gives evaluate's values to 1e-12 relative."""
    rng = rng_for(205)
    for trial in range(200):
        d = int(rng.integers(1, 4))
        fs = [random_cpwa(rng, d, max_terms=4, max_pieces=4)
              for _ in range(int(rng.integers(1, 8)))]
        at = cpwa.Stacked(fs)
        for _ in range(5):
            x = rng.uniform(0, 10, size=d)
            ref = np.array([cpwa.evaluate(f, x) for f in fs])
            assert np.allclose(at(x), ref, rtol=1e-12, atol=1e-12), trial
        # a block of points is evaluated row by row
        xs = rng.uniform(0, 10, size=(4, d))
        ref = np.array([[cpwa.evaluate(f, x) for f in fs] for x in xs])
        assert np.allclose(at(xs), ref, rtol=1e-12, atol=1e-12), trial
    assert cpwa.Stacked([])(np.zeros(2)).shape == (0,)
    assert cpwa.Stacked([])(np.zeros((3, 2))).shape == (3, 0)


def test_stacked_means_match_evaluate_many():
    """Means over more rows than one block, of functions that share piece
    directions, agree with evaluate_many's means to 1e-12 of the mean
    absolute value."""
    rng = rng_for(206)
    n = cpwa.MEAN_BLOCK_ROWS + 123
    for trial in range(10):
        d = int(rng.integers(1, 4))
        fs = [random_cpwa(rng, d, max_terms=3, max_pieces=4)
              for _ in range(4)]
        fs += [cpwa.call_on_min(d, list(range(d)), 1.0),
               cpwa.linear_combination([1.0, -1.0], fs[:2])]
        xs = rng.uniform(0, 10, size=(n, d))
        vals = [cpwa.evaluate_many(f, xs) for f in fs]
        ref = np.array([v.mean() for v in vals])
        scale = np.array([np.abs(v).mean() for v in vals])
        means = cpwa.Stacked(fs).means(xs)
        assert np.all(np.abs(means - ref) <= 1e-12 * scale), trial
    assert cpwa.Stacked([]).means(np.zeros((3, 2))).shape == (0,)


def _two_pass_means(fs, dirs, xs):
    """Stacked.means without its shortcuts: the same block products,
    every piece through at[i] + b, zero directions included, and every
    term through total = total + sign * top, the first one included."""
    sums = np.zeros(len(fs))
    for row in range(0, len(xs), cpwa.MEAN_BLOCK_ROWS):
        at = dirs @ xs[row:row + cpwa.MEAN_BLOCK_ROWS].T
        for j, f in enumerate(fs):
            total = 0.0
            for t in f.terms:
                rows = [(np.flatnonzero((dirs == a).all(axis=1))[0], b)
                        for a, b in t.pieces]
                (i, b), *rest = rows
                top = at[i] + b
                for i, b in rest:
                    np.maximum(top, at[i] + b, out=top)
                total = total + t.sign * top
            sums[j] += total.sum()
    return sums / len(xs)


def test_stacked_means_equal_the_two_pass_means_bit_for_bit():
    """Constant terms, several zero-direction pieces in one term, and
    negative first terms: dropping the dead passes changes no bit."""
    rng = rng_for(207)
    n = cpwa.MEAN_BLOCK_ROWS + 55
    for trial in range(6):
        d = int(rng.integers(1, 4))
        zero, ones = np.zeros(d), np.ones(d)
        fs = [random_cpwa(rng, d, max_terms=3, max_pieces=4)
              for _ in range(3)]
        fs += [cpwa.constant_function(d, 2.5),
               cpwa.call_on_max(d, list(range(d)), 1.0),
               cpwa.make_function(d, [
                   (-1, [(zero, 1.0), (ones, -3.0), (zero, 2.0)]),
                   (1, [(zero, -1.0)]), (-1, [(-ones, 4.0), (zero, 0.5)])]),
               cpwa.linear_combination([-1.0, 1.0], fs[:2])]
        stacked = cpwa.Stacked(fs)
        xs = rng.uniform(0, 10, size=(n, d))
        assert np.array_equal(stacked.means(xs),
                              _two_pass_means(fs, stacked.dirs, xs)), trial
