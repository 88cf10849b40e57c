import numpy as np
import pytest

import pricebounds as pb
from pricebounds import cpwa, ecp, encoding
from pricebounds.ecp import (CutSet, EcpOptions, Separation, solve_ecp,
                             price_pi, compute_lower_phi, verify_hedge,
                             dominating_cash)
from pricebounds.encoding import encode_min
from pricebounds.milp import MilpOptions, solve_milp
from conftest import (rng_for, random_box_instance, grid_points,
                      grid_measure_lp, min_oracle, random_cpwa,
                      function_candidates, function_separation)

EPS = 1e-3


def test_price_pi_unit_vectors(example_box_instance):
    inst = example_box_instance
    assert price_pi([1.0], inst) == pytest.approx(1.0)
    assert price_pi([-1.0], inst) == pytest.approx(0.0)


def test_price_pi_sublinear():
    rng = rng_for(601)
    inst = random_box_instance(rng, 2, 4)
    for _ in range(100):
        y1 = rng.uniform(-2, 2, size=inst.m)
        y2 = rng.uniform(-2, 2, size=inst.m)
        assert price_pi(y1 + y2, inst) <= (price_pi(y1, inst) +
                                           price_pi(y2, inst) + 1e-10)


def test_compute_lower_phi_nonnegative_payoff():
    rng = rng_for(602)
    inst = random_box_instance(rng, 2, 3)
    f = pb.call_on_max(2, [0, 1], 3.0)
    assert compute_lower_phi(inst, f) == 0.0


def test_compute_lower_phi_basket_portfolio():
    rng = rng_for(603)
    inst = random_box_instance(rng, 3, 3)
    f = pb.basket_call([0.0, 0.5, 0.5], 2.0)
    # holding assets 2 and 3 dominates -f trivially (f >= 0 and
    # c0 + x2 + x3 >= 0); the documented floor is minus their asks
    y0 = np.zeros(inst.m)
    y0[1] = 1.0
    y0[2] = 1.0
    phi_low = compute_lower_phi(inst, f, portfolio=(0.0, y0))
    assert phi_low == pytest.approx(-inst.ask[1] - inst.ask[2])


def test_compute_lower_phi_long_call_for_lower_bound():
    rng = rng_for(604)
    inst = random_box_instance(rng, 1, 3)
    call = inst.g[1]  # first vanilla call
    f = cpwa.linear_combination([-1.0], [call])
    y0 = np.zeros(inst.m)
    y0[1] = 1.0
    phi_low = compute_lower_phi(inst, f, portfolio=(0.0, y0))
    assert phi_low == pytest.approx(-inst.ask[1])


def test_compute_lower_phi_rejects_bad_portfolio():
    rng = rng_for(605)
    inst = random_box_instance(rng, 1, 2)
    f = pb.vanilla_call(1, 0, 1.0)
    with pytest.raises(ValueError):
        compute_lower_phi(inst, cpwa.linear_combination([-1.0], [f]))


def test_reference_halfspace_call(example_setting1_instance):
    f = pb.vanilla_call(1, 0, 1.0)
    res = solve_ecp(example_setting1_instance, f,
                    EcpOptions(epsilon=EPS, phi_low=0.0,
                               xbar=np.array([100.0])))
    assert res.status == "ok"
    assert 1.0 - EPS <= res.phi_ub <= 1.0 + EPS
    assert res.phi_lb <= res.phi_ub + 1e-12


def test_reference_box_call_truncation_value(example_box_instance):
    """On the truncated domain [0, 100] the exact price of the unit-
    strike call is 0.99 = (100-1)/100, strictly below the half-space
    value 1."""
    f = pb.vanilla_call(1, 0, 1.0)
    res = solve_ecp(example_box_instance, f,
                    EcpOptions(epsilon=EPS, phi_low=0.0))
    assert res.status == "ok"
    assert res.phi_ub == pytest.approx(0.99, abs=EPS + 1e-9)


def test_zero_payoff_bounds():
    rng = rng_for(606)
    inst = random_box_instance(rng, 2, 4)
    res = solve_ecp(inst, cpwa.zero_function(2),
                    EcpOptions(epsilon=EPS, phi_low=0.0))
    assert res.status == "ok"
    assert abs(res.phi_ub) <= EPS
    assert abs(res.phi_lb) <= EPS


def test_traded_payoff_superhedge():
    rng = rng_for(607)
    inst = random_box_instance(rng, 2, 4)
    res = solve_ecp(inst, inst.g[2], EcpOptions(epsilon=EPS,
                                                phi_low=0.0))
    assert res.phi_ub <= inst.ask[2] + EPS


def test_bracket_and_hedge_verifiability():
    rng = rng_for(608)
    for _ in range(5):
        d = int(rng.integers(1, 3))
        inst = random_box_instance(rng, d, 4)
        f = pb.call_on_max(d, list(range(d)),
                           float(rng.integers(1, 6)))
        res = solve_ecp(inst, f, EcpOptions(epsilon=EPS, phi_low=0.0))
        assert res.status == "ok"
        assert res.phi_ub - res.phi_lb <= EPS + 1e-9
        slack = verify_hedge(inst, f, res.c_star, res.y_star)
        assert slack >= -1e-6


def test_grid_oracle_cross_check():
    rng = rng_for(609)
    inst = random_box_instance(rng, 2, 4, box_hi=5.0, n_atoms=4)
    f = pb.call_on_max(2, [0, 1], 2.0)
    res = solve_ecp(inst, f, EcpOptions(epsilon=EPS, phi_low=0.0))
    pts = grid_points([5.0, 5.0], 0.05)
    out = grid_measure_lp(inst, f, pts)
    assert out is not None
    oracle, _ = out
    # the grid measure under-estimates the sup; the hedge bound caps it
    assert res.phi_ub >= oracle - 1e-7
    assert res.phi_ub <= oracle + 0.2 + EPS  # grid coarseness allowance


def test_support_reuse_converges_fast():
    rng = rng_for(610)
    inst = random_box_instance(rng, 2, 5)
    f = pb.call_on_max(2, [0, 1], 3.0)
    res1 = solve_ecp(inst, f, EcpOptions(epsilon=EPS, phi_low=0.0))
    res2 = solve_ecp(inst, f, EcpOptions(epsilon=EPS, phi_low=0.0,
                                         initial_support=res1.support))
    assert res2.iterations <= 2
    assert res2.phi_ub == pytest.approx(res1.phi_ub, abs=2 * EPS)


def test_default_truncation_box_caveat():
    inst = pb.MarketInstance(dimension=1,
                             domain=pb.HalfSpacePositive(),
                             g=[pb.asset(1, 0)], bid=[0.0], ask=[1.0])
    f = pb.vanilla_call(1, 0, 1.0)
    res = solve_ecp(inst, f, EcpOptions(epsilon=EPS, phi_low=0.0))
    assert "default-truncation-box" in res.caveats


def test_market_instance_validation():
    with pytest.raises(ValueError):
        pb.MarketInstance(dimension=1, domain=pb.Box((10.0,)),
                          g=[pb.asset(1, 0)], bid=[2.0], ask=[1.0])
    with pytest.raises(ValueError):
        pb.MarketInstance(dimension=2, domain=pb.Box((10.0, 10.0)),
                          g=[pb.asset(1, 0)], bid=[0.0], ask=[1.0])


def test_market_instance_rejects_non_finite_quotes():
    for bid, ask, bad in (([1.0, np.nan], [1.1, 0.6], 1),
                          ([1.0, 0.5], [np.inf, 0.6], 0)):
        with pytest.raises(ValueError, match="instrument %d " % bad):
            pb.MarketInstance(dimension=1, domain=pb.Box((10.0,)),
                              g=[pb.asset(1, 0), pb.vanilla_call(1, 0, 1.0)],
                              bid=bid, ask=ask)
    obj = {"d": 1, "domain": {"box": [10.0]},
           "g": [cpwa.to_json_dict(pb.asset(1, 0))],
           "bid": [float("nan")], "ask": [1.0]}
    with pytest.raises(ValueError, match="instrument 0 "):
        pb.MarketInstance.from_json_dict(obj)


def test_instance_json_round_trip():
    rng = rng_for(611)
    inst = random_box_instance(rng, 2, 3)
    clone = pb.MarketInstance.from_json_dict(inst.to_json_dict())
    assert clone.dimension == inst.dimension
    assert np.allclose(clone.bid, inst.bid)
    assert np.allclose(clone.ask, inst.ask)
    x = rng.uniform(0, 20, size=2)
    for g1, g2 in zip(inst.g, clone.g):
        assert cpwa.evaluate(g1, x) == pytest.approx(
            cpwa.evaluate(g2, x), abs=1e-12)


def _cut_set():
    inst = pb.MarketInstance(
        dimension=2, domain=pb.Box((5.0, 5.0)),
        g=[pb.asset(2, 0), pb.vanilla_call(2, 1, 1.0)],
        bid=[1.0, 0.5], ask=[1.1, 0.6])
    return inst, CutSet(inst, pb.call_on_max(2, [0, 1], 2.0),
                        inst.box_array())


def test_cut_set_rounds_and_clips_points():
    _, cuts = _cut_set()
    i, is_new = cuts.add([1.234567, 7.5])
    assert (i, is_new) == (0, True)
    assert cuts.x[0].tolist() == [1.2346, 5.0]
    assert cuts.gx[0].tolist() == [1.2346, 4.0]
    assert cuts.fx[0] == pytest.approx(3.0)
    j, _ = cuts.add([-0.3, 2.00004])
    assert cuts.x[j].tolist() == [0.0, 2.0]


def test_cut_set_duplicate_returns_existing_index():
    _, cuts = _cut_set()
    cuts.add([1.0, 1.0])
    cuts.add([2.0, 3.0])
    assert cuts.add([2.00001, 2.99999]) == (1, False)
    assert cuts.add([2.0, 9.0]) == (2, True)
    assert len(cuts) == 3


def test_cut_set_exact_point_is_not_rounded():
    _, cuts = _cut_set()
    cuts.add([1.0, 1.0])
    i, is_new = cuts.add([1.00001, 1.0], rounded=False)
    assert is_new
    assert cuts.x[i].tolist() == [1.00001, 1.0]
    assert cuts.add([1.00001, 1.0]) == (0, False)


def test_cut_set_payoffs_match_per_instrument_evaluation():
    """A cut's instrument payoffs, evaluated from the stacked pieces, are
    the per-instrument evaluations to 1e-12 relative."""
    rng = rng_for(607)
    for trial in range(20):
        d = int(rng.integers(1, 4))
        extra = [random_cpwa(rng, d) for _ in range(2)]
        inst = random_box_instance(rng, d, 5, extra=extra)
        cuts = CutSet(inst, cpwa.call_on_max(d, list(range(d)), 3.0),
                      inst.box_array())
        for _ in range(10):
            i, _ = cuts.add(rng.uniform(0, 25, size=d))
            ref = [cpwa.evaluate(gj, cuts.x[i]) for gj in inst.g]
            assert np.allclose(cuts.gx[i], ref, rtol=1e-12, atol=1e-12), \
                trial


def test_cut_set_row_layout():
    inst, cuts = _cut_set()
    i, _ = cuts.add([3.0, 4.0])
    row = cuts.row(i, 1 + 2 * inst.m + 3)
    assert row.tolist() == [1.0, 3.0, 3.0, -3.0, -3.0, 0.0, 0.0, 0.0]
    j, _ = cuts.add([1.0, 0.5])
    block = cuts.row([i, j], 1 + 2 * inst.m + 3)
    assert block.shape == (2, 8)
    assert block[0].tolist() == row.tolist()
    assert block[1].tolist() == cuts.row(j, 8).tolist()
    assert cuts.row([], 8).shape == (0, 8)


def test_dominating_cash_is_the_max_over_the_box():
    rng = rng_for(611)
    for d in (1, 2):
        inst = random_box_instance(rng, d, 2)
        for _ in range(8):
            f = random_cpwa(rng, d)
            neg_f = cpwa.linear_combination([-1.0], [f])
            expected = max(0.0, -min_oracle(neg_f, inst.box_array())[0])
            assert dominating_cash(inst, f) == pytest.approx(expected,
                                                             abs=1e-7)


def _separation_market(rng, d, basket):
    """(instance, f): the assets and vanilla calls, with a basket call on
    every asset if `basket`, and a call on the max of all assets, long
    or short at random."""
    extra = [pb.basket_call(rng.uniform(0.2, 1.0, size=d),
                            float(rng.uniform(1, 10)))] if basket else []
    inst = random_box_instance(rng, d, int(rng.integers(1, 2 * d + 2)),
                               extra=extra)
    f = pb.call_on_max(d, list(range(d)), float(rng.uniform(0, 10)))
    if rng.uniform() < 0.5:
        f = cpwa.linear_combination([-1.0], [f])
    return inst, f


def test_compiled_separation_matches_branch_and_bound():
    """At random centers, the separation compiled once per run gives the
    minimum of branch and bound on the center's slack MILP within 1e-9,
    and a pool of points whose values are the slack there and clear the
    threshold of that minimum.  Its candidates are those of the
    instantiated slack, separated as a function of its own, and its pool
    equals that function's after the cut set's rounding.  In d = 1..4,
    with the target long or short, some y_j = 0 and some |y_j| < 1e-7,
    which the MILP prunes.  In d >= 3 a quoted basket held at |y_j| >=
    1e-7 is a second multi-asset term: the separation returns None and
    the solvers fall back to the MILP; held at |y_j| < 1e-7 it is pruned
    from the choice of points, as from the MILP, and the separation
    stands."""
    rng = rng_for(612)
    compiled, fallbacks, pruned, stood = 0, 0, 0, 0
    for trial in range(120):
        d = 1 + trial % 4
        basket = d >= 3 and trial % 3 == 0
        inst, f = _separation_market(rng, d, basket)
        box = inst.box_array()
        separate = Separation(inst.g, f, box)
        template = separate.template
        slack = encoding.CompiledSlack.from_template(template, box)
        threshold = (0.7, 1.0)[trial % 2]
        for _ in range(3):
            y = rng.uniform(-2, 2, size=inst.m)
            y[rng.uniform(size=inst.m) < 0.25] = 0.0
            tiny = rng.uniform(size=inst.m) < 0.2
            y[tiny] *= 1e-11
            c = float(rng.uniform(-5, 5))
            res = separate(c, y, threshold)
            if basket and abs(y[-1]) >= 1e-7:
                assert res is None, trial
                fallbacks += 1
                continue
            assert res is not None, trial
            compiled += 1
            stood += bool(basket and y[-1] != 0)
            h = cpwa.instantiate(template, y)
            enc = encode_min(h, box)
            ref = solve_milp(enc.program,
                             MilpOptions(pool_threshold=threshold),
                             offset=enc.constant + c)
            v, v_ref = res.incumbent_value, ref.incumbent_value
            assert (res.status, res.nodes, res.best_bound) == \
                ("optimal", 0, v), trial
            assert abs(v - v_ref) <= 1e-9 * (1 + abs(v_ref)), trial
            thr = threshold * v_ref if v_ref < 0 else v_ref
            for x, value in res.pool:
                slack_at = c + y @ [cpwa.evaluate(gj, x) for gj in inst.g] \
                    - cpwa.evaluate(f, x)
                assert abs(value - slack_at) <= 1e-9 * (1 + abs(value)), \
                    trial
                assert value <= thr + 1e-9 * (1 + abs(v_ref)), trial
            pruned += bool(tiny.any())
            # the instantiated slack's own candidates and pool, to 9 and 4
            # decimals
            assert np.array_equal(
                *(np.unique(np.round(x, 9), axis=0) for x in (
                    slack.points(slack.W @ y + slack.z),
                    function_candidates(h, box)))), trial
            alone = function_separation(h, box)(c, np.zeros(0), threshold)
            assert ({tuple(np.round(x, 4)) for x, _ in res.pool} ==
                    {tuple(np.round(x, 4)) for x, _ in alone.pool}), trial
    assert compiled > 250 and fallbacks > 10 and pruned > 50 and stood > 0


def test_a_separation_value_that_fails_its_check_falls_back(monkeypatch):
    """A compiled value that is not the slack at its point, as cpwa
    evaluates it, makes the separation return None, and ECP solves each
    center's MILP by branch and bound instead, with the same bounds.
    Branch and bound pools fewer points than the candidates, so the run
    may take more separations, but at most twice as many (10 against 6
    here)."""
    rng = rng_for(613)
    inst = random_box_instance(rng, 3, 4)
    f = pb.call_on_max(3, [0, 1, 2], 5.0)
    y = rng.uniform(-1, 1, size=inst.m)
    assert Separation(inst.g, f, inst.box_array())(0.5, y, 0.7) is not None
    exact = solve_ecp(inst, f, EcpOptions(epsilon=EPS))
    minimize = encoding.CompiledSlack.minimize

    def off(self, y, offset, threshold):
        res = minimize(self, y, offset, threshold)
        res.pool = [(x, v + 1e-6) for x, v in res.pool]
        return res

    monkeypatch.setattr(encoding.CompiledSlack, "minimize", off)
    assert Separation(inst.g, f, inst.box_array())(0.5, y, 0.7) is None
    solved = []
    encode = ecp.encode_min
    monkeypatch.setattr(ecp, "encode_min",
                        lambda *a: solved.append(1) or encode(*a))
    res = solve_ecp(inst, f, EcpOptions(epsilon=EPS))
    assert len(solved) == res.milp_count <= 2 * exact.milp_count
    assert (res.phi_lb, res.phi_ub) == pytest.approx(
        (exact.phi_lb, exact.phi_ub), abs=1e-9)
