import json

import numpy as np
import pytest

import pricebounds as pb
from pricebounds.arbitrage import (OptionChain, repair_chain,
                                   chain_to_instance, detect,
                                   filter_outliers)
from conftest import rng_for


def consistent_chain(rng=None, strikes=(1.0, 2.0, 3.0), spread=0.01):
    """Chain priced by an explicit discrete measure, hence consistent."""
    atoms = {0.0: 0.15, 0.8: 0.2, 1.7: 0.25, 2.6: 0.2, 5.5: 0.2}
    ks = np.asarray(strikes, dtype=float)
    call = np.array([sum(m * max(x - k, 0.0) for x, m in atoms.items())
                     for k in ks])
    put = np.array([sum(m * max(k - x, 0.0) for x, m in atoms.items())
                    for k in ks])
    return OptionChain(ks, call - spread, call + spread,
                       put - spread, put + spread, xbar=6.0)


def test_chain_validation():
    with pytest.raises(ValueError):
        OptionChain([2.0, 1.0], [1, 1], [1, 1], [1, 1], [1, 1])
    with pytest.raises(ValueError):
        OptionChain([1.0], [1.0], [0.5], [0.1], [0.2])
    with pytest.raises(ValueError):
        OptionChain([1.0], [0.1], [0.2], [0.1], [0.2], xbar=0.5)


def test_default_xbar_doubles_last_strike():
    c = OptionChain([1.0, 4.0], [3, 1], [3, 1], [0.1, 1], [0.2, 1.1])
    assert c.xbar == 8.0


def test_consistent_chain_zero_adjustment():
    res = repair_chain(consistent_chain())
    assert res.objective == pytest.approx(0.0, abs=1e-7)
    assert res.max_change <= 1e-7
    assert res.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.min_mass >= 1e-6 - 1e-12


def test_monotonicity_violation_repaired():
    bad = OptionChain([1.0, 2.0], [0.45, 0.6], [0.5, 0.65],
                      [0.1, 0.3], [0.15, 0.35])
    assert not detect(chain_to_instance(bad)).arbitrage_free
    res = repair_chain(bad)
    assert res.objective > 1e-4
    assert detect(chain_to_instance(res.chain)).arbitrage_free


def test_certificate_prices_inside_adjusted_bands():
    rng = rng_for(801)
    for trial in range(5):
        ks = np.sort(rng.uniform(0.5, 5.0, size=4))
        ks += np.arange(4) * 1e-3  # enforce strict increase
        chain = OptionChain(ks, rng.uniform(0, 2, 4),
                            rng.uniform(2, 3, 4),
                            rng.uniform(0, 1, 4),
                            rng.uniform(1, 2, 4))
        res = repair_chain(chain)
        assert res.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        for j, k in enumerate(res.chain.strikes):
            c = res.certificate_call_price(k)
            p = res.certificate_put_price(k)
            assert res.chain.call_bid[j] - 1e-8 <= c \
                <= res.chain.call_ask[j] + 1e-8
            assert res.chain.put_bid[j] - 1e-8 <= p \
                <= res.chain.put_ask[j] + 1e-8


def test_repair_idempotent():
    bad = OptionChain([1.0, 2.0], [0.45, 0.6], [0.5, 0.65],
                      [0.1, 0.3], [0.15, 0.35])
    first = repair_chain(bad)
    second = repair_chain(first.chain)
    assert second.objective == pytest.approx(0.0, abs=1e-7)


def test_l1_optimality_perturbation():
    """Shrinking any strictly positive adjustment by 1e-4 must break
    certificate feasibility (otherwise the LP optimum was not
    minimal)."""
    rng = rng_for(802)
    checked = 0
    for trial in range(10):
        ks = np.sort(rng.uniform(0.5, 5.0, size=3)) + \
            np.arange(3) * 1e-3
        chain = OptionChain(ks, rng.uniform(0.5, 2, 3),
                            rng.uniform(2, 2.5, 3),
                            rng.uniform(0.5, 1.5, 3),
                            rng.uniform(1.5, 2, 3))
        res = repair_chain(chain)
        if res.objective < 1e-6:
            continue
        shrink = 1e-4
        names = ["v_call_minus", "v_call_plus", "v_put_minus",
                 "v_put_plus"]
        for name in names:
            v = getattr(res, name)
            for j in np.flatnonzero(v > shrink):
                trial_chain = OptionChain(
                    chain.strikes,
                    chain.call_bid - res.v_call_minus,
                    chain.call_ask + res.v_call_plus,
                    chain.put_bid - res.v_put_minus,
                    chain.put_ask + res.v_put_plus,
                    xbar=chain.xbar)
                arr = {"v_call_minus": trial_chain.call_bid,
                       "v_call_plus": trial_chain.call_ask,
                       "v_put_minus": trial_chain.put_bid,
                       "v_put_plus": trial_chain.put_ask}[name]
                arr[j] += shrink if name.endswith("minus") else -shrink
                tightened = repair_chain(trial_chain)
                assert tightened.objective > 1e-7
                checked += 1
    assert checked > 0


def test_eta_too_large_rejected():
    with pytest.raises(ValueError):
        repair_chain(consistent_chain(), eta=0.5)


def test_outlier_filter():
    chain = consistent_chain()
    # corrupt one strike's call mid far above the domain bound xbar - k
    call_ask = chain.call_ask.copy()
    call_bid = chain.call_bid.copy()
    call_bid[1] = 50.0
    call_ask[1] = 60.0
    bad = OptionChain(chain.strikes, call_bid, call_ask, chain.put_bid,
                      chain.put_ask, xbar=chain.xbar)
    filtered, dropped = filter_outliers(bad, threshold=1.0)
    assert dropped == [1]
    assert filtered.m == 2
    res = repair_chain(bad, outlier_threshold=1.0)
    assert res.objective == pytest.approx(0.0, abs=1e-7)


def test_detect_intrinsic_floor_violation():
    inst = pb.MarketInstance(
        dimension=1, domain=pb.Box((10.0,)),
        g=[pb.asset(1, 0), pb.vanilla_call(1, 0, 1.0)],
        bid=[5.0, 0.4], ask=[5.0, 0.5])
    res = detect(inst)
    assert not res.arbitrage_free
    c, y = res.strategy
    assert res.cost < 0
    assert res.domination_slack >= -1e-9
    # the certified strategy is a genuine arbitrage: nonnegative payoff
    # at strictly negative cost
    from pricebounds import cpwa
    slack = pb.verify_hedge(inst, cpwa.zero_function(1), c, y,
                            box=[10.0])
    assert slack >= -1e-6


def test_detect_halfspace_instance():
    inst = pb.MarketInstance(
        dimension=1, domain=pb.HalfSpacePositive(),
        g=[pb.asset(1, 0), pb.vanilla_call(1, 0, 1.0)],
        bid=[0.0, 0.0], ask=[1.0, 0.9])
    res = detect(inst)
    assert res.arbitrage_free


def test_detect_halfspace_chain_arbitrage():
    """Asset, calls and puts at three strikes on R_+, priced by the
    discrete measure of `consistent_chain` except that the second
    call's bid is above the first call's ask."""
    atoms = {0.0: 0.15, 0.8: 0.2, 1.7: 0.25, 2.6: 0.2, 5.5: 0.2}
    ks = [1.0, 2.0, 3.0]
    call = [sum(p * max(x - k, 0.0) for x, p in atoms.items()) for k in ks]
    put = [sum(p * max(k - x, 0.0) for x, p in atoms.items()) for k in ks]
    mean = sum(p * x for x, p in atoms.items())
    mid = np.array([mean] + call + put)
    bid, ask = mid - 0.01, mid + 0.01
    bid[2] = ask[1] + 0.05
    ask[2] = bid[2] + 0.02
    inst = pb.MarketInstance(
        dimension=1, domain=pb.HalfSpacePositive(),
        g=([pb.asset(1, 0)] + [pb.vanilla_call(1, 0, k) for k in ks] +
           [pb.vanilla_put(1, 0, k) for k in ks]),
        bid=bid, ask=ask)
    res = detect(inst)
    assert res.arbitrage_free is False
    assert res.cost < 0
    assert res.domination_slack >= 0


def test_detect_ignores_a_cost_left_by_rounding(monkeypatch):
    """A consistent market's zero payoff costs 0 to superhedge; a solve
    that ends a few ulps below zero (here a short position of 1.65e-18 in
    the last instrument, as a re-solved relaxed LP once returned) is no
    arbitrage."""
    from pricebounds import arbitrage
    chain = consistent_chain()
    inst = chain_to_instance(chain)
    y = np.zeros(inst.m)
    y[-1] = -1.65e-18
    cost = -1.65e-18 * inst.bid[-1]
    rounded = pb.BoundsResult(phi_lb=cost, phi_ub=cost, c_star=0.0,
                              y_star=y, support=[],
                              status="unbounded_arbitrage")
    monkeypatch.setattr(arbitrage, "solve_accp",
                        lambda *args, **kwargs: (rounded, None))
    assert detect(inst).arbitrage_free


def test_chain_json_round_trip():
    chain = consistent_chain()
    clone = OptionChain.from_json_dict(
        json.loads(json.dumps(chain.to_json_dict())))
    assert np.allclose(clone.strikes, chain.strikes)
    assert np.allclose(clone.call_bid, chain.call_bid)
    assert clone.xbar == chain.xbar
