import numpy as np
import pytest

import pricebounds as pb
from pricebounds import accp, cpwa
from pricebounds.ecp import EcpOptions, solve_ecp, verify_hedge
from pricebounds.accp import (AccpOptions, LpContradictionError, solve_accp,
                              extract_measure, detect_unbounded_flag)
from conftest import (rng_for, random_box_instance, grid_points,
                      grid_measure_lp)

EPS = 1e-3


def test_reference_box_call(example_box_instance):
    """Truncated single-asset market: the exact call price is 0.99 and
    both algorithms agree within 2 epsilon."""
    f = pb.vanilla_call(1, 0, 1.0)
    res, dagger = solve_accp(example_box_instance, f,
                             AccpOptions(epsilon=EPS, phi_low=0.0))
    assert res.status == "ok"
    assert res.phi_ub == pytest.approx(0.99, abs=EPS + 1e-9)
    assert res.phi_ub - res.phi_lb <= EPS + 1e-12
    ecp = solve_ecp(example_box_instance, f,
                    EcpOptions(epsilon=EPS, phi_low=0.0))
    assert abs(res.phi_ub - ecp.phi_ub) <= 2 * EPS
    assert abs(res.phi_lb - ecp.phi_lb) <= 2 * EPS


def test_zero_payoff_consistent_market():
    rng = rng_for(701)
    inst = random_box_instance(rng, 2, 5)
    res, _ = solve_accp(inst, cpwa.zero_function(2),
                        AccpOptions(epsilon=EPS, phi_low=0.0,
                                    initial_portfolio=(0.0,
                                                       np.zeros(inst.m))))
    assert res.status == "ok"
    assert res.phi_lb > -EPS
    assert res.phi_ub <= 0.0 + 1e-12
    assert not detect_unbounded_flag(res)


def test_bracket_hedge_and_measure():
    rng = rng_for(702)
    for _ in range(4):
        d = int(rng.integers(1, 3))
        inst = random_box_instance(rng, d, 4)
        f = pb.call_on_max(d, list(range(d)),
                           float(rng.integers(1, 6)))
        res, dagger = solve_accp(inst, f, AccpOptions(epsilon=EPS))
        assert res.status == "ok"
        assert res.phi_ub - res.phi_lb <= EPS + 1e-12
        assert verify_hedge(inst, f, res.c_star, res.y_star) >= -1e-6
        assert dagger is not None
        mu = extract_measure(inst, f, dagger[2], interior_ok=dagger[3])
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-9)
        gx = np.array([[cpwa.evaluate(gj, x) for gj in inst.g]
                       for x, _ in mu.atoms])
        w = np.array([m for _, m in mu.atoms])
        priced = w @ gx
        assert np.all(priced >= inst.bid - 1e-7)
        assert np.all(priced <= inst.ask + 1e-7)
        assert mu.value == pytest.approx(res.phi_lb, abs=1e-6)
        assert mu.expectation(f) == pytest.approx(mu.value, abs=1e-9)


def test_single_atom_measure():
    rng = rng_for(703)
    inst = random_box_instance(rng, 1, 2)
    # a point pricing every instrument inside its band: use an atom of
    # the generating measure family; search the grid for one
    pts = grid_points([20.0], 0.05)
    out = grid_measure_lp(inst, cpwa.zero_function(1), pts)
    assert out is not None
    _, w = out
    # any single grid point with full mass inside the bands
    candidates = [pts[i] for i in range(len(pts))
                  if all(inst.bid[j] - 1e-9 <= cpwa.evaluate(gj, pts[i])
                         <= inst.ask[j] + 1e-9
                         for j, gj in enumerate(inst.g))]
    if candidates:
        x0 = candidates[0]
        mu = extract_measure(inst, cpwa.zero_function(1), [x0])
        assert len(mu.atoms) == 1
        assert mu.atoms[0][1] == pytest.approx(1.0, abs=1e-9)


def test_reference_box_measure_value(example_box_instance):
    f = pb.vanilla_call(1, 0, 1.0)
    res, dagger = solve_accp(example_box_instance, f,
                             AccpOptions(epsilon=EPS, phi_low=0.0))
    mu = extract_measure(example_box_instance, f, dagger[2])
    assert mu.value == pytest.approx(res.phi_lb, abs=1e-6)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_grid_oracle_cross_check():
    rng = rng_for(704)
    inst = random_box_instance(rng, 2, 4, box_hi=5.0, n_atoms=4)
    f = pb.call_on_max(2, [0, 1], 2.0)
    res, _ = solve_accp(inst, f, AccpOptions(epsilon=EPS))
    pts = grid_points([5.0, 5.0], 0.05)
    out = grid_measure_lp(inst, f, pts)
    assert out is not None
    oracle, _ = out
    assert res.phi_ub >= oracle - 1e-7
    assert res.phi_ub <= oracle + 0.2 + EPS


def test_mispriced_instance_flagged():
    # asset quoted at [5, 5]; its strike-1 call asked far below the
    # forward floor x - 1 creates an arbitrage
    inst = pb.MarketInstance(
        dimension=1, domain=pb.Box((10.0,)),
        g=[pb.asset(1, 0), pb.vanilla_call(1, 0, 1.0)],
        bid=[5.0, 0.4], ask=[5.0, 0.5])
    res, _ = solve_accp(inst, cpwa.zero_function(1),
                        AccpOptions(epsilon=EPS, phi_low=0.0,
                                    initial_portfolio=(0.0,
                                                       np.zeros(2))))
    assert detect_unbounded_flag(res)


def test_requires_box_domain():
    inst = pb.MarketInstance(dimension=1,
                             domain=pb.HalfSpacePositive(),
                             g=[pb.asset(1, 0)], bid=[0.0], ask=[1.0])
    with pytest.raises(ValueError):
        solve_accp(inst, cpwa.zero_function(1), AccpOptions())


def test_tau_must_exceed_epsilon():
    rng = rng_for(705)
    inst = random_box_instance(rng, 1, 2)
    with pytest.raises(ValueError):
        solve_accp(inst, cpwa.zero_function(1),
                   AccpOptions(epsilon=0.5, tau=0.5))


def test_initial_portfolio_must_dominate():
    rng = rng_for(706)
    inst = random_box_instance(rng, 1, 2)
    f = pb.vanilla_call(1, 0, 1.0)
    with pytest.raises(ValueError):
        solve_accp(inst, f, AccpOptions(
            initial_portfolio=(0.0, np.zeros(inst.m))))


def test_initial_portfolio_must_lie_inside_the_hedge_box():
    """A dominating initial portfolio with |y_j| > Y_BAR - 1 is refused:
    the Chebyshev LPs search hedges with |y_j| <= Y_BAR."""
    inst = pb.MarketInstance(dimension=1, domain=pb.Box((10.0,)),
                             g=[pb.asset(1, 0)], bid=[1.0], ask=[1.2])
    y0 = np.array([accp.Y_BAR - 0.5])
    with pytest.raises(ValueError, match="bounding box"):
        solve_accp(inst, cpwa.zero_function(1), AccpOptions(
            phi_low=0.0, initial_portfolio=(0.0, y0)))


def test_support_reuse():
    rng = rng_for(707)
    inst = random_box_instance(rng, 2, 4)
    f = pb.call_on_max(2, [0, 1], 3.0)
    res1, _ = solve_accp(inst, f, AccpOptions(epsilon=EPS))
    res2, _ = solve_accp(inst, f, AccpOptions(
        epsilon=EPS, initial_support=res1.support))
    assert res2.phi_ub == pytest.approx(res1.phi_ub, abs=2 * EPS)
    assert res2.milp_count <= res1.milp_count + 2


def test_empty_band_without_a_higher_lower_bound_raises(monkeypatch,
                                                        example_box_instance):
    """If the Chebyshev LP calls the band empty but the lower-bound LP
    does not lie above it, the bracket cannot move: ACCP must raise, not
    solve the same two LPs again."""
    monkeypatch.setattr(accp, "chebyshev_center", lambda *a, **k: None)
    with pytest.raises(LpContradictionError):
        solve_accp(example_box_instance, pb.vanilla_call(1, 0, 1.0),
                   AccpOptions(epsilon=EPS, phi_low=0.0))


def test_bracket_closes_when_the_gap_is_below_two_eps(monkeypatch):
    """A center in the band gains at least half the gap, which is less than
    eps once the gap is below 2 eps.  On these single-asset instances ACCP
    used to stop moving its bounds there and cycle until the iteration
    limit, which is lowered to 200 so that a return of the cycle fails
    fast."""
    monkeypatch.setattr(accp, "MAX_ITERATIONS", 200)
    rng = rng_for(402)
    for n_calls in (3, 3, 3, 4, 4):
        inst = random_box_instance(rng, 1, n_calls)
        strike = float(rng.integers(1, 8))
        f = pb.vanilla_call(1, int(rng.integers(1)), strike)
        res, _ = solve_accp(inst, f, AccpOptions(epsilon=EPS, phi_low=0.0))
        assert res.status == "ok"
        assert res.phi_ub - res.phi_lb <= EPS + 1e-12
        assert verify_hedge(inst, f, res.c_star, res.y_star) >= -1e-6


def test_one_slack_milp_per_center(monkeypatch):
    """ACCP separates the center of each non-empty band with one slack
    MILP, solved to its gap, and counts each one.  The slack MILPs of a
    call on the min of three assets reach branch and bound."""
    rng = rng_for(706)
    inst = random_box_instance(rng, 3, 4)
    f = pb.call_on_min(3, [0, 1, 2], 1.0)
    centers, nodes = [], []
    center_of, solve = accp.chebyshev_center, accp.solve_milp

    def counted_center(*args, **kwargs):
        center = center_of(*args, **kwargs)
        centers.append(center is not None)
        return center

    def counted_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(accp, "chebyshev_center", counted_center)
    monkeypatch.setattr(accp, "solve_milp", counted_solve)
    res, _ = solve_accp(inst, f, AccpOptions(epsilon=EPS))
    assert res.status == "ok"
    assert len(nodes) == sum(centers) == res.milp_count
    assert sum(nodes) == res.milp_nodes > 0
