import numpy as np
import pytest
from scipy import stats, integrate
from scipy.special import stdtr

from pricebounds import cpwa, market
from conftest import rng_for


def _quad_call(mu, s2, xbar, k):
    sigma = np.sqrt(s2)
    alpha = stats.norm.cdf((np.log(xbar) - mu) / sigma)

    def f(x):
        return (max(x - k, 0.0) *
                stats.lognorm.pdf(x, sigma, scale=np.exp(mu)) / alpha)
    val, _ = integrate.quad(f, 0, xbar, limit=200)
    return val


def test_closed_form_call_vs_quadrature():
    for mu, s2, xbar, k in [(0.5, 0.2, 100.0, 3.0),
                            (1.0, 0.4, 100.0, 0.0),
                            (0.0, 0.5, 20.0, 2.5),
                            (-0.3, 0.8, 100.0, 1.0),
                            (0.5, 0.3, 10.0, 8.0)]:
        cf = market.trunc_lognorm_call_price(mu, s2, xbar, k)
        assert cf == pytest.approx(_quad_call(mu, s2, xbar, k),
                                   abs=1e-7)


def test_put_call_parity():
    for k in (0.5, 1.0, 4.0):
        call = market.trunc_lognorm_call_price(0.5, 0.2, 100.0, k)
        put = market.trunc_lognorm_put_price(0.5, 0.2, 100.0, k)
        mean = market.trunc_lognorm_call_price(0.5, 0.2, 100.0, 0.0)
        assert call - put == pytest.approx(mean - k, abs=1e-10)
        assert put >= 0


def test_strike_beyond_truncation_is_free():
    assert market.trunc_lognorm_call_price(0.5, 0.2, 10.0, 12.0) == 0.0


def _two_asset_model():
    marg = market.MarginalModel([0.5, 1.0], [0.2, 0.4], [100.0, 100.0])
    cop = market.CopulaModel(np.array([[0.6, 0.3], [0.5, -0.4]]), nu=4.0)
    return marg, cop


def test_samples_respect_truncation():
    marg, cop = _two_asset_model()
    xs = market.sample_joint(marg, cop, 20000, seed=5)
    assert xs.shape == (20000, 2)
    assert xs.min() >= 0.0
    assert xs.max() <= 100.0


def test_marginals_match_truncated_lognormal():
    marg, cop = _two_asset_model()
    xs = market.sample_joint(marg, cop, 100000, seed=7)
    for j in range(2):
        ks = stats.kstest(
            xs[:, j],
            lambda x: market.trunc_lognorm_cdf(
                x, marg.mu[j], np.sqrt(marg.sigma2[j]), marg.xbar[j]))
        assert ks.statistic < 0.01


def test_independence_limit_kendall_tau():
    marg, _ = _two_asset_model()
    cop = market.CopulaModel(np.zeros((2, 2)), nu=200.0)
    xs = market.sample_joint(marg, cop, 100000, seed=3)
    tau = stats.kendalltau(xs[:, 0], xs[:, 1]).statistic
    assert abs(tau) < 0.02


def test_copula_validation():
    """A loading row of norm 1 or more leaves no idiosyncratic variance;
    a row just below 1 is accepted."""
    for row in ([0.9, 0.9], [1.0, 0.0], [np.nan, 0.0]):
        with pytest.raises(ValueError):
            market.CopulaModel(np.array([row]), nu=3.0)
    cop = market.CopulaModel(np.array([[0.6, 0.3], [0.0, 0.999]]), nu=3.0)
    assert cop.idio_var == pytest.approx([0.55, 1.0 - 0.999 ** 2])
    with pytest.raises(ValueError):
        market.CopulaModel(np.zeros((1, 1)), nu=1.0)  # nu too small


def test_price_payoff_constant():
    marg, cop = _two_asset_model()
    price, se = market.price_payoff(marg, cop,
                                    cpwa.constant_function(2, 3.5),
                                    1000, seed=1)
    assert price == pytest.approx(3.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_mc_matches_closed_form():
    marg, cop = _two_asset_model()
    for asset_idx, k in [(0, 0.0), (0, 3.0), (1, 2.0)]:
        payoff = (cpwa.asset(2, asset_idx) if k == 0.0
                  else cpwa.vanilla_call(2, asset_idx, k))
        mc, se = market.price_payoff(marg, cop, payoff, 400000, seed=11)
        cf = market.trunc_lognorm_call_price(
            marg.mu[asset_idx], marg.sigma2[asset_idx],
            marg.xbar[asset_idx], k)
        assert abs(mc - cf) < 4 * se


def test_basket_below_sum_of_assets():
    marg, cop = _two_asset_model()
    basket, _ = market.price_payoff(
        marg, cop, cpwa.basket_call([0.5, 0.5], 1.0), 50000, seed=2)
    a0 = market.trunc_lognorm_call_price(0.5, 0.2, 100.0, 0.0)
    a1 = market.trunc_lognorm_call_price(1.0, 0.4, 100.0, 0.0)
    assert basket <= 0.5 * a0 + 0.5 * a1 + 1e-9


def test_instrument_count_is_439():
    instr = market.five_asset_instruments()
    assert len(instr) == 439


def test_instrument_subsets():
    assert len(market.five_asset_instruments(("assets",))) == 5
    assert len(market.five_asset_instruments(("vanilla",))) == 50
    assert len(market.five_asset_instruments(("basket",))) == 120
    assert len(market.five_asset_instruments(("spread",))) == 198
    assert len(market.five_asset_instruments(("rainbow",))) == 66


def test_build_market_single_model_zero_spread():
    fam = market.random_family(2, seed=9, mc_samples=5000)
    fam.models = fam.models[:1]
    instruments = [cpwa.asset(2, 0), cpwa.vanilla_call(2, 0, 2.0),
                   cpwa.basket_call([0.5, 0.5], 1.0)]
    inst = market.build_market(fam, instruments)
    assert np.allclose(inst.bid, inst.ask)


def test_build_market_spread_and_determinism():
    fam = market.five_asset_family(seed=4, mc_samples=8000)
    instruments = market.five_asset_instruments(("assets", "vanilla"))
    inst1 = market.build_market(fam, instruments)
    inst2 = market.build_market(fam, instruments)
    assert np.array_equal(inst1.bid, inst2.bid)
    assert np.array_equal(inst1.ask, inst2.ask)
    assert np.all(inst1.bid <= inst1.ask + 1e-12)
    # OTM vanilla calls carry strictly positive spread (vega > 0 and
    # the two models differ in variance)
    otm = [j for j, g in enumerate(instruments)
           if market.as_vanilla_call(g) and
           market.as_vanilla_call(g)[1] >= 5.0]
    assert all(inst1.ask[j] > inst1.bid[j] for j in otm)


def test_call_prices_decrease_in_strike():
    fam = market.random_family(1, seed=12, mc_samples=5000)
    instruments = [cpwa.vanilla_call(1, 0, float(k))
                   for k in range(1, 11)]
    inst = market.build_market(fam, instruments)
    assert np.all(np.diff(inst.ask) <= 1e-12)
    assert np.all(np.diff(inst.bid) <= 1e-12)


def test_random_family_parameter_ranges():
    fam = market.random_family(4, seed=21)
    (m1, c1), (m2, c2) = fam.models
    assert np.all(m1.mu >= -0.3) and np.all(m1.mu <= 0.1)
    assert np.all(m1.sigma2 >= 0.2) and np.all(m1.sigma2 <= 0.8)
    assert np.all(m2.sigma2 >= m1.sigma2)
    assert np.all(m2.sigma2 <= m1.sigma2 + 0.1)
    assert c1.nu == 3.0 and c2.nu == 20.0


def _reference_call(mu, s2, xbar, k):
    """The truncated call in closed form through scipy.stats.norm.cdf."""
    cdf = stats.norm.cdf
    sigma = np.sqrt(s2)
    d_hi = (np.log(xbar) - mu) / sigma
    alpha = cdf(d_hi)
    if k <= 0:
        return float(np.exp(mu + s2 / 2.0) * cdf(d_hi - sigma) / alpha - k)
    if k >= xbar:
        return 0.0
    d_k = (np.log(k) - mu) / sigma
    return float((np.exp(mu + s2 / 2.0) * (cdf(sigma - d_k) -
                                           cdf(sigma - d_hi)) -
                  k * (cdf(d_hi) - cdf(d_k))) / alpha)


def test_closed_forms_equal_the_scipy_stats_formula():
    grid = [(mu, s2, xbar, k)
            for mu in (-0.3, 0.5, 1.0) for s2 in (0.2, 0.8)
            for xbar in (10.0, 100.0)
            for k in (-1.0, 0.0, 0.5, 3.0, 9.99, 10.0, 12.0, 100.0, 150.0)]
    for mu, s2, xbar, k in grid:
        call = _reference_call(mu, s2, xbar, k)
        mean = _reference_call(mu, s2, xbar, 0.0)
        assert market.trunc_lognorm_call_price(mu, s2, xbar, k) == call
        assert (market.trunc_lognorm_put_price(mu, s2, xbar, k) ==
                float(call - mean + k))


def test_full_preset_quotes_match_closed_form_and_per_instrument_mc():
    """All 439 instruments: vanilla quotes are the closed form bit for
    bit, Monte Carlo quotes the per-instrument sample means to 1e-12."""
    fam = market.five_asset_family(seed=6, mc_samples=4000)
    instruments = market.five_asset_instruments()
    inst = market.build_market(fam, instruments)
    samples = [market.sample_joint(marg, cop, fam.mc_samples,
                                   seed=fam.seed + i)
               for i, (marg, cop) in enumerate(fam.models)]
    mc = 0
    for j, g in enumerate(instruments):
        vc = market.as_vanilla_call(g)
        if vc is not None:
            a, k = vc
            prices = [market.trunc_lognorm_call_price(
                marg.mu[a], marg.sigma2[a], marg.xbar[a], k)
                for marg, _ in fam.models]
            assert inst.bid[j] == min(prices) and inst.ask[j] == max(prices)
        else:
            prices = [cpwa.evaluate_many(g, xs).mean() for xs in samples]
            assert inst.bid[j] == pytest.approx(min(prices), rel=1e-12)
            assert inst.ask[j] == pytest.approx(max(prices), rel=1e-12)
            mc += 1
    assert mc == 384


def test_one_instrument_market_builds():
    """A single Monte Carlo instrument (all-vanilla markets are built in
    test_build_market_spread_and_determinism)."""
    fam = market.five_asset_family(seed=2, mc_samples=500)
    one = market.build_market(fam, [cpwa.basket_call([0.2] * 5, 3.0)])
    assert one.m == 1 and 0.0 < one.bid[0] <= one.ask[0]


def test_near_unit_direction_is_priced_by_monte_carlo():
    """(1.000001 x_0 - 3)^+ is not the vanilla call (x_0 - 3)^+."""
    w = np.zeros(5)
    w[0] = 1.0 + 1e-6
    near = cpwa.basket_call(w, 3.0)
    assert market.as_vanilla_call(near) is None
    assert market.as_vanilla_call(cpwa.vanilla_call(5, 0, 3.0)) == (0, 3.0)
    fam = market.five_asset_family(seed=3, mc_samples=2000)
    inst = market.build_market(fam, [near, cpwa.vanilla_call(5, 0, 3.0)])
    prices = [cpwa.evaluate_many(near, market.sample_joint(
        marg, cop, fam.mc_samples, seed=fam.seed + i)).mean()
        for i, (marg, cop) in enumerate(fam.models)]
    assert inst.bid[0] == pytest.approx(min(prices), rel=1e-12)
    assert inst.ask[0] == pytest.approx(max(prices), rel=1e-12)
    assert inst.bid[0] != inst.bid[1] and inst.ask[0] != inst.ask[1]


def _t_grid():
    """t from -1e4 to 1e4: dense near 0, and geometric from 1e-12 in
    both directions, so that it reaches CDF values far below
    market.T_CDF_TAIL."""
    tails = np.logspace(-12, 4, 2000)
    return np.concatenate([np.linspace(-40.0, 40.0, 8001), tails, -tails])


@pytest.mark.parametrize("nu", range(3, 31))
def test_closed_form_t_cdf_matches_stdtr(nu):
    t = _t_grid()
    ref = stdtr(float(nu), t)
    got = market._t_cdf(float(nu), t)
    assert ref.min() < 1e-6 * market.T_CDF_TAIL
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def test_closed_form_t_cdf_up_to_the_series_cap():
    """The series' error grows with nu; above the cap, stdtr is used."""
    t = _t_grid()
    cap = market.T_CDF_SERIES_MAX_NU
    for nu in (2, 100, cap):
        ref = stdtr(float(nu), t)
        assert np.all(np.abs(market._t_cdf(nu, t) - ref) <= 1e-12 * ref)
    assert np.array_equal(market._t_cdf(cap + 1, t), stdtr(cap + 1, t))


def test_closed_form_t_cdf_nu_1_is_the_cauchy_cdf():
    """For nu = 1, F(t) = atan2(1, -t) / pi exactly (stdtr is 5e-9 off
    at t = 7e-9)."""
    t = _t_grid()
    exact = np.arctan2(1.0, -t) / np.pi
    assert np.all(np.abs(market._t_cdf(1.0, t) - exact) <= 1e-13 * exact)


def test_t_cdf_of_non_integer_nu_is_stdtr():
    t = _t_grid()
    for nu in (2.5, 3.0 + 1e-9, 7.25):
        assert np.array_equal(market._t_cdf(nu, t), stdtr(nu, t))


def test_closed_form_t_cdf_where_t_squared_overflows():
    t = np.array([-np.inf, -1e200, 1e200, np.inf])
    with np.errstate(over="ignore", invalid="ignore"):
        for nu in (3, 4):
            assert np.array_equal(market._t_cdf(nu, t), stdtr(nu, t))


def test_one_seed_gives_identical_samples():
    """The draws are made for all rows at once, and the blocks map them
    elementwise: two calls, and a call on more rows than one block, agree
    bit for bit."""
    fam = market.five_asset_family()
    n = 2 * market.SAMPLE_BLOCK_ROWS + 7
    for marg, cop in fam.models:
        xs = market.sample_joint(marg, cop, n, seed=8)
        assert np.array_equal(xs, market.sample_joint(marg, cop, n, seed=8))
        assert xs.shape == (n, 5) and np.all((xs > 0) & (xs <= 100.0))


def test_vanilla_recognition_on_the_preset_and_near_misses():
    """Pinned from the np.allclose implementation: the 5 assets and 50
    calls are recognized, the other 384 instruments and every near miss
    are not."""
    got = [market.as_vanilla_call(g) for g in market.five_asset_instruments()]
    assert got == ([(i, 0.0) for i in range(5)] +
                   [(i, float(k)) for i in range(5) for k in range(1, 11)] +
                   [None] * 384)
    w = np.zeros(5)
    w[0] = 1.0 + 1e-6
    unit = np.eye(5)
    near = [cpwa.basket_call(w, 3.0),  # 1.000001 x_0
            cpwa.make_function(5, [(1, [(unit[2], 1.5)])]),  # x_2 + 1.5
            cpwa.vanilla_put(5, 1, 3.0),
            cpwa.vanilla_call(5, 3, -2.0)]
    assert [market.as_vanilla_call(g) for g in near] == [None] * 4
    assert market.as_vanilla_call(
        cpwa.basket_call(unit[4] + 1e-13, 2.0)) == (4, 2.0)


def test_preset_monte_carlo_quotes_are_pinned():
    """Five Monte Carlo quotes of the preset at seed 1, as the stdtr
    sampler and the two-pass means gave them, to 1e-11 relative."""
    fam = market.five_asset_family(1, mc_samples=2000)
    inst = market.build_market(fam, market.five_asset_instruments())
    pinned = {55: (1.4061927023894478, 1.422736282146302),
              180: (0.15577934602700502, 0.1693597334971517),
              300: (1.2767123539101035, 1.3157341911949698),
              400: (0.48382501680670986, 0.5059270254625631),
              438: (0.003129646072016117, 0.004599057651368535)}
    for j, (bid, ask) in pinned.items():
        assert inst.bid[j] == pytest.approx(bid, rel=1e-11, abs=0)
        assert inst.ask[j] == pytest.approx(ask, rel=1e-11, abs=0)
