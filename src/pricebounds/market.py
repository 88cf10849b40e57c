"""Synthetic market generation.

Joint asset-price models couple truncated log-normal marginals through
a factor t-copula, given by its loadings and its degrees of freedom nu.
The factors have unit variance, and each asset's idiosyncratic variance
is the one that gives the correlation matrix a unit diagonal.  A family
of such models prices each instrument (single-asset vanilla calls in
closed form, everything else by Monte Carlo), and the bid/ask quotes of
the generated market are the minimum/maximum prices across the
family's models.

The closed forms and the sampler call scipy.special's normal functions
(ndtr, ndtri) directly: the values are those of scipy.stats' norm,
without its per-call dispatch.  The sampler's Student t CDF is the
closed form of Abramowitz & Stegun 26.7.3-4 for integer degrees of
freedom (every preset copula has one), and scipy.special.stdtr where
that form is slower or inaccurate (see `_t_cdf`).  Each model's Monte
Carlo prices come from one pass over its samples: `cpwa.Stacked.means`
evaluates every non-vanilla instrument together, block of rows by block
of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtr

from . import cpwa
from .cpwa import CpwaFunction
from .ecp import Box, MarketInstance

MC_SAMPLES_DEFAULT = 100000
# sample_joint maps this many sample rows at a time from t-variates to
# prices, so that its temporaries stay small.
SAMPLE_BLOCK_ROWS = 4096
# The series of `_t_cdf` has nu // 2 terms.  At nu = 500 it took 14 ms
# per 100,000 variates to stdtr's 19 ms, at nu = 800 23 ms to 20 ms
# (one core of a 2-CPU x86-64 container, 4,096-row blocks); its error
# relative to stdtr grows with nu, to 5e-13 at 500.
T_CDF_SERIES_MAX_NU = 500
# `_t_cdf` takes stdtr's value where the CDF is below this or above one
# minus this.
T_CDF_TAIL = 0.01
# factors of random_family's copulas
RANDOM_FACTORS = 3


@dataclass
class MarginalModel:
    mu: np.ndarray  # lognormal location per asset
    sigma2: np.ndarray  # lognormal scale per asset
    xbar: np.ndarray  # truncation bound per asset

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        self.xbar = np.atleast_1d(np.asarray(self.xbar, dtype=float))
        d = len(self.mu)
        if self.sigma2.shape != (d,) or self.xbar.shape != (d,):
            raise ValueError("mu, sigma2, xbar must have equal length")
        if np.any(self.sigma2 <= 0) or np.any(self.xbar <= 0):
            raise ValueError("sigma2 and xbar must be positive")

    @property
    def dimension(self):
        return len(self.mu)


@dataclass
class CopulaModel:
    """A factor t-copula with unit-variance factors.  Its correlation
    matrix L L^T + diag(1 - |L_i|^2) has a unit diagonal, and is positive
    definite when every loading row L_i has norm below 1."""
    loadings: np.ndarray  # d x k factor loadings
    nu: float  # degrees of freedom

    def __post_init__(self):
        self.loadings = np.atleast_2d(np.asarray(self.loadings,
                                                 dtype=float))
        if not np.all(self.idio_var > 0):
            raise ValueError("every loading row must have norm below 1")
        if self.nu <= 2:
            raise ValueError("nu must exceed 2")

    @property
    def dimension(self):
        return self.loadings.shape[0]

    @property
    def idio_var(self):
        """The idiosyncratic variances 1 - |L_i|^2."""
        return 1.0 - np.sum(self.loadings ** 2, axis=1)


@dataclass
class MarketModelFamily:
    models: list  # of (MarginalModel, CopulaModel)
    seed: int = 0
    mc_samples: int = MC_SAMPLES_DEFAULT

    def __post_init__(self):
        if not self.models:
            raise ValueError("family needs at least one model")
        d = self.models[0][0].dimension
        for marg, cop in self.models:
            if marg.dimension != d or cop.dimension != d:
                raise ValueError("all models must share the dimension")

    @property
    def dimension(self):
        return self.models[0][0].dimension


def _trunc_lognorm_ppf(u, mu, sigma, xbar):
    """Quantile of a lognormal(mu, sigma^2) conditioned to [0, xbar]."""
    alpha = ndtr((np.log(xbar) - mu) / sigma)
    return np.exp(mu + sigma * ndtri(u * alpha))


def trunc_lognorm_cdf(x, mu, sigma, xbar):
    alpha = ndtr((np.log(xbar) - mu) / sigma)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = ndtr((np.log(x[pos]) - mu) / sigma) / alpha
    return np.clip(out, 0.0, 1.0)


def _t_cdf(nu, t):
    """Student t CDF with nu degrees of freedom at every entry of t.

    For integer nu <= T_CDF_SERIES_MAX_NU it is the closed form of
    Abramowitz & Stegun 26.7.3-4.  With theta = arctan(t / sqrt(nu)),
    c = cos^2 theta and S = sum_{j < nu // 2} coef_j c^j, F = 1/2 + A/2:

        even nu: A = sin theta S,
                 coef_0 = 1, coef_j = coef_{j-1} (2j - 1) / (2j);
        odd nu:  A = (2 / pi) (theta + sin theta cos theta S),
                 coef_0 = 1, coef_j = coef_{j-1} (2j) / (2j + 1).

    This F is within a few units in the last place of 1/2 of the true
    value, so the tails take stdtr's value: below T_CDF_TAIL, where
    1/2 + A/2 cancels, and above 1 - T_CDF_TAIL, where the lognormal
    quantile of F magnifies the error (1e-16 at F = 1 - 1e-10 moves the
    sample by 1e-7 relative).  So do the entries where t^2 overflows,
    and every entry for any other nu."""
    if not float(nu).is_integer() or nu > T_CDF_SERIES_MAX_NU:
        return stdtr(nu, t)
    nu = int(nu)
    n, odd = divmod(nu, 2)
    coefs = np.cumprod([1.0] + [(2 * j - 1 + odd) / (2 * j + odd)
                                for j in range(1, n)])
    sqrt_nu = np.sqrt(nu)
    r = t * t
    r += nu
    np.sqrt(r, out=r)
    cos = np.divide(sqrt_nu, r)
    a = np.divide(t, r, out=r)  # sin theta
    if n > 1:
        c = cos * cos
        series = coefs[-1] * c
        for coef in coefs[-2:0:-1]:
            series += coef
            series *= c
        series += 1.0
        a *= series
    if odd:
        a *= cos if n else 0.0  # nu = 1: S is an empty sum
        a += np.arctan(t / sqrt_nu)
        a *= 2.0 / np.pi
    a *= 0.5
    redo = ~(np.abs(a) <= 0.5 - T_CDF_TAIL)
    redo |= cos == 0.0  # t^2 overflowed
    a += 0.5
    if redo.any():
        a[redo] = stdtr(nu, t[redo])
    return a


def sample_joint(marginal: MarginalModel, copula: CopulaModel, n,
                 seed=0) -> np.ndarray:
    """n x d samples: multivariate t via the factor structure, mapped
    through the t CDF (`_t_cdf`) to uniforms, then through the
    truncated-lognormal quantiles.

    All n rows are drawn at once, so the samples depend on the seed
    alone.  The draws become the t-variates in place, and those become
    the samples SAMPLE_BLOCK_ROWS rows at a time, so that no temporary
    holds more than one block."""
    if marginal.dimension != copula.dimension:
        raise ValueError("marginal/copula dimension mismatch")
    d = marginal.dimension
    k = copula.loadings.shape[1]
    rng = np.random.Generator(np.random.Philox(seed))
    xs = rng.standard_normal((n, k)) @ copula.loadings.T
    idio = rng.standard_normal((n, d))
    idio *= np.sqrt(copula.idio_var)
    xs += idio
    xs /= np.sqrt(rng.chisquare(copula.nu, size=n) / copula.nu)[:, None]
    sigma = np.sqrt(marginal.sigma2)
    for row in range(0, n, SAMPLE_BLOCK_ROWS):
        block = xs[row:row + SAMPLE_BLOCK_ROWS]
        u = _t_cdf(copula.nu, block)
        np.clip(u, 1e-15, 1.0 - 1e-15, out=u)
        block[...] = _trunc_lognorm_ppf(u, marginal.mu, sigma,
                                        marginal.xbar)
    return xs


def trunc_lognorm_call_price(mu, sigma2, xbar, strike) -> float:
    """E[(X - strike)^+] for X lognormal(mu, sigma2) conditioned to
    [0, xbar]."""
    sigma = np.sqrt(sigma2)
    d_hi = (np.log(xbar) - mu) / sigma
    alpha = ndtr(d_hi)
    if strike <= 0:
        mean = np.exp(mu + sigma2 / 2.0) * ndtr(d_hi - sigma) / alpha
        return float(mean - strike)
    if strike >= xbar:
        return 0.0
    d_k = (np.log(strike) - mu) / sigma
    num = (np.exp(mu + sigma2 / 2.0) * (ndtr(sigma - d_k) - ndtr(sigma - d_hi))
           - strike * (alpha - ndtr(d_k)))
    return float(num / alpha)


def trunc_lognorm_put_price(mu, sigma2, xbar, strike) -> float:
    """Put via parity with the truncated mean."""
    call = trunc_lognorm_call_price(mu, sigma2, xbar, strike)
    mean = trunc_lognorm_call_price(mu, sigma2, xbar, 0.0)
    return float(call - mean + strike)


def price_payoff(marginal: MarginalModel, copula: CopulaModel,
                 payoff: CpwaFunction, n, seed=0):
    """Monte Carlo price of the payoff under the model, with standard
    error of the sample mean."""
    xs = sample_joint(marginal, copula, n, seed)
    vals = cpwa.evaluate_many(payoff, xs)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def as_vanilla_call(payoff: CpwaFunction):
    """Recognize (x_i - strike)^+ (including the plain asset x_i, a
    zero-strike call on the positive domain): returns (asset, strike)
    or None.  The direction a must be the unit vector e_i to within
    1e-12 in every coordinate, |a - e_i| <= 1e-12: (1.000001 x_i -
    strike)^+ is not a call on x_i."""
    if len(payoff.terms) != 1 or payoff.terms[0].sign != 1:
        return None
    lin, zero = [], []
    for a, b in payoff.terms[0].pieces:
        a = np.asarray(a, dtype=float).tolist()
        size = sum(map(abs, a))  # nan if an entry is: in neither list
        if size > 0:
            lin.append((a, float(b)))
        elif size == 0:
            zero.append(float(b))
    if len(lin) != 1:
        return None
    a, b = lin[0]
    dev = [abs(v) for v in a]
    j = dev.index(max(dev))
    dev[j] = abs(a[j] - 1.0)
    if max(dev) > 1e-12:
        return None
    strike = -b
    if zero:
        if len(zero) != 1 or abs(zero[0]) > 1e-12 or strike < 0:
            return None
        return j, strike
    if strike != 0.0:
        return None  # x_i + const is not a call
    return j, 0.0


def build_market(family: MarketModelFamily, instruments) -> MarketInstance:
    """Price every instrument under every model; bid = min, ask = max.

    Vanilla calls (and plain assets) are priced in closed form.  The
    other payoffs are stacked once into a `cpwa.Stacked`, and each
    model prices all of them from one batch of samples: the distinct
    piece directions are applied to a block of sample rows at a time,
    and every instrument's payoff is summed over the block from those
    products (see `cpwa.Stacked.means`)."""
    d = family.dimension
    xbar = family.models[0][0].xbar
    for marg, _ in family.models:
        if not np.allclose(marg.xbar, xbar):
            raise ValueError("models must share the truncation bounds")
    if any(payoff.dimension != d for payoff in instruments):
        raise ValueError("instrument dimension mismatch")
    calls = [as_vanilla_call(payoff) for payoff in instruments]
    mc = [j for j, vc in enumerate(calls) if vc is None]
    stacked = cpwa.Stacked([instruments[j] for j in mc])
    prices = np.zeros((len(family.models), len(instruments)))
    for i, (marg, cop) in enumerate(family.models):
        for j, vc in enumerate(calls):
            if vc is not None:
                a, k = vc
                prices[i, j] = trunc_lognorm_call_price(
                    marg.mu[a], marg.sigma2[a], marg.xbar[a], k)
        if mc:
            xs = sample_joint(marg, cop, family.mc_samples,
                              seed=family.seed + i)
            prices[i, mc] = stacked.means(xs)
    return MarketInstance(dimension=d, domain=Box(tuple(float(v)
                                                        for v in xbar)),
                          g=list(instruments), bid=prices.min(axis=0),
                          ask=prices.max(axis=0))


# ---------------------------------------------------------------------------
# Experiment presets
# ---------------------------------------------------------------------------

BASKET_WEIGHTS_5 = [
    (0.2, 0.2, 0.2, 0.2, 0.2),
    (0.25, 0.25, 0.25, 0.25, 0.0),
    (0.25, 0.25, 0.25, 0.0, 0.25),
    (0.25, 0.25, 0.0, 0.25, 0.25),
    (0.25, 0.0, 0.25, 0.25, 0.25),
    (0.0, 0.25, 0.25, 0.25, 0.25),
    (1 / 3, 1 / 3, 1 / 3, 0.0, 0.0),
    (0.0, 1 / 3, 1 / 3, 1 / 3, 0.0),
    (0.0, 0.0, 1 / 3, 1 / 3, 1 / 3),
    (0.0, 0.5, 0.5, 0.0, 0.0),
    (0.0, 0.5, 0.0, 0.5, 0.0),
    (0.0, 0.0, 0.5, 0.5, 0.0),
]

SPREAD_PAIRS_5 = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
    (3, 4), (1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (4, 1), (3, 2),
    (4, 2), (4, 3),
]

RAINBOW_GROUPS_5 = [
    (0, 1, 2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 4), (1, 2), (1, 3), (2, 3),
]


def five_asset_instruments(include=("assets", "vanilla", "basket",
                                    "spread", "rainbow")):
    """The 439-instrument five-asset benchmark list: the 5 assets,
    vanilla calls with strikes 1..10, 12 basket calls with strikes
    1..10, 18 spread calls with strikes -5..5, and call-on-max options
    on 6 asset groups with strikes 0..10."""
    d = 5
    out = []
    if "assets" in include:
        out += [cpwa.asset(d, i) for i in range(d)]
    if "vanilla" in include:
        out += [cpwa.vanilla_call(d, i, k)
                for i in range(d) for k in range(1, 11)]
    if "basket" in include:
        out += [cpwa.basket_call(w, k)
                for w in BASKET_WEIGHTS_5 for k in range(1, 11)]
    if "spread" in include:
        out += [cpwa.spread_call(d, i, j, k)
                for i, j in SPREAD_PAIRS_5 for k in range(-5, 6)]
    if "rainbow" in include:
        out += [cpwa.call_on_max(d, grp, k)
                for grp in RAINBOW_GROUPS_5 for k in range(0, 11)]
    return out


# Documented synthetic two-factor structure shared by the preset's two
# copulas (the loadings are not dictated by the pricing method; any rows
# of norm below 1 work).
_PRESET_LOADINGS_5 = np.array([
    [0.70, 0.30],
    [0.60, -0.40],
    [0.55, 0.45],
    [0.65, -0.25],
    [0.50, 0.35],
])


def five_asset_family(seed=0, mc_samples=MC_SAMPLES_DEFAULT
                      ) -> MarketModelFamily:
    """Two-model five-asset preset on [0, 100]^5: equal means, slightly
    different variances, two-factor t-copulas with nu = 3 and nu = 4."""
    xbar = np.full(5, 100.0)
    mu = np.array([0.5, 1.0, 1.0, 0.5, 0.5])
    marg1 = MarginalModel(mu, np.array([0.2, 0.4, 0.2, 0.4, 0.2]), xbar)
    marg2 = MarginalModel(mu, np.array([0.21, 0.42, 0.21, 0.42, 0.21]),
                          xbar)
    cop1 = CopulaModel(_PRESET_LOADINGS_5, nu=3.0)
    cop2 = CopulaModel(_PRESET_LOADINGS_5, nu=4.0)
    return MarketModelFamily(models=[(marg1, cop1), (marg2, cop2)],
                             seed=seed, mc_samples=mc_samples)


def random_family(d, seed=0, mc_samples=MC_SAMPLES_DEFAULT
                  ) -> MarketModelFamily:
    """Two-model random preset: mu ~ U[-0.3, 0.1], sigma2 ~ U[0.2, 0.8]
    per asset (second model's sigma2 shifted up by U[0, 0.1]),
    RANDOM_FACTORS-factor t-copulas with nu = 3 and nu = 20."""
    rng = np.random.Generator(np.random.Philox(seed))
    xbar = np.full(d, 100.0)
    mu = rng.uniform(-0.3, 0.1, size=d)
    sigma2 = rng.uniform(0.2, 0.8, size=d)
    sigma2b = sigma2 + rng.uniform(0.0, 0.1, size=d)
    raw = rng.uniform(-1.0, 1.0, size=(d, RANDOM_FACTORS))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    target = rng.uniform(0.3, 0.9, size=(d, 1))
    loadings = raw / np.maximum(norms, 1e-12) * target
    return MarketModelFamily(
        models=[(MarginalModel(mu, sigma2, xbar),
                 CopulaModel(loadings, nu=3.0)),
                (MarginalModel(mu, sigma2b, xbar),
                 CopulaModel(loadings, nu=20.0))],
        seed=seed, mc_samples=mc_samples)
