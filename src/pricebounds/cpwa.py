"""Continuous piece-wise affine (CPWA) functions.

A CPWA function is a signed sum of maxima of affine pieces,

    h(x) = sum_k  sign_k * max_i ( <a_{k,i}, x> + b_{k,i} ),

with sign_k in {-1, +1}.  This module provides construction, evaluation,
algebra (linear combinations), standard option-payoff constructors, the
radial function (all offsets dropped, which governs growth along rays),
and slack-function templates whose coefficients are affine in a portfolio
vector y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Stacked.means applies the distinct piece directions to this many rows
# at a time, so a block holds one row of products per direction.
MEAN_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class CpwaTerm:
    sign: int
    pieces: tuple  # tuple of (a: ndarray, b: float)

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("term sign must be -1 or +1")
        if len(self.pieces) == 0:
            raise ValueError("term needs at least one piece")
        d = len(self.pieces[0][0])
        for a, _ in self.pieces:
            if len(a) != d:
                raise ValueError("inconsistent piece dimensions")


@dataclass(frozen=True)
class CpwaFunction:
    dimension: int
    terms: tuple  # tuple of CpwaTerm

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.terms) == 0:
            raise ValueError("function needs at least one term")
        for t in self.terms:
            if len(t.pieces[0][0]) != self.dimension:
                raise ValueError("term dimension mismatch")


def _term(sign, pieces):
    return CpwaTerm(sign, tuple((np.asarray(a, dtype=float), float(b))
                                for a, b in pieces))


def make_function(d, term_specs):
    """Build a CpwaFunction from [(sign, [(a, b), ...]), ...]."""
    return CpwaFunction(d, tuple(_term(s, ps) for s, ps in term_specs))


def zero_function(d):
    return make_function(d, [(1, [(np.zeros(d), 0.0)])])


def constant_function(d, b):
    return make_function(d, [(1, [(np.zeros(d), b)])])


def evaluate(f: CpwaFunction, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dimension,):
        raise ValueError("point dimension %s does not match function "
                         "dimension %d" % (x.shape, f.dimension))
    total = 0.0
    for t in f.terms:
        best = max(float(a @ x) + b for a, b in t.pieces)
        total += t.sign * best
    return total


def evaluate_many(f: CpwaFunction, xs) -> np.ndarray:
    """Vectorized evaluation over an n x d array of points."""
    xs = np.asarray(xs, dtype=float)
    total = np.zeros(xs.shape[0])
    for t in f.terms:
        A = np.stack([a for a, _ in t.pieces])
        b = np.array([b for _, b in t.pieces])
        total += t.sign * (xs @ A.T + b).max(axis=1)
    return total


class Stacked:
    """Several functions of one dimension, evaluated together at a point
    or at each row of a block of points.

    Every piece of every term is stacked once, so a call is one matrix
    product, a segment max per term and a segment sum per function.
    Values agree with `evaluate` to rounding, not bit for bit."""

    def __init__(self, fs):
        terms = [(j, t) for j, f in enumerate(fs) for t in f.terms]
        pieces = [p for _, t in terms for p in t.pieces]
        sizes = [len(t.pieces) for _, t in terms]
        self.m = len(fs)
        self.a = np.array([a for a, _ in pieces], dtype=float)
        self.b = np.array([b for _, b in pieces], dtype=float)
        self.piece_starts = np.cumsum([0] + sizes[:-1]).astype(int)
        self.sign = np.array([t.sign for _, t in terms], dtype=float)
        # every function has at least one term
        self.term_starts = np.searchsorted([j for j, _ in terms],
                                           np.arange(self.m))
        # for means: the distinct rows of a, and per function its terms as
        # (sign, [(row of dirs, b) per piece whose a is nonzero], the
        # largest b of the pieces whose a is zero, or None if none is)
        self.dirs, which = (np.unique(self.a, axis=0, return_inverse=True)
                            if self.m else (self.a, np.zeros(0, int)))
        which = iter(which.ravel().tolist())
        zero = (~self.dirs.any(axis=1)).tolist() if self.m else []
        self.funcs = []
        for f in fs:
            func = []
            for t in f.terms:
                rows = [(next(which), b) for _, b in t.pieces]
                func.append((t.sign, [(i, b) for i, b in rows if not zero[i]],
                             max((b for i, b in rows if zero[i]),
                                 default=None)))
            self.funcs.append(func)

    def __call__(self, x) -> np.ndarray:
        """Every function at x, or at each row of an n x d array of
        points, one row of values per point."""
        if np.ndim(x) == 2:
            if not self.m:
                return np.zeros((len(x), 0))
            top = np.maximum.reduceat(x @ self.a.T + self.b,
                                      self.piece_starts, axis=1)
            return np.add.reduceat(self.sign * top, self.term_starts, axis=1)
        if not self.m:
            return np.zeros(0)
        top = np.maximum.reduceat(self.a @ x + self.b, self.piece_starts)
        return np.add.reduceat(self.sign * top, self.term_starts)

    def means(self, xs) -> np.ndarray:
        """Every function's mean over the rows of an n x d array.

        The distinct piece directions are applied to MEAN_BLOCK_ROWS rows
        at a time.  Each term takes the elementwise max of its pieces'
        rows of that product, then of the largest offset among its
        zero-direction pieces, whose product is 0.  Each function adds
        and subtracts its terms row by row, starting from its first, and
        the block's sum accumulates per function: nothing holds more than
        one block per direction.  Values agree with
        `evaluate_many(f, xs).mean()` to rounding, not bit for bit."""
        xs = np.asarray(xs, dtype=float)
        if not self.m:
            return np.zeros(0)
        sums = np.zeros(self.m)
        for row in range(0, len(xs), MEAN_BLOCK_ROWS):
            at = self.dirs @ xs[row:row + MEAN_BLOCK_ROWS].T
            for j, func in enumerate(self.funcs):
                total = None
                for sign, lin, floor in func:
                    if lin:
                        (i, b), *rest = lin
                        top = at[i] + b
                        for i, b in rest:
                            np.maximum(top, at[i] + b, out=top)
                        if floor is not None:
                            np.maximum(top, floor, out=top)
                    else:
                        top = np.full(at.shape[1], floor)
                    if total is None:
                        total = top if sign == 1 else -top
                    elif sign == 1:
                        total += top
                    else:
                        total -= top
                sums[j] += total.sum()
        return sums / len(xs)


def radial(f: CpwaFunction) -> CpwaFunction:
    """Same a-vectors with every offset b set to zero."""
    terms = tuple(CpwaTerm(t.sign, tuple((a, 0.0) for a, _ in t.pieces))
                  for t in f.terms)
    return CpwaFunction(f.dimension, terms)


def linear_combination(coeffs, fs) -> CpwaFunction:
    """CPWA representation of sum_j coeffs_j * fs_j.

    Positive coefficients are absorbed into the pieces; negative
    coefficients flip the term sign.  Zero coefficients drop out.
    """
    coeffs = list(coeffs)
    fs = list(fs)
    if len(fs) == 0:
        raise ValueError("need at least one function")
    if len(coeffs) != len(fs):
        raise ValueError("coefficient/function count mismatch")
    d = fs[0].dimension
    for f in fs:
        if f.dimension != d:
            raise ValueError("mixed dimensions")
    terms = []
    for c, f in zip(coeffs, fs):
        if c == 0.0:
            continue
        mag, flip = abs(c), (1 if c > 0 else -1)
        for t in f.terms:
            pieces = tuple((a * mag, b * mag) for a, b in t.pieces)
            terms.append(CpwaTerm(t.sign * flip, pieces))
    if not terms:
        return zero_function(d)
    return CpwaFunction(d, tuple(terms))


# ---------------------------------------------------------------------------
# Payoff constructors
# ---------------------------------------------------------------------------

def _unit(d, i):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def vanilla_call(d, asset, strike) -> CpwaFunction:
    """(x_i - strike)^+ as max(x_i - strike, 0)."""
    return make_function(d, [(1, [(_unit(d, asset), -strike),
                                  (np.zeros(d), 0.0)])])


def vanilla_put(d, asset, strike) -> CpwaFunction:
    """(strike - x_i)^+ as max(strike - x_i, 0)."""
    return make_function(d, [(1, [(-_unit(d, asset), strike),
                                  (np.zeros(d), 0.0)])])


def asset(d, i) -> CpwaFunction:
    """Projection payoff x_i."""
    return make_function(d, [(1, [(_unit(d, i), 0.0)])])


def basket_call(weights, strike) -> CpwaFunction:
    """(<w, x> - strike)^+ ; also covers spread calls (signed weights)."""
    w = np.asarray(weights, dtype=float)
    d = len(w)
    return make_function(d, [(1, [(w, -strike), (np.zeros(d), 0.0)])])


def spread_call(d, long_asset, short_asset, strike) -> CpwaFunction:
    """(x_i - x_j - strike)^+."""
    w = _unit(d, long_asset) - _unit(d, short_asset)
    return make_function(d, [(1, [(w, -strike), (np.zeros(d), 0.0)])])


def call_on_max(d, assets, strike) -> CpwaFunction:
    """(max_i x_i - strike)^+ over the given asset subset, strike >= 0."""
    if strike < 0:
        raise ValueError("call_on_max requires strike >= 0")
    pieces = [(_unit(d, i), -strike) for i in assets]
    pieces.append((np.zeros(d), 0.0))
    return make_function(d, [(1, pieces)])


def call_on_min(d, assets, strike) -> CpwaFunction:
    """(min_i x_i - strike)^+ as a two-term representation:

    max(strike - x_1, ..., strike - x_d, 0) - max(strike - x_1, ..., strike - x_d)
    """
    if strike < 0:
        raise ValueError("call_on_min requires strike >= 0")
    neg = [(-_unit(d, i), strike) for i in assets]
    first = neg + [(np.zeros(d), 0.0)]
    return make_function(d, [(1, first), (-1, neg)])


def put_on_min(d, assets, strike) -> CpwaFunction:
    """(strike - min_i x_i)^+ = max(strike - x_1, ..., strike - x_d, 0)."""
    pieces = [(-_unit(d, i), strike) for i in assets]
    pieces.append((np.zeros(d), 0.0))
    return make_function(d, [(1, pieces)])


def best_of_calls(d, assets, strikes) -> CpwaFunction:
    """max_i (x_i - strike_i)^+ = max(x_1 - k_1, ..., x_d - k_d, 0)."""
    if len(assets) != len(strikes):
        raise ValueError("assets and strikes must have equal length")
    pieces = [(_unit(d, i), -k) for i, k in zip(assets, strikes)]
    pieces.append((np.zeros(d), 0.0))
    return make_function(d, [(1, pieces)])


_PAYOFF_KINDS = {
    "vanilla_call": lambda p: vanilla_call(p["d"], p["asset"], p["strike"]),
    "vanilla_put": lambda p: vanilla_put(p["d"], p["asset"], p["strike"]),
    "asset": lambda p: asset(p["d"], p["asset"]),
    "basket_call": lambda p: basket_call(p["weights"], p["strike"]),
    "spread_call": lambda p: spread_call(p["d"], p["long"], p["short"],
                                         p["strike"]),
    "call_on_max": lambda p: call_on_max(p["d"], p["assets"], p["strike"]),
    "call_on_min": lambda p: call_on_min(p["d"], p["assets"], p["strike"]),
    "put_on_min": lambda p: put_on_min(p["d"], p["assets"], p["strike"]),
    "best_of_calls": lambda p: best_of_calls(p["d"], p["assets"],
                                             p["strikes"]),
}


def make_payoff(kind, params) -> CpwaFunction:
    if kind not in _PAYOFF_KINDS:
        raise ValueError("unknown payoff kind %r" % (kind,))
    return _PAYOFF_KINDS[kind](params)


# ---------------------------------------------------------------------------
# Slack templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackTemplate:
    """Coefficient form of the slack s_y(x) = sum_j y_j g_j(x) - f(x).

    Each entry is (w: ndarray length m, z: float, pieces): the term
    contributes (<w, y> + z) * max_i(<a_i, x> + b_i), so the coefficient
    is affine in y.
    """
    dimension: int
    m: int
    terms: tuple  # tuple of (w, z, pieces)


def slack_template(g, f: CpwaFunction) -> SlackTemplate:
    g = list(g)
    d = f.dimension
    m = len(g)
    for gj in g:
        if gj.dimension != d:
            raise ValueError("mixed dimensions")
    terms = []
    for j, gj in enumerate(g):
        for t in gj.terms:
            w = np.zeros(m)
            w[j] = float(t.sign)
            terms.append((w, 0.0, t.pieces))
    for t in f.terms:
        terms.append((np.zeros(m), -float(t.sign), t.pieces))
    return SlackTemplate(d, m, tuple(terms))


def radial_template(tmpl: SlackTemplate) -> SlackTemplate:
    terms = tuple((w, z, tuple((a, 0.0) for a, _ in pieces))
                  for w, z, pieces in tmpl.terms)
    return SlackTemplate(tmpl.dimension, tmpl.m, terms)


def instantiate(tmpl: SlackTemplate, y) -> CpwaFunction:
    """Plug a fixed y into the template, yielding a CPWA function of x."""
    y = np.asarray(y, dtype=float)
    if y.shape != (tmpl.m,):
        raise ValueError("portfolio length mismatch")
    terms = []
    for w, z, pieces in tmpl.terms:
        coef = float(w @ y) + z
        if coef == 0.0:
            continue
        mag, sign = abs(coef), (1 if coef > 0 else -1)
        terms.append(CpwaTerm(sign, tuple((a * mag, b * mag)
                                          for a, b in pieces)))
    if not terms:
        return zero_function(tmpl.dimension)
    return CpwaFunction(tmpl.dimension, tuple(terms))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def to_json_dict(f: CpwaFunction) -> dict:
    return {
        "d": f.dimension,
        "terms": [
            {"sign": t.sign,
             "pieces": [{"a": list(map(float, a)), "b": float(b)}
                        for a, b in t.pieces]}
            for t in f.terms
        ],
    }


def json_field(obj, path, convert=None):
    """convert(value) (by default a float array) of the JSON field at path,
    'key' or 'key.subkey'.  A missing field, or a value that convert
    rejects, raises ValueError naming the field."""
    value = obj
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError("missing field %r" % path)
        value = value[key]
    try:
        return (np.asarray(value, dtype=float) if convert is None
                else convert(value))
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise ValueError("bad field %r: %r" % (path, exc)) from None


def from_json_dict(obj) -> CpwaFunction:
    return make_function(
        int(obj["d"]),
        [(int(t["sign"]), [(p["a"], p["b"]) for p in t["pieces"]])
         for t in obj["terms"]],
    )
