"""Encode global minimization of a CPWA function over a box as a MILP.

min over [0, xbar] of  sum_k sign_k * max_i(<a_{k,i}, x> + b_{k,i})

Positive-sign maxima become epigraph variables lambda_k; negative-sign
maxima become hypograph variables zeta_k tied to an argmax selection via
big-M disjunctions with one binary per piece (exactly one active).
Big-M constants are computed in closed form by coordinatewise box
maximization.  Terms whose pieces coincide collapse to plain affine
addends with no auxiliary variables.

The program carries a completion (`MixedIntegerProgram.complete`): any
box point x extends in closed form to an integer-feasible point whose
objective plus the encoding's constant is h(x).  Each lambda_k and
zeta_k takes its term's largest piece value, delta_{k,i} = zeta_k -
v_{k,i}, and iota_k is one-hot on the first piece attaining the max.
Branch and bound completes every node LP's point this way, so each node
gives an exact upper bound on the minimum.

For d <= 2 the program also carries the vertices of the arrangement
(`MixedIntegerProgram.vertices`): h is affine on each cell cut out of the
box by the lines on which two pieces of one term are equal, so its
minimum lies at a crossing of two such lines or box edges.

For d >= 3 it carries points with the same property where at most one
term has pieces that use two or more coordinates.  Write u_i for the sum
of the affine addend on x_i and of the terms whose pieces use x_i alone.

Where that term is negative, as in the slack of an upper bound on a
multi-asset payoff hedged with single-asset instruments, h is the least
of the functions h_t, one per piece t of that term (h itself where no
term uses two or more coordinates), each separable: h_t(x) =
sum_i u_i(x_i) - a_t . x + const, where a_t is the slope of piece t.  So
min h = min_t h(x_t), where x_t[i] minimizes u_i(z) - a_t[i] z over 0,
xbar_i and the kinks of u_i inside (0, xbar_i).

Where that term is positive and each of its pieces uses one coordinate,
as in the slack of a lower bound on a call on the max, a best-of-calls or
a put on the min, write it P(x) = max(beta0, max_i P_i(x_i)), with beta0
its largest constant piece and P_i the max of its pieces on x_i.  Then
min h = min_t [t + sum_i min of u_i over {z in [0, xbar_i] :
max(beta0, P_i(z)) <= t}], each set an interval [l_i(t), r_i(t)] whose
ends are affine in t between the kinks.  The bracket is concave in t
between its breakpoints, so its minimum is at a level t = max(beta0,
P_i(z)) for z among 0, xbar_i, the kinks of u_i and the kinks of P_i
(where two of its pieces, or one and beta0, cross).  Per such t the
program carries x(t), whose x_i minimizes u_i over l_i(t), r_i(t) and
the kinks of u_i between them, so h(x(t)) is at most the bracket, and
the least h(x(t)) is the minimum.

Where a positive term has a piece that uses two or more coordinates (a
long basket or spread call), or two terms use two or more coordinates
each (call_on_min), the program carries none.

solve_milp prices the completions of these points instead of searching;
branch and bound serves the programs without them, and remains the
tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpwa import CpwaFunction, prune as prune_cpwa
from .lp import LinearProgram
from .milp import MixedIntegerProgram, solve_milp

# two lines of the arrangement cross where the determinant of their unit
# max-norm normals exceeds this; crossings within BOX_TOL (1 + xbar) of
# the box are clipped into it
PARALLEL_TOL = 1e-12
BOX_TOL = 1e-9


def _dedupe_pieces(terms):
    """Per term, its pieces as arrays (a, b), P x d and P: each piece that
    is distinct to 12 decimals once, in first-seen order."""
    sizes = [len(t.pieces) for t in terms]
    a = np.array([a for t in terms for a, _ in t.pieces], dtype=float)
    b = np.array([b for t in terms for _, b in t.pieces], dtype=float)
    term = np.repeat(np.arange(len(sizes)), sizes)
    keys = np.column_stack([term, np.round(np.column_stack([a, b]), 12)])
    # a stable sort by term, then by key, puts each piece's copies after it
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.sort(order[np.concatenate(
        ([True], (keys[1:] != keys[:-1]).any(axis=1)))])
    a, b = a[first], b[first]
    cuts = np.searchsorted(term[first], np.arange(len(sizes) + 1)).tolist()
    return [(a[i:j], b[i:j]) for i, j in zip(cuts, cuts[1:])]


def _term_big_m(a, b, xbar):
    """big_m's row for one term's deduplicated pieces (at least two).
    Entry [i, j] of `gap` is the max over 0 <= x <= xbar of piece j minus
    piece i, in closed form: the positive coefficients at xbar."""
    diff = a[None, :, :] - a[:, None, :]
    gap = (np.where(diff > 0, diff * xbar, 0.0).sum(axis=2)
           + (b[None, :] - b[:, None]))
    np.fill_diagonal(gap, -np.inf)
    return gap.max(axis=1).tolist()


def big_m(h: CpwaFunction, box) -> list:
    """M_{k,i} = max over competing pieces i' != i and x in the box of
    (<a_{k,i'} - a_{k,i}, x> + b_{k,i'} - b_{k,i}).  Empty row when a
    term has a single piece."""
    xbar = np.asarray(box, dtype=float)
    return [_term_big_m(a, b, xbar) if len(b) > 1 else []
            for a, b in _dedupe_pieces(h.terms)]


@dataclass(eq=False)
class _Completion:
    """encode_min's completion: the box part of a point, clipped to the
    box, extended to an integer-feasible point of the program (see the
    module docstring).  Every retained term's pieces are stacked once, so
    a call is one matvec and a few segment reductions."""
    xbar: np.ndarray
    n: int  # variables of the program
    a: np.ndarray  # retained pieces, term after term, by d
    b: np.ndarray
    starts: np.ndarray  # per term: its first piece
    top: np.ndarray  # per term: its lambda or zeta
    term: np.ndarray  # per piece: its term
    neg: np.ndarray  # the pieces of negative terms
    neg_starts: np.ndarray  # per negative term: its first entry of neg
    delta: np.ndarray  # per entry of neg: its delta
    iota: np.ndarray  # per entry of neg: its iota

    def __call__(self, x_full):
        """Completes one point, or each row of a block of points."""
        if x_full.ndim == 2:
            return self._rows(x_full)
        d = len(self.xbar)
        out = np.zeros(self.n)
        out[:d] = x = np.clip(x_full[:d], 0.0, self.xbar)
        if not len(self.starts):
            return out
        v = self.a @ x + self.b
        top = np.maximum.reduceat(v, self.starts)
        out[self.top] = top
        if not len(self.neg):
            return out
        out[self.delta] = gap = (top[self.term] - v)[self.neg]
        # iota is one-hot on each negative term's first piece with gap 0
        first = np.minimum.reduceat(
            np.where(gap == 0.0, np.arange(len(gap)), len(gap)),
            self.neg_starts)
        out[self.iota[first]] = 1.0
        return out

    def _rows(self, xs):
        """__call__ on each row of xs, by one matrix product.  It is
        kept apart from the single-point path, which branch and bound
        takes once per node: this row indexing would make that path
        about 1.7 times as slow."""
        d = len(self.xbar)
        out = np.zeros((len(xs), self.n))
        out[:, :d] = x = np.clip(xs[:, :d], 0.0, self.xbar)
        if not len(self.starts):
            return out
        v = x @ self.a.T + self.b
        top = np.maximum.reduceat(v, self.starts, axis=1)
        out[:, self.top] = top
        if not len(self.neg):
            return out
        out[:, self.delta] = gap = (top[:, self.term] - v)[:, self.neg]
        k = gap.shape[1]
        first = np.minimum.reduceat(
            np.where(gap == 0.0, np.arange(k), k), self.neg_starts, axis=1)
        out[np.arange(len(xs))[:, None], self.iota[first]] = 1.0
        return out


def _piece_pairs(c: _Completion):
    """The pairs i < j of the completion's pieces of one term, whose
    pieces are contiguous."""
    k = np.arange(len(c.b))
    after = np.append(c.starts[1:], len(c.b))[c.term] - k - 1
    i = np.repeat(k, after)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(after) - after, after)
    return i, j


def _vertices(c: _Completion):
    """The vertices in [0, xbar], d <= 2, of the arrangement of the box
    edges and of the lines on which two of the completion's pieces of one
    term are equal: the pairwise crossings of those lines, the box
    corners among them, each once in lexicographic order."""
    xbar = c.xbar
    i, j = _piece_pairs(c)
    n, r = c.a[i] - c.a[j], c.b[j] - c.b[i]
    scale = np.abs(n).max(axis=1, initial=0.0)
    n, r, scale = n[scale > 0], r[scale > 0], scale[scale > 0]
    if len(xbar) == 1:
        pts = np.concatenate([[0.0], xbar, r / n[:, 0]])[:, None]
    else:
        # unit max-norm normals, then the box edges
        n = np.vstack([n / scale[:, None], np.eye(2), np.eye(2)])
        r = np.concatenate([r / scale, [0.0, 0.0], xbar])
        i, j = np.triu_indices(len(r), 1)
        det = n[i, 0] * n[j, 1] - n[i, 1] * n[j, 0]
        cross = np.abs(det) > PARALLEL_TOL
        i, j, det = i[cross], j[cross], det[cross]
        pts = np.column_stack([r[i] * n[j, 1] - r[j] * n[i, 1],
                               n[i, 0] * r[j] - n[j, 0] * r[i]]) / det[:, None]
    tol = BOX_TOL * (1.0 + xbar)
    return _distinct(np.clip(
        pts[((pts >= -tol) & (pts <= xbar + tol)).all(axis=1)], 0.0, xbar))


def _distinct(pts):
    """The distinct rows of pts in lexicographic order."""
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]


def _separable(c: _Completion, c_x, single, sign):
    """The separable part u of h: the affine addend and the terms in
    `single`, each of which uses at most one coordinate.  Returns (axis,
    z, groups, u): the candidates z on coordinate axis, grouped by
    coordinate (groups[k] is coordinate k's first), which are 0, xbar_k
    and the kinks of u_k inside (0, xbar_k), where two pieces of one
    such term cross; and u(axis, z), u at z e_axis, which is u_k(z) plus a
    constant per coordinate k that does not move an argmin over z."""
    xbar, d = c.xbar, len(c.xbar)
    i, j = _piece_pairs(c)
    one = single[c.term[i]]
    i, j = i[one], j[one]
    axis = ((c.a[i] != 0) | (c.a[j] != 0)).argmax(axis=1)
    slope = c.a[i, axis] - c.a[j, axis]
    crossing = slope != 0
    z = (c.b[j] - c.b[i])[crossing] / slope[crossing]
    axis = axis[crossing]
    inside = (z > 0) & (z < xbar[axis])
    axis = np.concatenate([np.arange(d), np.arange(d), axis[inside]])
    z = np.concatenate([np.zeros(d), xbar, z[inside]])
    order = np.argsort(axis, kind="stable")
    axis, z = axis[order], z[order]
    groups = np.searchsorted(axis, np.arange(d))
    pieces = single[c.term]
    term = c.term[pieces]
    firsts = np.flatnonzero(np.concatenate(([True], term[1:] != term[:-1])))

    def u(axis, z):
        at = np.zeros((len(z), d))
        at[np.arange(len(z)), axis] = z
        value = at @ c_x
        if pieces.any():
            value += np.maximum.reduceat(
                at @ c.a[pieces].T + c.b[pieces], firsts,
                axis=1) @ sign[term[firsts]]
        return value
    return axis, z, groups, u


def _first_min(w, groups):
    """Per row of w and group of its columns, the column of the group's
    first least entry."""
    low = np.minimum.reduceat(w, groups, axis=1)
    sizes = np.diff(np.append(groups, w.shape[1]))
    col = np.arange(w.shape[1])
    return np.minimum.reduceat(
        np.where(w == np.repeat(low, sizes, axis=1), col, len(col)),
        groups, axis=1)


def _minimizers(c: _Completion, c_x):
    """For d >= 3, the points of the module docstring, each once in
    lexicographic order: per piece t of a negative term whose pieces use
    two or more coordinates, the coordinatewise minimizer of the
    separable h_t; per level t of a positive such term whose pieces each
    use one coordinate, x(t).  None where a positive term has a piece
    that uses two or more coordinates or a second such term exists."""
    d = len(c.xbar)
    ends = np.append(c.starts[1:], len(c.b))
    # per term: the coordinates its pieces use, and its sign
    used = np.logical_or.reduceat(c.a != 0, c.starts, axis=0)
    sign = np.ones(len(c.starts))
    sign[c.term[c.neg]] = -1.0
    multi = used.sum(axis=1) >= 2
    if multi.sum() > 1:
        return None
    k = np.flatnonzero(multi)
    if len(k) and sign[k[0]] > 0:
        mine = slice(c.starts[k[0]], ends[k[0]])
        if ((c.a[mine] != 0).sum(axis=1) > 1).any():
            return None
        return _level_minimizers(c, c_x, ~multi, sign, mine)
    # the slopes a_t of the negative term's pieces, or one zero slope
    # where every term uses one coordinate
    s = c.a[c.starts[k[0]]:ends[k[0]]] if len(k) else np.zeros((1, d))
    axis, z, groups, u = _separable(c, c_x, ~multi, sign)
    # per t and k, the first candidate of group k that minimizes
    # u_k(z) - a_t[k] z
    return _distinct(z[_first_min(u(axis, z) - s[:, axis] * z, groups)])


def _level_minimizers(c: _Completion, c_x, single, sign, mine):
    """The points x(t) of the module docstring, each once in
    lexicographic order, for the positive term whose pieces are
    c.a[mine], each of which uses at most one coordinate."""
    xbar, d = c.xbar, len(c.xbar)
    axis, z, groups, u = _separable(c, c_x, single, sign)
    a, b = c.a[mine], c.b[mine]
    flat = ~a.any(axis=1)
    beta0 = b[flat].max(initial=-np.inf)
    a, b = a[~flat], b[~flat]
    coord = (a != 0).argmax(axis=1)
    slope = a[np.arange(len(b)), coord]
    # the kinks of P_k = max(beta0, the pieces on x_k) inside (0, xbar_k):
    # where two pieces on x_k cross, and where one crosses beta0
    i, j = np.nonzero((coord[:, None] == coord) & (slope[:, None] != slope))
    kink = np.concatenate([(b[j] - b[i]) / (slope[i] - slope[j]),
                           (beta0 - b) / slope])
    on = np.concatenate([coord[i], coord])
    within = (kink > 0) & (kink < xbar[on])
    at_axis = np.concatenate([axis, on[within]])
    at_z = np.concatenate([z, kink[within]])
    # the levels: P_k at the candidates on x_k and at its kinks
    t = np.maximum(np.where(coord[:, None] == at_axis,
                            slope[:, None] * at_z + b[:, None], -np.inf)
                   .max(axis=0), beta0)
    t = np.unique(t[np.isfinite(t)])
    # the sublevel interval [l_k(t), r_k(t)] of P_k: each piece on x_k
    # bounds z from below where it falls and from above where it rises
    bound = (t[:, None] - b) / slope
    ax = coord[:, None] == np.arange(d)
    l = np.maximum(np.where(ax & (slope < 0)[:, None], bound[:, :, None],
                            -np.inf).max(axis=1), 0.0)
    r = np.minimum(np.where(ax & (slope > 0)[:, None], bound[:, :, None],
                            np.inf).min(axis=1), xbar)
    ok = (l <= r + BOX_TOL * (1.0 + xbar)).all(axis=1)
    l, r = l[ok], np.maximum(r[ok], l[ok])
    # per t and k, the first least of u_k at l_k(t), at the candidates
    # inside [l_k(t), r_k(t)], and at r_k(t)
    n, coords = len(l), np.tile(np.arange(d), len(l))
    at = u(np.concatenate([axis, coords, coords]),
           np.concatenate([z, l.ravel(), r.ravel()]))
    inside = (z >= l[:, axis]) & (z <= r[:, axis])
    w = np.where(inside, at[:len(z)], np.inf)
    first = _first_min(w, groups)
    values = np.stack([at[len(z):len(z) + n * d].reshape(n, d),
                       w[np.arange(n)[:, None], first],
                       at[len(z) + n * d:].reshape(n, d)])
    return _distinct(np.choose(values.argmin(axis=0), [l, z[first], r]))


@dataclass
class Encoding:
    program: MixedIntegerProgram
    constant: float  # objective offset from collapsed affine addends


def encode_min(h: CpwaFunction, box) -> Encoding:
    """The MILP whose minimum plus `constant` is the minimum over [0, box]
    of h, pruned by cpwa.prune.  Its variables are x, then per retained
    term: lambda if positive; zeta, P deltas and P binary iotas if not."""
    xbar = np.asarray(box, dtype=float)
    if np.any(xbar <= 0):
        raise ValueError("box must be strictly positive")
    d = h.dimension
    if len(xbar) != d:
        raise ValueError("box dimension mismatch")
    h = prune_cpwa(h)

    # one pass sizes the program: a positive term with P pieces adds
    # lambda and P rows; a negative one adds zeta, P deltas, P iotas and
    # 2 P + 1 rows; a term with one piece is an affine addend
    terms, c_x, constant = [], np.zeros(d), 0.0
    n, m = d, 0
    for t, (a, b) in zip(h.terms, _dedupe_pieces(h.terms)):
        if len(b) == 1:
            c_x += t.sign * a[0]
            constant += t.sign * float(b[0])
            continue
        terms.append((t.sign, a, b))
        P = len(b)
        n += 1 if t.sign == 1 else 1 + 2 * P
        m += P if t.sign == 1 else 2 * P + 1

    A, rhs = np.zeros((m, n)), np.zeros(m)
    sense = np.zeros(m, dtype=np.int8)
    c = np.zeros(n)
    c[:d] = c_x
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    lo[:d], hi[:d] = 0.0, xbar
    binaries = []
    # the completion's stacked pieces: their rows, and per term its first
    # piece and its lambda or zeta; the pieces of negative terms, with the
    # first of each term and each piece's delta and iota
    prows, starts, top = [], [], []
    neg, neg_starts, delta, iota = [], [], [], []
    i, j = 0, d  # next row, next variable
    for sign, a, b in terms:
        P = len(b)
        piece_rows = slice(i, i + P)
        starts.append(len(prows))
        prows += range(i, i + P)
        top.append(j)
        A[piece_rows, :d] = a
        rhs[piece_rows] = -b
        if sign == 1:
            # a.x + b <= lambda
            A[piece_rows, j] = -1.0
            sense[piece_rows] = -1
            c[j] = 1.0
            i, j = i + P, j + 1
            continue
        # zeta is variable j, the deltas follow it, then the iotas
        zeta, dl, io, r = j, j + 1, j + 1 + P, np.arange(P)
        c[zeta] = -1.0
        lo[dl:io + P] = 0.0
        hi[io:io + P] = 1.0
        # a.x + b + delta = zeta
        A[piece_rows, zeta] = -1.0
        A[i + r, dl + r] = 1.0
        # delta_i <= M_i (1 - iota_i)
        big = slice(i + P, i + 2 * P)
        ms = _term_big_m(a, b, xbar)
        A[i + P + r, dl + r] = 1.0
        A[i + P + r, io + r] = rhs[big] = ms
        sense[big] = -1
        # exactly one piece is selected
        A[i + 2 * P, io:io + P] = rhs[i + 2 * P] = 1.0
        binaries += range(io, io + P)
        neg_starts.append(len(neg))
        neg += range(starts[-1], starts[-1] + P)
        delta += range(dl, io)
        iota += range(io, io + P)
        i, j = i + 2 * P + 1, io + P

    sizes = np.diff(starts + [len(prows)])
    complete = _Completion(
        xbar=xbar, n=n, a=A[prows, :d], b=-rhs[prows],
        starts=np.array(starts, dtype=int), top=np.array(top, dtype=int),
        term=np.repeat(np.arange(len(terms)), sizes),
        neg=np.array(neg, dtype=int),
        neg_starts=np.array(neg_starts, dtype=int),
        delta=np.array(delta, dtype=int), iota=np.array(iota, dtype=int))
    program = MixedIntegerProgram(
        LinearProgram.from_arrays(c, A, rhs, sense, lo, hi), binaries,
        complete,
        _vertices(complete) if d <= 2 else _minimizers(complete, c_x))
    return Encoding(program=program, constant=constant)


def minimize_over_box(h: CpwaFunction, box, extra_offset=0.0):
    """Exact MILP minimization of h over [0, box] at solve_milp's default
    options, used by every global check (lower bounds, hedge
    verification, dominating cash).

    Returns (Encoding, MilpResult), with values equal to
    h(x) + extra_offset.
    """
    enc = encode_min(h, box)
    return enc, solve_milp(enc.program,
                           offset=enc.constant + extra_offset)
