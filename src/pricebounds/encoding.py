"""Global minimization of a CPWA function over a box.

min over [0, xbar] of  sum_k sign_k * max_i(<a_{k,i}, x> + b_{k,i})

Every global minimization, minimize_over_box's and ECP's and ACCP's at
each center, first goes through Separation, which values the function at
a few candidate points (below) where its minimum lies at one of them.
Only where there are none, or a value fails its check, is it encoded as a
MILP (encode_min) and solved by branch and bound.

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

For d <= 2 the candidates are the vertices of the arrangement: h is
affine on each cell cut out of the box by the lines on which two pieces
of one term are equal, so its minimum lies at a crossing of two such
lines or box edges.

For d >= 3 there are candidates where at most one term has pieces that
use two or more coordinates.  Write u_i for the sum of the affine addend
on x_i and of the terms whose pieces use x_i alone.

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
candidate is x(t), whose x_i minimizes u_i over l_i(t), r_i(t) and the
kinks of u_i between them, so h(x(t)) is at most the bracket, and the
least h(x(t)) is the minimum.

Where a positive term has a piece that uses two or more coordinates (a
long basket or spread call), or two terms use two or more coordinates
each (call_on_min), there are none: the slack's MILP is built
(encode_min) and solved by branch and bound.  A term whose pieces are
all within PRUNE_THRESHOLD of zero, which encode_min prunes to nothing,
counts here as no term on two or more coordinates; it is still valued.

None of these points moves when a term is scaled: the lines where two
pieces of one term are equal, the kinks of a term on one coordinate and
the sublevel boxes of a positive term's levels are the same for every
positive multiple of it.  So for a slack c + <y, g(x)> - f(x), whose
coefficients are affine in y (cpwa.SlackTemplate), CompiledSlack
computes them once per box, with the values there of the terms on one
coordinate.  At each y it chooses among them from the signs and sizes of
the coefficients, and values the chosen points with a matrix product:
no program is built.  minimize_over_box separates a function h as the
slack of no portfolio against -h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cpwa
from .cpwa import CpwaFunction
from .lp import LinearProgram
from .milp import (COMPLETION_TOL, MilpOptions, MilpResult,
                   MixedIntegerProgram, _pool, solve_milp)

# two lines of the arrangement cross where the determinant of their unit
# max-norm normals exceeds this; crossings within BOX_TOL (1 + xbar) of
# the box are clipped into it
PARALLEL_TOL = 1e-12
BOX_TOL = 1e-9
# in a term of two or more pieces, the pieces whose coefficients and
# offset are all within this of zero become one exact zero piece
PRUNE_THRESHOLD = 1e-6


def _box(box, d):
    """box as an array, which must be strictly positive and of dimension
    d."""
    xbar = np.asarray(box, dtype=float)
    if np.any(xbar <= 0):
        raise ValueError("box must be strictly positive")
    if len(xbar) != d:
        raise ValueError("box dimension mismatch")
    return xbar


def _dedupe_pieces(terms):
    """Per term, its pieces as arrays (a, b), P x d and P.  In a term of
    two or more pieces, those within PRUNE_THRESHOLD of zero become one
    exact zero piece after the others; then each piece that is distinct
    to 12 decimals is kept once, in first-seen order."""
    sizes = np.array([len(t.pieces) for t in terms])
    ab = np.column_stack([
        np.array([a for t in terms for a, _ in t.pieces], dtype=float),
        np.array([b for t in terms for _, b in t.pieces], dtype=float)])
    term = np.repeat(np.arange(len(sizes)), sizes)
    tiny = (np.abs(ab).max(axis=1) <= PRUNE_THRESHOLD) & (sizes[term] > 1)
    # each piece's place in the output order
    place = np.arange(len(ab), dtype=float)
    if tiny.any():
        # a tiny piece becomes an exact zero piece, placed after its
        # term's other pieces; the dedupe keeps one per term
        ab[tiny] = 0.0
        place[tiny] = np.cumsum(sizes)[term[tiny]] - 0.5
    keys = np.column_stack([term, np.round(ab, 12)])
    # a stable sort by term, then by key, puts each piece's copies after it
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = order[np.concatenate(
        ([True], (keys[1:] != keys[:-1]).any(axis=1)))]
    first = first[np.argsort(place[first])]
    a, b = ab[first, :-1], ab[first, -1]
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
    (<a_{k,i'} - a_{k,i}, x> + b_{k,i'} - b_{k,i}), over the pieces
    that encode_min keeps (see _dedupe_pieces), so the row of a negative
    term holds the constants of its program.  Empty row when a term has
    a single piece."""
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


def _piece_pairs(starts, term):
    """The pairs i < j of stacked pieces of one term, where term k's
    pieces start at starts[k] and term[i] is piece i's term."""
    k = np.arange(len(term))
    after = np.append(starts[1:], len(term))[term] - k - 1
    i = np.repeat(k, after)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(after) - after, after)
    return i, j


def _distinct(pts):
    """The distinct rows of pts in lexicographic order, and per row of
    pts the index of its copy among them."""
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    new = np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))
    index = np.empty(len(pts), dtype=int)
    index[order] = np.cumsum(new) - 1
    return pts[new], index


def _first_min(w, groups):
    """Per row of w and group of its columns, the column of the group's
    first least entry."""
    low = np.minimum.reduceat(w, groups, axis=1)
    sizes = np.diff(np.append(groups, w.shape[1]))
    col = np.arange(w.shape[1])
    return np.minimum.reduceat(
        np.where(w == np.repeat(low, sizes, axis=1), col, len(col)),
        groups, axis=1)


class CompiledSlack:
    """h(x) = sum_k coef_k max_i(<a_{k,i}, x> + b_{k,i}) over [0, xbar],
    with coefficients coef = W y + z affine in a portfolio y, as in a
    cpwa.SlackTemplate, compiled once for the box.

    The candidate points of the module docstring do not move with y: a
    line on which two pieces of one term are equal, a kink of a term on
    one coordinate and the sublevel box of a positive term's level stay
    where they are when the term is scaled.  So the arrangement vertices
    (d <= 2), or each axis's candidates with the values there of the
    terms on one coordinate and, per multi-coordinate term, its levels
    and their boxes (d >= 3), are computed once; each coef then chooses
    among them.  Terms with coef_k = 0 are left out, as cpwa.instantiate
    leaves them out: their lines, kinks and levels are not candidates.
    A multi term whose pieces at coef_k are all within PRUNE_THRESHOLD of
    zero is left out of the choice too, as encode_min prunes it.  Pieces
    are valued as given, unpruned, so `minimize` values the true slack."""

    def __init__(self, a, b, starts, W, z, xbar):
        self.a, self.b, self.starts = a, b, starts
        self.W, self.z, self.xbar = W, z, xbar
        self.ends = np.append(starts[1:], len(b))
        self.term = np.repeat(np.arange(len(starts)), self.ends - starts)
        # a term of one piece is an affine addend; of the others, those
        # whose pieces use two or more coordinates between them are
        # multi, and wide where one piece does
        self.affine = self.ends - starts == 1
        nonzero = a != 0
        used = np.logical_or.reduceat(nonzero, starts, axis=0)
        self.multi = ~self.affine & (used.sum(axis=1) >= 2)
        self.single = ~self.affine & ~self.multi
        self.wide = np.logical_or.reduceat(nonzero.sum(axis=1) > 1, starts)
        # per term, its largest piece coefficient or offset in size
        self.size = np.maximum.reduceat(
            np.abs(np.column_stack([a, b])).max(axis=1), starts)
        self._level_sets = {}

    @classmethod
    def from_template(cls, tmpl, box):
        """The slack of a cpwa.SlackTemplate over [0, box]."""
        terms = tmpl.terms
        sizes = [len(pieces) for _, _, pieces in terms]
        a = np.array([a for _, _, pieces in terms for a, _ in pieces],
                     dtype=float).reshape(-1, tmpl.dimension)
        b = np.array([b for _, _, pieces in terms for _, b in pieces],
                     dtype=float)
        W = np.array([w for w, _, _ in terms], dtype=float).reshape(
            len(terms), tmpl.m)
        z = np.array([z for _, z, _ in terms], dtype=float)
        return cls(a, b, np.cumsum([0] + sizes[:-1]), W, z,
                   np.asarray(box, dtype=float))

    def points(self, coef):
        """The candidate points at coef, each once in lexicographic
        order; None where the module docstring gives none."""
        live = coef != 0
        if len(self.xbar) <= 2:
            return self._vertices[0][self._vertex_mask(live)]
        return self._minimizers(coef, live)

    def minimize(self, y, offset, threshold):
        """The least of offset + h over the candidate points at coef = W y
        + z, as the incumbent and the bound of a MilpResult with 0 nodes,
        with the pool of milp._pool at threshold over the points, each a
        box point; None where there are no candidates."""
        coef = self.W @ y + self.z
        live = coef != 0
        if len(self.xbar) <= 2:
            keep = self._vertex_mask(live)
            pts = self._vertices[0][keep]
            values = (self._vertex_terms @ coef)[keep]
        else:
            pts = self._minimizers(coef, live)
            if pts is None:
                return None
            values = self._terms_at(pts) @ coef
        pool = _pool(pts, values + offset, threshold)
        incumbent, p_bar = min(pool, key=lambda xv: xv[1])
        return MilpResult(
            status="optimal", incumbent=incumbent, incumbent_value=p_bar,
            best_bound=p_bar, pool=pool, nodes=0)

    def _terms_at(self, pts):
        """Each term's max of its pieces, at each row of pts."""
        return np.maximum.reduceat(pts @ self.a.T + self.b, self.starts,
                                   axis=1)

    # -- d <= 2: the arrangement --------------------------------------

    @cached_property
    def _vertices(self):
        """(vertices, ends, index): the vertices in [0, xbar] of the
        arrangement of the box edges and of the lines on which two pieces
        of one term are equal, each once in lexicographic order; per
        crossing of two lines in the box, the terms of its lines (-1 for a
        box edge) and its vertex."""
        xbar = self.xbar
        i, j = _piece_pairs(self.starts, self.term)
        n, r = self.a[i] - self.a[j], self.b[j] - self.b[i]
        scale = np.abs(n).max(axis=1, initial=0.0)
        line = self.term[i][scale > 0]
        n, r, scale = n[scale > 0], r[scale > 0], scale[scale > 0]
        if len(xbar) == 1:
            pts = np.concatenate([[0.0], xbar, r / n[:, 0]])[:, None]
            ends = np.column_stack([np.concatenate([[-1, -1], line]),
                                    np.full(len(pts), -1)])
        else:
            # unit max-norm normals, then the box edges
            n = np.vstack([n / scale[:, None], np.eye(2), np.eye(2)])
            r = np.concatenate([r / scale, [0.0, 0.0], xbar])
            line = np.concatenate([line, [-1] * 4])
            i, j = np.triu_indices(len(r), 1)
            det = n[i, 0] * n[j, 1] - n[i, 1] * n[j, 0]
            cross = np.abs(det) > PARALLEL_TOL
            i, j, det = i[cross], j[cross], det[cross]
            pts = np.column_stack(
                [r[i] * n[j, 1] - r[j] * n[i, 1],
                 n[i, 0] * r[j] - n[j, 0] * r[i]]) / det[:, None]
            ends = np.column_stack([line[i], line[j]])
        tol = BOX_TOL * (1.0 + xbar)
        inbox = ((pts >= -tol) & (pts <= xbar + tol)).all(axis=1)
        vertices, index = _distinct(np.clip(pts[inbox], 0.0, xbar))
        return vertices, ends[inbox], index

    @cached_property
    def _vertex_terms(self):
        return self._terms_at(self._vertices[0])

    def _vertex_mask(self, live):
        """The vertices at which two lines of live terms or box edges
        cross."""
        _, ends, index = self._vertices
        keep = np.zeros(len(self._vertices[0]), dtype=bool)
        keep[index[np.append(live, True)[ends].all(axis=1)]] = True
        return keep

    # -- d >= 3: coordinatewise and level minimizers -------------------

    def _minimizers(self, coef, live):
        """The points of the module docstring: per piece t of the live
        multi term if it is negative, the coordinatewise minimizer of the
        separable h_t; per level t of it if it is positive and not wide,
        x(t); one coordinatewise minimizer if no multi term is live.  None
        if a live multi term is positive and wide, or two are live."""
        k = np.flatnonzero(self.multi & live)
        # a multi term whose pieces at coef are all within PRUNE_THRESHOLD
        # of zero, which encode_min prunes, chooses no points
        k = k[np.abs(coef[k]) * self.size[k] > PRUNE_THRESHOLD]
        if len(k) > 1 or len(k) and coef[k[0]] > 0 and self.wide[k[0]]:
            return None
        axis, z, owner, groups = self._axes
        # per term and for -1, whether it is live
        live = np.append(live, True)
        if len(k) and coef[k[0]] > 0:
            return self._level_points(k[0], coef, live)
        # the slopes a_t of the negative term's pieces, or one zero slope
        # where every term uses one coordinate
        s = (self.a[self.starts[k[0]]:self.ends[k[0]]] * -coef[k[0]]
             if len(k) else np.zeros((1, len(self.xbar))))
        u = np.where(live[owner], self._u(coef, axis, z, self._axis_terms),
                     np.inf)
        # per t and k, the first candidate of group k that minimizes
        # u_k(z) - a_t[k] z
        return _distinct(z[_first_min(u - s[:, axis] * z, groups)])[0]

    @cached_property
    def _axes(self):
        """(axis, z, owner, groups): the candidates z on coordinate axis,
        grouped by coordinate (groups[k] is coordinate k's first), which
        are 0, xbar_k and the kinks inside (0, xbar_k) of the single
        terms, where two pieces of one such term cross; owner is the term
        of a kink, -1 for 0 and xbar_k."""
        xbar, d = self.xbar, len(self.xbar)
        i, j = _piece_pairs(self.starts, self.term)
        one = self.single[self.term[i]]
        i, j = i[one], j[one]
        axis = ((self.a[i] != 0) | (self.a[j] != 0)).argmax(axis=1)
        slope = self.a[i, axis] - self.a[j, axis]
        crossing = slope != 0
        z = (self.b[j] - self.b[i])[crossing] / slope[crossing]
        axis, owner = axis[crossing], self.term[i][crossing]
        inside = (z > 0) & (z < xbar[axis])
        axis = np.concatenate([np.arange(d), np.arange(d), axis[inside]])
        z = np.concatenate([np.zeros(d), xbar, z[inside]])
        owner = np.concatenate([np.full(2 * d, -1), owner[inside]])
        order = np.argsort(axis, kind="stable")
        axis, z, owner = axis[order], z[order], owner[order]
        return axis, z, owner, np.searchsorted(axis, np.arange(d))

    @cached_property
    def _axis_terms(self):
        return self._single_terms(*self._axes[:2])

    def _single_terms(self, axis, z):
        """The single terms' values at each point z e_axis, by term."""
        pieces = self.single[self.term]
        if not pieces.any():
            return np.zeros((len(z), 0))
        at = np.zeros((len(z), len(self.xbar)))
        at[np.arange(len(z)), axis] = z
        term = self.term[pieces]
        firsts = np.flatnonzero(np.concatenate(([True],
                                                term[1:] != term[:-1])))
        return np.maximum.reduceat(at @ self.a[pieces].T + self.b[pieces],
                                   firsts, axis=1)

    def _u(self, coef, axis, z, single_terms):
        """u(axis, z), the separable part of h at z e_axis: the affine
        addends' slope on axis times z plus the single terms, which is
        u_k(z) plus a constant per coordinate k that does not move an
        argmin over z."""
        c_x = self.a[self.starts[self.affine]].T @ coef[self.affine]
        u = c_x[axis] * z
        if single_terms.shape[1]:
            u += single_terms @ coef[self.single]
        return u

    def _levels(self, k):
        """For the positive term k whose pieces each use at most one
        coordinate: (l, r, level, owner, axis, z, terms).  l and r hold
        per level t, one row each, the ends of the sublevel intervals
        [l_i(t), r_i(t)], for the levels whose box is not empty.  Per
        value of P that makes a level, its row (-1 if dropped) and the
        term of its candidate (-1 for 0, xbar_i and P's own kinks).  axis
        and z list the points at which u is needed, the candidates, then
        l and r, and terms the single terms' values there."""
        if k in self._level_sets:
            return self._level_sets[k]
        xbar, d = self.xbar, len(self.xbar)
        axis, z, owner, groups = self._axes
        mine = slice(self.starts[k], self.ends[k])
        a, b = self.a[mine], self.b[mine]
        flat = ~a.any(axis=1)
        beta0 = b[flat].max(initial=-np.inf)
        a, b = a[~flat], b[~flat]
        coord = (a != 0).argmax(axis=1)
        slope = a[np.arange(len(b)), coord]
        # the kinks of P_k = max(beta0, the pieces on x_k) inside (0,
        # xbar_k): where two pieces on x_k cross, and where one crosses
        # beta0
        i, j = np.nonzero((coord[:, None] == coord)
                          & (slope[:, None] != slope))
        kink = np.concatenate([(b[j] - b[i]) / (slope[i] - slope[j]),
                               (beta0 - b) / slope])
        on = np.concatenate([coord[i], coord])
        within = (kink > 0) & (kink < xbar[on])
        at_axis = np.concatenate([axis, on[within]])
        at_z = np.concatenate([z, kink[within]])
        at_owner = np.concatenate([owner, np.full(within.sum(), -1)])
        # the levels: P_k at the candidates on x_k and at its kinks
        t = np.maximum(np.where(coord[:, None] == at_axis,
                                slope[:, None] * at_z + b[:, None], -np.inf)
                       .max(axis=0), beta0)
        finite = np.isfinite(t)
        t, level = np.unique(t[finite], return_inverse=True)
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
        level = np.where(ok, np.cumsum(ok) - 1, -1)[level.ravel()]
        coords = np.tile(np.arange(d), len(l))
        at_axis = np.concatenate([axis, coords, coords])
        at_z = np.concatenate([z, l.ravel(), r.ravel()])
        self._level_sets[k] = sets = (
            l, r, level, at_owner[finite], at_axis, at_z,
            self._single_terms(at_axis, at_z))
        return sets

    def _level_points(self, k, coef, live):
        """The points x(t) of the module docstring, each once in
        lexicographic order, for the live positive term k, over the
        levels that live candidates make; live[-1] is True, for the
        candidates that no term makes."""
        axis, z, owner, groups = self._axes
        l, r, level, made_by, at_axis, at_z, terms = self._levels(k)
        at = self._u(coef, at_axis, at_z, terms)
        n, d = l.shape
        # per t and k, the first least of u_k at l_k(t), at the live
        # candidates inside [l_k(t), r_k(t)], and at r_k(t)
        inside = (z >= l[:, axis]) & (z <= r[:, axis]) & live[owner]
        w = np.where(inside, at[:len(z)], np.inf)
        first = _first_min(w, groups)
        values = np.stack([at[len(z):len(z) + n * d].reshape(n, d),
                           w[np.arange(n)[:, None], first],
                           at[len(z) + n * d:].reshape(n, d)])
        pts = np.choose(values.argmin(axis=0), [l, z[first], r])
        made = np.zeros(n, dtype=bool)
        made[level[(level >= 0) & live[made_by]]] = True
        return _distinct(pts[made])[0]


class Separation:
    """The least slack c + <y, g(x)> - f(x) over [0, box] at a center (c,
    y), from the slack's template (`template`, cpwa.slack_template)
    compiled once (CompiledSlack), with no MILP.  Each value it returns is
    checked against cpwa.Stacked at its point, combined with y and f,
    within COMPLETION_TOL (1 + |value|).  A call returns None where the
    compiled slack has no candidates at y, or a value fails that check;
    the caller then solves the slack's MILP."""

    def __init__(self, g, f: CpwaFunction, box):
        self.template = cpwa.slack_template(g, f)
        self._slack = CompiledSlack.from_template(
            self.template, _box(box, f.dimension))
        self._at = cpwa.Stacked(list(g) + [f])

    def __call__(self, c, y, threshold):
        res = self._slack.minimize(y, c, threshold)
        if res is None:
            return None
        x = np.array([x for x, _ in res.pool])
        value = np.array([v for _, v in res.pool])
        at = self._at(x)
        slack = c + at[:, :-1] @ y - at[:, -1]
        if (np.abs(slack - value) <= COMPLETION_TOL * (1.0 + np.abs(value))
                ).all():
            return res
        return None


@dataclass
class Encoding:
    program: MixedIntegerProgram
    constant: float  # objective offset from collapsed affine addends


def encode_min(h: CpwaFunction, box) -> Encoding:
    """The MILP whose minimum plus `constant` is the minimum over [0, box]
    of h.  Each term keeps the pieces that _dedupe_pieces keeps: tiny
    pieces pruned to one zero piece, copies dropped.  Its variables are x,
    then per retained term: lambda if positive; zeta, P deltas and P
    binary iotas if not."""
    d = h.dimension
    xbar = _box(box, d)

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
        complete)
    return Encoding(program=program, constant=constant)


def minimize_over_box(h: CpwaFunction, box, extra_offset=0.0):
    """The exact minimum of h over [0, box] at solve_milp's default
    options, used by every global check (lower bounds, hedge
    verification, dominating cash).  h is separated as the slack of no
    portfolio against -h; only where that returns None is its MILP built
    and solved by branch and bound.

    Returns (Encoding, MilpResult), with values equal to
    h(x) + extra_offset; the Encoding is None where no program was built.
    """
    res = Separation([], cpwa.linear_combination([-1.0], [h]), box)(
        extra_offset, np.zeros(0), MilpOptions.pool_threshold)
    if res is not None:
        return None, res
    enc = encode_min(h, box)
    return enc, solve_milp(enc.program,
                           offset=enc.constant + extra_offset)
