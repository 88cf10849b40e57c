"""Linear inequality system certifying lower-boundedness of the slack.

On the unbounded domain R^d_+ the slack s_y = sum_j y_j g_j - f is
bounded below iff its radial version is nonnegative on R^d_+.  That
condition is equivalent to a finite system of linear inequalities on y
with auxiliary nonnegative multipliers eta: for every choice of one
piece per term whose "difference cone" has nonempty interior within the
positive orthant, the chosen pieces' weighted gradient must dominate a
conic combination of the difference vectors.

`generate` enumerates the piece tuples depth first, in lexicographic
order, one term at a time.  A prefix carries its deduplicated difference
vectors, and its cone is tested only when the last term added a new
direction.  Once a prefix's cone is empty, every tuple extending it is
skipped.  This is exact: a tuple's difference set contains each of its
prefixes' sets, so a convex combination of a prefix's vectors that is
<= 0 is also one of the tuple's (with zero weight on the other
vectors).  The kept tuples, in their order, are those of the exhaustive
loop over `enumerate_tuples`; only the number of cone tests falls, from
the product of the terms' piece counts to about the number of surviving
prefixes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cpwa import SlackTemplate
from .lp import (LinearProgram, solve_lp, ResourceLimitError,
                 ConditioningError)

ROW_CAP_DEFAULT = 100000
# cone witnesses: weight sign and sum, and V @ x <= 0 relative to |V|
WITNESS_TOL = 1e-9


@dataclass
class RadialBlock:
    Y: np.ndarray  # (d, m) coefficients on y
    E: np.ndarray  # (d, n_eta) coefficients on this block's eta vars
    rhs: np.ndarray  # (d,)
    tuple_index: tuple


@dataclass
class RadialSystem:
    m: int
    dimension: int
    blocks: list  # of RadialBlock

    @property
    def aux_count(self):
        return sum(b.E.shape[1] for b in self.blocks)

    @property
    def row_count(self):
        return sum(b.Y.shape[0] for b in self.blocks)


def enumerate_tuples(tmpl: SlackTemplate):
    """All ways of picking one piece index per template term."""
    ranges = [range(len(pieces)) for _, _, pieces in tmpl.terms]
    return itertools.product(*ranges)


def cone_interior_empty(A) -> bool:
    """True iff some convex combination of the vectors in A is <= 0
    componentwise (which collapses the dual cone's interior in R^d_+).

    In d = 1 and d = 2 the weights come in closed form (see
    _planar_weights); in d >= 3 from an LP.  An "empty" verdict discards
    every tuple that extends the prefix, so its weights are checked
    before it is returned; a witness that fails the check raises
    ConditioningError."""
    if len(A) == 0:
        return False
    V = np.asarray(np.stack(A, axis=1), dtype=float)  # (d, n)
    d, n = V.shape
    tol = WITNESS_TOL * max(1.0, float(np.abs(V).max()))
    if d <= 2:
        x = _planar_weights(V, tol / 2.0)
    else:
        rows = [(np.ones(n), "=", 1.0), (V, "<=", 0.0)]
        sol = solve_lp(LinearProgram(np.zeros(n), rows, [(0.0, None)] * n))
        x = sol.x if sol.status == "optimal" else None
    if x is None:
        return False
    if (x.min() < -WITNESS_TOL or abs(x.sum() - 1.0) > WITNESS_TOL or
            (V @ x).max() > tol):
        raise ConditioningError(
            "cone LP witness fails: min weight %.3g, weight sum %.12g, "
            "max component %.3g" % (x.min(), x.sum(), (V @ x).max()))
    return True


def _planar_weights(V, h):
    """Weights of a convex combination of the columns of V (d <= 2 rows)
    that is <= h componentwise, or None if there is none.

    One column or two suffice: if the hull of the columns meets
    {z <= h}, then so does its boundary, since moving from a point of
    the hull along (-1, ..., -1) stays in {z <= h} until it leaves the
    hull; in d <= 2 that boundary is made of the segments between two
    columns.  The weights are the first column that is <= h, else the
    middle of the feasible range of t on the first segment
    (1 - t) V_i + t V_j, i < j, that has one."""
    x = np.zeros(V.shape[1])
    single = (V <= h).all(axis=0).nonzero()[0]
    if single.size:
        x[single[0]] = 1.0
        return x
    i, j = np.triu_indices(V.shape[1], 1)
    a, D = V[:, i], V[:, j] - V[:, i]
    # a_k + t D_k <= h bounds t above where D_k > 0 and below where D_k < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (h - a) / D
    t_lo = np.maximum(np.where(D < 0, r, -np.inf).max(axis=0), 0.0)
    t_hi = np.minimum(np.where(D > 0, r, np.inf).min(axis=0), 1.0)
    ok = ((t_lo <= t_hi) & ~((D == 0) & (a > h)).any(axis=0)).nonzero()[0]
    if not ok.size:
        return None
    k = ok[0]
    t = 0.5 * (t_lo[k] + t_hi[k])
    x[i[k]], x[j[k]] = 1.0 - t, t
    return x


def _piece_directions(tmpl: SlackTemplate):
    """dirs[k][ik]: the nonzero difference vectors a_ik - a_i (i != ik)
    of term k's pieces, each with its dedupe key, in piece order."""
    dirs = []
    for _, _, pieces in tmpl.terms:
        per_piece = []
        for ik, (ak, _) in enumerate(pieces):
            vs = []
            for i, (ai, _) in enumerate(pieces):
                if i == ik:
                    continue
                v = ak - ai
                if np.abs(v).max(initial=0.0) > 1e-12:
                    vs.append((tuple(np.round(v, 12)), v))
            per_piece.append(vs)
        dirs.append(per_piece)
    return dirs


def _open_cone_tuples(dirs, k=0, prefix=(), uniq=(), useen=frozenset()):
    """Yield (tuple, uniq) for every piece tuple extending `prefix`
    whose difference cone has nonempty interior, in the order of
    `enumerate_tuples`.  uniq lists the tuple's distinct difference
    vectors in order of first appearance."""
    if k == len(dirs):
        yield prefix, list(uniq)
        return
    for ik, vs in enumerate(dirs[k]):
        u = list(uniq)
        seen = set(useen)
        for key, v in vs:
            if key not in seen:
                seen.add(key)
                u.append(v)
        # an empty cone stays empty in every tuple extending the prefix
        if len(u) > len(uniq) and cone_interior_empty(u):
            continue
        yield from _open_cone_tuples(dirs, k + 1, prefix + (ik,), u, seen)


def generate(tmpl: SlackTemplate, row_cap=ROW_CAP_DEFAULT) -> RadialSystem:
    """Build the inequality system from a radial slack template
    (all piece offsets zero).

    Tuples are visited depth first in `enumerate_tuples` order, and a
    prefix whose difference cone is already empty is not extended (see
    the module docstring for why that is exact).  Blocks equal to an
    earlier block are dropped, and ResourceLimitError is raised once the
    system would exceed `row_cap` rows."""
    d = tmpl.dimension
    blocks = []
    seen = set()
    rows = 0
    for tup, uniq in _open_cone_tuples(_piece_directions(tmpl)):
        Y = np.zeros((d, tmpl.m))
        rhs = np.zeros(d)
        for k, ik in enumerate(tup):
            w, z, pieces = tmpl.terms[k]
            ak = pieces[ik][0]
            Y += np.outer(ak, w)
            rhs -= z * ak
        E = (-np.stack(uniq, axis=1) if uniq else np.zeros((d, 0)))
        key = (tuple(np.round(Y, 10).ravel()), tuple(np.round(rhs, 10)),
               tuple(sorted(tuple(np.round(v, 10)) for v in uniq)))
        if key in seen:
            continue
        seen.add(key)
        rows += d
        if rows > row_cap:
            raise ResourceLimitError(
                "radial system exceeds %d rows" % row_cap)
        blocks.append(RadialBlock(Y=Y, E=E, rhs=rhs, tuple_index=tup))
    return RadialSystem(m=tmpl.m, dimension=d, blocks=blocks)


def is_feasible(system: RadialSystem, y) -> bool:
    """Does some eta >= 0 satisfy every block at this y?

    Blocks have independent eta variables, so each is checked by its own
    small feasibility LP."""
    y = np.asarray(y, dtype=float)
    for b in system.blocks:
        lhs = b.Y @ y
        need = b.rhs - lhs  # require E @ eta >= need
        if b.E.shape[1] == 0:
            if np.any(need > 1e-8):
                return False
            continue
        n = b.E.shape[1]
        sol = solve_lp(LinearProgram(np.zeros(n), [(b.E, ">=", need)],
                                     [(0.0, None)] * n))
        if sol.status != "optimal":
            return False
    return True
