"""Bounded-variable dual simplex LP solver with checked certificates.

Solves  min <c, x>  s.t.  A x (sense) b,  lo <= x <= hi  for a program
held in matrix form (see LinearProgram).  Reports the primal solution,
row duals, a checked Farkas certificate on infeasibility and a checked
improving ray on unboundedness.

Every solve, cold or warm, runs one bounded-variable dual simplex
(Koberstein 2005, PhD thesis, Paderborn, ch. 4) on the bounded form of
the program: A x + L s = b over the program's own columns, each within
its own [lo, hi], and one logical column per row (-1 on a >= row, +1 on
the others), within [0, 0] on an = row and [0, inf) on the others.  A
changed variable bound moves a column bound and adds no row.  The basis
inverse B^-1 is kept as a dense array and updated by one rank-1 step per
pivot.  Each nonbasic column sits at one of its bounds, or at zero when
it has none.  The leaving row is the one whose basic value is furthest
outside its bounds; the entering column passes the dual ratio test, with
the largest pivot among tied columns, so identical inputs always produce
identical outputs.  After a run of degenerate pivots longer than the
column count, Bland's rule (the least basic column leaves, the least
tied column enters) takes over until the dual objective moves again, so
that a degenerate cycle ends.

- Cold start: the slack basis, with B^-1 = diag(+-1) and the reduced
  costs equal to c.  Each nonbasic column starts at the bound that its
  cost prefers, and a free column with zero cost at zero.  A column whose
  preferred bound is infinite gets an artificial bound instead, 1e6
  (1 + |b|_inf) from zero, which makes the start dual feasible.  At an
  optimum, a column still at an artificial bound moves to its own bound
  (or to zero) when its reduced cost is zero.  Otherwise its ray
  e_j - B^-1 a_j is checked, and a valid ray makes the verdict
  unbounded.  Failing that, every artificial bound is widened once, by
  1e6, and the solve goes on from the same basis; a second such optimum
  raises ConditioningError.
- Warm start: the optimal solution of a related program, one with the
  same objective and the same finite variable bounds, whose bound values,
  rows and right-hand sides may differ, as a branch-and-bound child
  differs from its parent and the next LP of a cutting-plane loop from
  the last.  With the same rows, the re-solve starts from copies of the
  start's B^-1 and reduced costs, which its certified solve left on it,
  so a branch-and-bound child hands them on to its own children and no
  branched node is factorized.  With changed rows, a row of the program
  with the coefficients and sense of a row of the start's keeps that
  row's logical, a new row enters with its logical basic, and a dropped
  row leaves with its logical, which must be basic; the inverse comes
  from one fresh factorization of the mapped basis.  A start that cannot
  be used, or a re-solve that ends without a checked result, falls back
  to the cold start, and the result's `fallback` says why.

No verdict leaves without its checked certificate.  An optimum is
certified from the maintained arrays, with y = c_B B^-1 (see
_certified); an infeasible verdict carries row r of B^-1, checked as a
Farkas vector over the true column bounds (see _farkas); an unbounded
verdict carries a checked ray (see _ray).  An optimum or a Farkas vector
that fails its check, or a pivot that B^-1 computes inconsistently,
makes the solve go on from one fresh factorization of its basis; a
Farkas vector that still fails widens the artificial bounds, once, as
an artificial bound may be what blocks its row; any other failure right
after a factorization ends the solve.  A cold solve that ends without a
checked result raises ConditioningError, or ResourceLimitError at its
iteration cap.  Every basis is factorized through its kernel: the
logicals make it block triangular, and only the rows and columns they
leave are LU-factorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dgetrf, dgetri

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
CONDITION_RATIO_MAX = 1e12
MAX_ITER = 100000
# smallest pivot element the dual ratio test accepts
PIVOT_TOL = 1e-9
# largest relative gap between a dual-simplex pivot element computed from
# its row and from its column of B^-1 A
PIVOT_AGREE = 1e-6
# a Farkas vector y (max-norm 1) may have |y.A| up to FARKAS_TOL on a
# column whose bound on that side is infinite, and must beat the largest
# y.A x over the column bounds by more than FARKAS_TOL (1 + |b|_inf)
FARKAS_TOL = 1e-9
# an optimum is certified only if its basic values solve
# B x_B = b - A_N x_N to within RESIDUAL_TOL (1 + |b - A_N x_N|)
RESIDUAL_TOL = 1e-9

_SENSE = {"<=": -1, "=": 0, ">=": 1}
_RELATION = {-1: "<=", 0: "=", 1: ">="}


class ResourceLimitError(RuntimeError):
    """Iteration or size limit exceeded."""


class ConditioningError(ValueError):
    """Input coefficients span more than the allowed dynamic range, or a
    certificate fails its check."""


class LinearProgram:
    """min <objective, x>  s.t.  A x (sense) b,  lo <= x <= hi.

    The program is held as arrays, built once here: A (m x n), b (m,),
    sense (m,) with -1 for <=, 0 for = and +1 for >=, and lo/hi (n,)
    with -inf/+inf where a variable has no bound.

    rows: list of (a, rel, rhs) with rel in {"<=", ">=", "="}.  `a` is
    one row with a scalar rhs, or a 2-D block of rows sharing rel, with
    rhs a vector over the block or one scalar for all of its rows.  Rows
    keep the order in which they are given.
    var_bounds: per variable (lower or None, upper or None).

    Non-finite coefficients or right-hand sides, NaN bounds, a +inf
    lower or -inf upper bound raise ValueError.  `rows` and `var_bounds`
    read the arrays back per row and per variable."""

    def __init__(self, objective, rows, var_bounds):
        c = np.asarray(objective, dtype=float)
        n = len(c)
        if len(var_bounds) != n:
            raise ValueError("bounds length mismatch")
        blocks, rhs, sense = [], [], []
        for a, rel, b in rows:
            a = np.asarray(a, dtype=float)
            if rel not in _SENSE:
                raise ValueError("bad relation %r" % (rel,))
            if a.ndim == 1:
                a = a[None]
                rhs.append(float(b))
            else:
                b = np.asarray(b, dtype=float)
                rhs.extend(b.tolist() if b.ndim else [float(b)] * len(a))
            blocks.append(a)
            sense.extend([_SENSE[rel]] * len(a))
        A = np.concatenate(blocks) if blocks else np.zeros((0, n))
        lo = np.array([-np.inf if v is None else v for v, _ in var_bounds],
                      dtype=float)
        hi = np.array([np.inf if v is None else v for _, v in var_bounds],
                      dtype=float)
        self._set(c, A, np.array(rhs, dtype=float),
                  np.array(sense, dtype=np.int8), lo, hi)

    @classmethod
    def from_arrays(cls, objective, A, b, sense, lo, hi):
        """The program with these arrays, checked as the constructor
        checks its rows: sense holds -1, 0 or +1 per row, lo and hi hold
        -inf and +inf where a variable has no bound."""
        sense = np.asarray(sense, dtype=np.int8)
        if ((sense < -1) | (sense > 1)).any():
            raise ValueError("bad relation")
        p = cls.__new__(cls)
        p._set(np.asarray(objective, dtype=float),
               np.asarray(A, dtype=float), np.asarray(b, dtype=float),
               sense, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        return p

    def _set(self, c, A, b, sense, lo, hi):
        n = len(c)
        if A.ndim != 2 or A.shape[1] != n or b.shape != A.shape[:1] or \
                sense.shape != b.shape or lo.shape != (n,) or \
                hi.shape != (n,):
            raise ValueError("row or rhs length mismatch")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and
                np.isfinite(b).all()):
            raise ValueError("objective and rows must be finite")
        # NaN fails every comparison
        if not ((lo <= hi) & (lo < np.inf) & (hi > -np.inf)).all():
            raise ValueError("bounds must have lower <= upper, and no NaN, "
                             "+inf lower or -inf upper bound")
        self.objective, self.A, self.b, self.sense = c, A, b, sense
        self.lo, self.hi = lo, hi

    @property
    def rows(self):
        """Per row: (coefficients, relation, rhs)."""
        return [(a, _RELATION[s], v) for a, s, v in
                zip(self.A, self.sense.tolist(), self.b.tolist())]

    @property
    def var_bounds(self):
        """Per variable: (lower or None, upper or None)."""
        return [(None if lo == -np.inf else lo, None if hi == np.inf else hi)
                for lo, hi in zip(self.lo.tolist(), self.hi.tolist())]

    def fix(self, idx, values):
        """This program with the variables idx fixed at values.  The copy
        shares the objective and row arrays."""
        q = LinearProgram.__new__(LinearProgram)
        q.__dict__.update(self.__dict__)
        q.lo, q.hi = self.lo.copy(), self.hi.copy()
        q.lo[idx] = q.hi[idx] = values
        return q


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None
    objective: float = None
    row_duals: np.ndarray = None
    dual_objective: float = None
    farkas: np.ndarray = None  # certificate over rows, if infeasible
    ray: np.ndarray = None  # improving direction, if unbounded
    iterations: int = 0
    # why a given start was not used, if the cold start answered
    fallback: str = None
    # if optimal, the start of a re-solve: the final basis over the
    # columns of `form` (the program's columns, then one logical per
    # row), and `upper` marking the nonbasic columns at their upper bound
    basis: np.ndarray = field(default=None, repr=False)
    form: object = field(default=None, repr=False)
    upper: np.ndarray = field(default=None, repr=False)
    # (form, basis, upper, B^-1, reduced costs), left by the certified
    # solve; a holder may drop it, and a re-solve from this solution then
    # builds it again from one factorization and keeps it here
    warm: object = field(default=None, repr=False)


@dataclass
class _BoundedForm:
    """A program's rows as  A x + L s = b:  the program's columns, then
    the logical column of row i at n + i, -1 on a >= row and +1 on the
    others (see _bounds for the column bounds).  c is the objective over
    all columns, zero on the logicals."""
    program: LinearProgram
    A: np.ndarray
    c: np.ndarray


class _Unsolved(Exception):
    """A solve that ends without a checked result: a start that cannot be
    used, or a dual simplex that cannot go on.  The message says why;
    `error` is the public error a cold solve raises for it."""

    def __init__(self, why, error=ConditioningError):
        super().__init__(why)
        self.error = error


def _form(p):
    """The bounded form of p."""
    n, m = len(p.objective), len(p.b)
    A = np.zeros((m, n + m))
    A[:, :n] = p.A
    A[np.arange(m), n + np.arange(m)] = np.where(p.sense > 0, -1.0, 1.0)
    return _BoundedForm(program=p, A=A,
                        c=np.concatenate([p.objective, np.zeros(m)]))


def _bounds(p):
    """Column bounds of p's bounded form: the variables' own, then [0, 0]
    for the logical of an = row and [0, inf) for the others."""
    m = len(p.b)
    return (np.concatenate([p.lo, np.zeros(m)]),
            np.concatenate([p.hi, np.where(p.sense == 0, 0.0, np.inf)]))


def _check_conditioning(p: LinearProgram):
    mags = np.abs(p.A)
    nz = mags[mags != 0.0]
    if not nz.size:
        return
    hi = nz.max()
    lo = nz.min()
    if lo > 0 and hi / lo > CONDITION_RATIO_MAX:
        raise ConditioningError(
            "coefficient dynamic range %.3g exceeds %.3g" %
            (hi / lo, CONDITION_RATIO_MAX))


def _farkas(y, A, b, lo, hi, margin):
    """y scaled to max-norm 1 if it proves that A x = b has no solution
    with lo <= x <= hi (per column, or one value for every column): the
    largest y.A x over those bounds is below y.b - margin.  A column
    with an infinite bound on the side that y.A would push it to must
    have |y.A| <= FARKAS_TOL there.  None otherwise."""
    top = np.abs(y).max(initial=0.0)
    if not top > 0.0:
        return None
    y = y / top
    g = y @ A
    bound = np.where(g > 0.0, hi, lo)
    inf = np.isinf(bound)
    if np.abs(g[inf]).max(initial=0.0) > FARKAS_TOL or \
            not g[~inf] @ bound[~inf] < y @ b - margin:
        return None
    return y


def _ray(r, p):
    """r scaled to max-norm 1 if it is an improving ray of p: A r moves
    every row to the side its sense allows and r moves no variable past a
    finite bound, each within FEAS_TOL (1 + the l1-norm of its
    coefficients), and c.r is below minus that tolerance for c, so that a
    ray the rows cannot tell from zero is refused.  None otherwise."""
    top = np.abs(r).max(initial=0.0)
    if not top > 0.0:
        return None
    r = r / top
    Ar = p.A @ r
    tol = FEAS_TOL * (1.0 + np.abs(p.A).sum(axis=1))
    rows_ok = np.where(p.sense == 0, np.abs(Ar) <= tol, p.sense * Ar >= -tol)
    if not (p.objective @ r < -FEAS_TOL * (1.0 + np.abs(p.objective).sum())
            and rows_ok.all() and
            (r[np.isfinite(p.lo)] >= -FEAS_TOL).all() and
            (r[np.isfinite(p.hi)] <= FEAS_TOL).all()):
        return None
    return r


def _inverse(bf, basis):
    """B^-1 and the reduced costs at basis, from one factorization.  With
    the logicals' rows r2 and the other rows r1, B is block triangular,
    [[B11, 0], [B21, D]] over rows (r1, r2) and basis positions (S, L) of
    its structural columns and its logicals, with D diagonal; only the
    kernel B11 is factorized."""
    A, n = bf.A, len(bf.program.objective)
    m = len(A)
    unit = basis >= n
    S, L = (~unit).nonzero()[0], unit.nonzero()[0]
    r2 = basis[L] - n
    r1 = np.ones(m, dtype=bool)
    r1[r2] = False
    r1 = r1.nonzero()[0]
    D = A[r2, basis[L]]
    Binv = np.zeros((m, m))
    bottom = np.zeros((len(L), m))
    bottom[np.arange(len(L)), r2] = 1.0 / D
    if S.size:
        AS = A[:, basis[S]]
        lu, piv, info = dgetrf(AS[r1])
        if not info:
            K, info = dgetri(lu, piv)
        if info:
            raise _Unsolved("singular basis")
        top = np.zeros((len(S), m))
        top[:, r1] = K
        Binv[S] = top
        bottom[:, r1] = (AS[r2] @ K) / -D[:, None]
    Binv[L] = bottom
    return Binv, bf.c - (bf.c[basis] @ Binv) @ A


def _nonbasic(lo, hi, upper, basis):
    """(x, dirn, free) for a basis: x holds each nonbasic column at its
    bound (the upper one where `upper` says so), a column without that
    bound at zero, and zero on the basis; dirn is +1 on the nonbasic
    columns that may rise from their lower bound, -1 on those that may
    fall from their upper bound, and 0 on the basic, fixed and free ones;
    free marks the nonbasic columns without a bound, which may move
    either way."""
    x = np.where(upper, hi, lo)
    free = np.isinf(x)
    x[free] = 0.0
    dirn = np.where(upper, -1.0, 1.0)
    dirn[free | (lo == hi)] = 0.0
    x[basis] = dirn[basis] = 0.0
    free[basis] = False
    return x, dirn, free


def _certified(bf, p, basis, upper, Binv, x, xB, lo, hi, dirn, free, tol,
               iters, opt_tol):
    """The optimal solution of p at a dual-simplex basis of bf, if the
    arrays the dual simplex maintained certify it; None otherwise.  x
    holds the nonbasic columns (see _nonbasic) and zero on the basis.
    Checked, with y = c_B B^-1: the basic values xB, within tol of their
    bounds, and their residual against b - A x; the reduced costs
    c - y A, recomputed rather than the updated ones, for their sign on
    the nonbasic columns (dirn) and for zero on the basic and the free
    ones, each within opt_tol times the size of its terms
    |c_j| + |y| |A_j|; and the gap between the primal and the dual
    objective, within opt_tol times the size of its terms.  The
    solution keeps (bf, basis, upper, B^-1, reduced costs) as its `warm`
    state, so that a re-solve from it starts from copies and factorizes
    nothing."""
    A, c = bf.A, bf.c
    rhs = p.b - A @ x
    cB = c[basis]
    y = cB @ Binv
    d = c - y @ A
    lo_B, hi_B = lo[basis], hi[basis]
    zero = free.copy()
    zero[basis] = True
    # each reduced cost relative to the size of its terms
    dn = d / (1.0 + np.abs(c) + np.abs(y) @ np.abs(A))
    # written so that a NaN fails every test
    if not (np.abs(A[:, basis] @ xB - rhs).max(initial=0.0) <=
            RESIDUAL_TOL * (1.0 + np.abs(rhs).max(initial=0.0)) and
            np.maximum(lo_B - xB, xB - hi_B).max(initial=0.0) <= tol and
            (dirn * dn).min(initial=0.0) >= -opt_tol and
            np.abs(dn[zero]).max(initial=0.0) <= opt_tol):
        return None
    # primal less dual objective, within the rounding of their terms
    gap = cB @ xB - y @ rhs
    if not abs(gap) <= opt_tol * (1.0 + np.abs(cB) @ np.abs(xB) +
                                  np.abs(y) @ np.abs(rhs)):
        return None
    d[basis] = 0.0
    dual = float(y @ rhs + c @ x)
    x[basis] = np.minimum(np.maximum(xB, lo_B), hi_B)
    xp = x[:len(p.objective)].copy()
    return LpSolution(status="optimal", x=xp,
                      objective=float(p.objective @ xp), row_duals=y,
                      dual_objective=dual, iterations=iters, basis=basis,
                      form=bf, upper=upper,
                      warm=(bf, basis, upper, Binv, d))


def _widen(lo, hi, lo_t, hi_t):
    """Widen the artificial bounds of lo and hi (where they differ from
    the true bounds lo_t, hi_t) in place by 1e6; False if there are
    none."""
    art_lo, art_hi = lo != lo_t, hi != hi_t
    lo[art_lo] *= 1e6
    hi[art_hi] *= 1e6
    return bool(art_lo.any() or art_hi.any())


def _simplex(p, bf, basis, upper, Binv, d, lo, hi, fresh, feas_tol, opt_tol,
             max_iter):
    """Solve p by the bounded dual simplex on its bounded form bf from a
    dual feasible basis, with B^-1 and reduced costs d, and with
    nonbasic columns as `upper` places them within lo and hi.  Where lo
    and hi differ from p's column bounds, they are artificial bounds (see
    the module docstring).  fresh says whether B^-1 comes from a
    factorization or is exact.  Returns a certified optimum, an
    infeasible verdict with its checked Farkas vector or an unbounded one
    with its checked ray; raises _Unsolved otherwise."""
    A, b = bf.A, p.b
    lo_t, hi_t = _bounds(p)
    x, dirn, free = _nonbasic(lo, hi, upper, basis)
    xB = Binv @ (b - A @ x)
    lo_B, hi_B = lo[basis], hi[basis]
    # tolerances from the row data: bound values, real or artificial,
    # must not loosen them
    scale = 1.0 + np.abs(b).max(initial=0.0)
    tol = feas_tol * scale
    cap = min(max_iter, 20 * (len(b) + len(x)) + 500)
    it = stall = 0
    drifted = widened = False
    while True:
        below, above = lo_B - xB, xB - hi_B
        viol = np.maximum(below, above)
        pr = int(viol.argmax()) if len(viol) else -1
        # a degenerate run longer than the columns may cycle: Bland's rule
        # (the least basic column leaves, the least tied column enters)
        # until the dual objective moves again
        bland = stall > len(x)
        if bland and viol[pr] > tol:
            rows = (viol > tol).nonzero()[0]
            pr = int(rows[basis[rows].argmin()])
        failed = None  # why B^-1 or the reduced costs may have drifted
        if pr < 0 or viol[pr] <= tol:
            if drifted:
                # the updates' rounding grows with their step sizes:
                # recompute the basic values before trusting the point
                xB = Binv @ (b - A @ x)
                drifted = False
                continue
            at_art = np.where(upper, hi != hi_t, lo != lo_t)
            at_art[basis] = False
            flat = at_art & (np.abs(d) <= opt_tol)
            if not at_art.any():
                sol = _certified(bf, p, basis, upper, Binv, x, xB, lo, hi,
                                 dirn, free, tol, it, opt_tol)
                if sol is not None:
                    return sol
                failed = "certificate check failed"
            elif flat.any():
                # the optimum does not move along these columns: each
                # goes to its own bound, or to zero where it has none
                lo[flat], hi[flat] = lo_t[flat], hi_t[flat]
                upper[flat] = np.isinf(lo[flat]) & np.isfinite(hi[flat])
            else:
                for j in at_art.nonzero()[0]:
                    # the way the cost improves: down from an artificial
                    # lower bound, up from an artificial upper one
                    t = 1.0 if upper[j] else -1.0
                    r = np.zeros(len(x))
                    r[j] = t
                    r[basis] = -t * (Binv @ A[:, j])
                    ray = _ray(r[:len(p.objective)], p)
                    if ray is not None:
                        return LpSolution(status="unbounded", ray=ray,
                                          iterations=it)
                if widened:
                    raise _Unsolved("artificial bound stays active")
                widened = _widen(lo, hi, lo_t, hi_t)
        else:
            up = bool(above[pr] > below[pr])  # x_B[pr] leaves at its upper
            alpha = Binv[pr] @ A  # pivot row of the tableau B^-1 A
            # x_B[pr] moves by -alpha_j per unit rise of column j; s_j > 0
            # where moving j its allowed way moves x_B[pr] toward its bound
            s = alpha * dirn if up else alpha * -dirn
            s[free] = np.abs(alpha[free])
            cand = (s > PIVOT_TOL).nonzero()[0]
            if cand.size:
                if it >= cap:
                    raise _Unsolved("iteration cap", ResourceLimitError)
                ratios = np.maximum(d[cand] * dirn[cand], 0.0) / s[cand]
                step = ratios.min()
                ties = cand[ratios <= step + 1e-12]
                # deterministic: the largest pivot among tied columns, or
                # the least one under Bland's rule
                pc = int(ties[0] if bland else ties[s[ties].argmax()])
                col = Binv @ A[:, pc]
                # the pivot from the column must agree with the one from
                # the row; where it does not, B^-1 has lost its accuracy
                if abs(col[pr] - alpha[pc]) <= PIVOT_AGREE * abs(alpha[pc]):
                    theta = (xB[pr] - (hi_B[pr] if up else lo_B[pr])) / \
                        col[pr]
                    xB -= theta * col
                    xB[pr] = x[pc] + theta
                    row = Binv[pr] / col[pr]
                    # in place: Binv -= col row^T
                    Binv = dger(-1.0, row, col, a=Binv.T, overwrite_a=1).T
                    Binv[pr] = row
                    d -= d[pc] / alpha[pc] * alpha
                    d[pc] = 0.0
                    out = basis[pr]
                    basis[pr] = pc
                    lo_B[pr], hi_B[pr] = lo[pc], hi[pc]
                    x[out] = hi[out] if up else lo[out]
                    x[pc] = 0.0
                    upper[out], upper[pc] = up, False
                    dirn[out] = 0.0 if lo[out] == hi[out] else (
                        -1.0 if up else 1.0)
                    dirn[pc] = 0.0
                    free[pc] = False
                    fresh, drifted = False, True
                    stall = 0 if step > 1e-12 else stall + 1
                    it += 1
                    continue
                failed = "unstable pivot"
            else:
                # no column can move x_B[pr] toward its bounds: row pr of
                # B^-1, oriented against the violation, is a Farkas
                # certificate if it holds over the true column bounds with
                # a margin
                y = _farkas(Binv[pr] if up else -Binv[pr], A, b, lo_t, hi_t,
                            FARKAS_TOL * scale)
                if y is not None:
                    return LpSolution(status="infeasible", farkas=y,
                                      iterations=it)
                # with an exact B^-1, an artificial bound may be what
                # blocks the row
                if fresh and not widened and _widen(lo, hi, lo_t, hi_t):
                    widened = True
                else:
                    failed = "Farkas check failed"
        if failed:
            if fresh:
                raise _Unsolved(failed)
            # go on from a fresh factorization of the basis
            Binv, d = _inverse(bf, basis)
            fresh = True
        # B^-1 or a bound changed: place the nonbasic columns again
        x, dirn, free = _nonbasic(lo, hi, upper, basis)
        xB = Binv @ (b - A @ x)
        lo_B, hi_B = lo[basis], hi[basis]


def _solve_cold(p, feas_tol, opt_tol, max_iter):
    """Solve p from the slack basis (see the module docstring)."""
    _check_conditioning(p)
    bf = _form(p)
    n, m = len(p.objective), len(p.b)
    lo, hi = _bounds(p)
    c = bf.c
    big = 1e6 * (1.0 + np.abs(p.b).max(initial=0.0))
    lo[(c > 0.0) & np.isinf(lo)] = -big
    hi[(c < 0.0) & np.isinf(hi)] = big
    upper = (c < 0.0) | ((c == 0.0) & np.isinf(lo) & np.isfinite(hi))
    return _simplex(p, bf, n + np.arange(m), upper,
                    np.diag(bf.A[:, n:].diagonal()), c.copy(), lo, hi, True,
                    feas_tol, opt_tol, max_iter)


def _same(u, v):
    return u is v or np.array_equal(u, v)


def _start_state(start):
    """(form, basis, upper, B^-1, reduced costs) of start: what its
    certified solve left on it, or else built from one factorization of
    its basis and kept on it, so that both children of a node start from
    copies of one inverse."""
    if start.warm is None:
        start.warm = (start.form, start.basis, start.upper) + \
            _inverse(start.form, start.basis)
    return start.warm


def _row_keys(p):
    """One hashable key per row of p: its coefficients and sense."""
    rows = np.ascontiguousarray(np.column_stack([p.A, p.sense]))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))
                     ).ravel().tolist()


def _match_rows(p, q):
    """The row of q matched to each row of p, -1 where none: a row of q
    with the same coefficients and sense, taken in order among equal
    rows."""
    mp, mq = len(p.b), len(q.b)
    if mp >= mq and np.array_equal(p.A[:mq], q.A) and \
            np.array_equal(p.sense[:mq], q.sense):
        return np.concatenate([np.arange(mq), np.full(mp - mq, -1)])
    index = {}
    for i, key in enumerate(_row_keys(q)):
        index.setdefault(key, []).append(i)
    match = np.full(mp, -1)
    for i, key in enumerate(_row_keys(p)):
        rows = index.get(key)
        if rows:
            match[i] = rows.pop(0)
    return match


def _rebased(p, bf, basis, upper):
    """(bounded form of p, basis, upper) mapped from a basis of bf.  Each
    row of p that matches a row of bf's program keeps that row's logical;
    any other row of p is new, and its logical is basic.  A row of bf
    that p does not keep is dropped with its logical, which must be
    basic, so the basis stays square and nonsingular.  With the new
    logicals basic at zero cost, the kept columns keep their reduced
    costs, and the start stays dual feasible."""
    _check_conditioning(p)
    q, n = bf.program, len(p.objective)
    match = _match_rows(p, q)
    old = (match >= 0).nonzero()[0]
    # column of p's form for each column of bf, -1 for a dropped logical
    cmap = np.full(n + len(q.b), -1)
    cmap[:n] = np.arange(n)
    cmap[n + match[old]] = n + old
    is_basic = np.zeros(len(cmap), dtype=bool)
    is_basic[basis] = True
    if not is_basic[cmap < 0].all():
        raise _Unsolved("nonbasic logical dropped")
    mapped = cmap[basis]
    basis_p = np.concatenate([mapped[mapped >= 0],
                              n + (match < 0).nonzero()[0]])
    upper_p = np.zeros(n + len(p.b), dtype=bool)
    kept = cmap >= 0
    upper_p[cmap[kept]] = upper[kept]
    return _form(p), basis_p, upper_p


def _solve_warm(p, start, feas_tol, opt_tol, max_iter):
    """Re-solve p from start's basis.  p must have start's objective and
    the same finite variable bounds; its bounds and rows may differ.  When
    p has start's rows, the solve runs in start's bounded form from
    copies of the inverse kept on start; otherwise in p's own bounded
    form (see _rebased), from one fresh factorization of the mapped
    basis.  Raises _Unsolved when the start cannot be used or the dual
    simplex ends without a checked result."""
    bf = start.form
    if bf is None:
        raise _Unsolved("no basis")
    q = bf.program
    if not _same(p.objective, q.objective):
        raise _Unsolved("objective changed")
    # a bound that turns finite or infinite can strand a nonbasic column
    if (np.isinf(p.lo) != np.isinf(q.lo)).any() or \
            (np.isinf(p.hi) != np.isinf(q.hi)).any():
        raise _Unsolved("variables changed")
    if _same(p.A, q.A) and _same(p.b, q.b) and _same(p.sense, q.sense):
        bf, basis, upper, Binv, d = _start_state(start)
        basis, upper, Binv, d = basis.copy(), upper.copy(), Binv.copy(), \
            d.copy()
        fresh = False
    else:
        bf, basis, upper = _rebased(p, bf, start.basis, start.upper)
        Binv, d = _inverse(bf, basis)
        fresh = True
    lo, hi = _bounds(p)
    return _simplex(p, bf, basis, upper, Binv, d, lo, hi, fresh, feas_tol,
                    opt_tol, max_iter)


def solve_lp(p: LinearProgram, feas_tol=FEAS_TOL, opt_tol=OPT_TOL,
             max_iter=MAX_ITER, start: LpSolution = None) -> LpSolution:
    """Solve p.  `start` is an optimal solution of a program with the same
    objective and the same finite variable bounds, such as the parent of
    a branch-and-bound node or the previous LP of a cutting-plane loop;
    p's bounds, rows and right-hand sides may differ from it.  The solve
    then re-optimizes from its basis (see _solve_warm), and falls back to
    the cold start when it cannot; the result's `fallback` says why.  A
    cold solve that ends without a checked result raises
    ConditioningError, or ResourceLimitError at its iteration cap."""
    fallback = None
    if start is not None:
        try:
            return _solve_warm(p, start, feas_tol, opt_tol, max_iter)
        except _Unsolved as exc:
            fallback = str(exc)
    try:
        sol = _solve_cold(p, feas_tol, opt_tol, max_iter)
    except _Unsolved as exc:
        raise exc.error("dual simplex: %s" % exc) from None
    sol.fallback = fallback
    return sol


def chebyshev_center(A, b, scales=None, rho_cap=1e9, start=None):
    """Center and radius of the largest ball inscribed in {v : A v >= b}.

    scales: optional per-row scale replacing the default Euclidean norm of
    row i in  A_i v - scale_i * rho >= b_i.
    start: the LP solution returned by an earlier call with as many
    columns in A, from whose basis this LP is re-solved (see solve_lp).
    Returns (center, radius, LP solution) or None if the polytope is
    empty.
    """
    A = np.asarray(A, dtype=float)
    if not len(A):
        raise ValueError("need at least one row")
    m, n = A.shape
    if scales is None:
        scales = np.linalg.norm(A, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    lo = np.full(n + 1, -np.inf)
    hi = np.full(n + 1, np.inf)
    lo[-1], hi[-1] = 0.0, rho_cap
    p = LinearProgram.from_arrays(
        c, np.column_stack([A, -np.asarray(scales, dtype=float)]), b,
        np.ones(m), lo, hi)
    sol = solve_lp(p, start=start)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError("chebyshev LP ended with status %s" % sol.status)
    return sol.x[:n], float(sol.x[-1]), sol
