"""Dense two-phase tableau simplex LP solver, a bounded-variable dual
simplex for re-solves, and checked certificates.

Solves  min <c, x>  s.t.  A x (sense) b,  lo <= x <= hi  for a program
held in matrix form (see LinearProgram).  Reports primal solution, row
duals, a checked Farkas certificate on infeasibility and a checked
improving ray on unboundedness.  A two-phase optimum's final basis is
refactorized (solve against the unpivoted matrix) so the reported
solution and duals do not inherit tableau drift.  A warm optimum is
certified by residuals on the basis inverse its dual simplex maintains,
and refactorized only when that check fails (see below).

The standard form is built with array operations: each variable becomes
a shifted column (lower bound), a negated shifted column (upper bound
only) or a pair of columns (free), every row gets its rhs shifted and is
negated where that rhs is negative, and slack, surplus and artificial
columns are placed by masks over the row senses.  A variable with both
bounds gets an upper-bound row.

Pivoting is Dantzig's rule, leaving on the largest pivot among tied
rows, falling back to Bland's rule when the objective stalls.  Ties are
broken deterministically, so identical inputs always produce identical
outputs.

A solve may start from the optimal solution of a related program: one
with the same objective and the same finite variable bounds, whose bound
values, rows and right-hand sides may differ, as a branch-and-bound child
differs from its parent and the next LP of a cutting-plane loop from the
last.  This one warm path runs a bounded-variable dual simplex (Dantzig's
upper-bounding) on a bounded form of the program: the program rows only,
one logical column per row, each column within [lo, hi] and each
nonbasic column at one of its bounds, so a changed variable bound moves a
column bound and adds no row.  A two-phase basis enters the bounded form
of its standard form once: an upper-bound row leaves with its slack when
the slack is basic, and otherwise with its variable, which becomes
nonbasic at its upper bound.
- Same rows: the re-solve starts from copies of the inverse of the
  start's basis and its reduced costs.  A certified re-solve leaves its
  own on its result, so a branch-and-bound child hands them to its
  children and no branched node is factorized; a start without them (a
  two-phase root) builds them from one factorization on first use and
  keeps them, so both of its children start from copies.
- Changed rows: a row of the program with the coefficients and sense of a
  row of the start's keeps that row's logical, and may have a new rhs; a
  new row enters with its logical basic; a start row that the program
  drops leaves with its logical, which must be basic.  The inverse comes
  from one fresh factorization of the mapped basis, so no drift builds up
  over a chain of re-solves, and the start stays dual feasible.
A warm optimum is returned only with a certificate computed from the
maintained arrays, with y = c_B B^-1: the residual of the basic values,
the recomputed reduced costs c - y A (signed on the nonbasic columns,
zero on the basic ones) and the duality gap (see _certified).  A solve
that fails it goes on from one fresh factorization of its basis, and
one that fails again falls back to the two-phase solve, so drift cannot
build up unchecked over a chain of carried inverses.  A start that
cannot be used falls back to the two-phase solve, and the
result's `fallback` says why.  Every basis is factorized through its
kernel: the unit columns (slacks, surpluses, artificials, logicals) make
it block triangular, and only the rows and columns they leave are
LU-factorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger, idamax
from scipy.linalg.lapack import dgetrf, dgetri, dgetrs

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
CONDITION_RATIO_MAX = 1e12
MAX_ITER = 100000
# smallest pivot element a ratio test or an artificial drive-out accepts,
# in the two-phase ratio test times the larger of 1 and the entering
# column's largest entry; smaller pivots amplify rounding until the
# tableau reports false verdicts
PIVOT_TOL = 1e-9
# largest relative gap between a dual-simplex pivot element computed from
# its row and from its column of B^-1 A
PIVOT_AGREE = 1e-6
# a Farkas vector y (max-norm 1) may have |y.A| up to FARKAS_TOL on a
# column whose bound on that side is infinite, and a two-phase one must
# beat the largest y.A x over the column bounds by more than FARKAS_TOL
FARKAS_TOL = 1e-9
# a warm optimum is certified without a factorization only if its basic
# values solve B x_B = b - A_N x_N to within RESIDUAL_TOL (1 + |b - A_N x_N|)
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
    # why a given start was not used, if the two-phase solve answered
    fallback: str = None
    # final basis and its form, if optimal: the start of a re-solve.  A
    # two-phase basis indexes its _StandardForm's columns and has no
    # `upper`; a dual-simplex basis indexes its _BoundedForm's columns,
    # and `upper` marks the nonbasic columns at their upper bound
    basis: np.ndarray = field(default=None, repr=False)
    form: object = field(default=None, repr=False)
    upper: np.ndarray = field(default=None, repr=False)
    # (bounded form, basis, upper, B^-1, reduced costs): left by a
    # certified re-solve, else built on the first re-solve with this
    # solution's rows; why not, if it cannot be built
    warm: object = field(default=None, repr=False)


@dataclass
class _StandardForm:
    """A program as  min c.x + offset  s.t.  A x = b, x >= 0  over its
    transformed variables (leading n_struct columns), slacks, surpluses
    and artificials.  Variable j is base[j] plus sgn[k] x'[k] summed over
    its columns k: col[j] alone, or col[j] and col[j] + 1 when it is
    free.  A, c and the row orientation depend only on the objective, the
    rows and which variable bounds are finite; b, offset and base are
    those of `program`."""
    program: LinearProgram
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    base: np.ndarray  # lower bound, else upper bound, else zero
    col: np.ndarray  # first column of each variable
    sgn: np.ndarray  # -1.0 on the columns that enter negated
    n_struct: int
    is_art: np.ndarray
    init_ident: np.ndarray  # identity column of each row
    unit_row: np.ndarray  # row of each column from n_struct on
    orig_rows: np.ndarray  # program row of each leading standard row
    orig_sign: np.ndarray  # -1.0 where that row was negated
    ub_vars: np.ndarray  # variable of each trailing upper-bound row
    bounded: _BoundedForm = field(default=None, repr=False)


@dataclass
class _BoundedForm:
    """A program's rows as  A x = b  over bounded columns: the structural
    columns of a standard form (same shift, `col` and `sgn`), then one
    logical column per row, at its own row only (-1 on a >= row, +1 on
    the others, as oriented).  Column bounds are at the standard form's
    shift, so a variable's bounds move only its own column's bounds.

    The bounded form of a two-phase standard form keeps its program rows,
    structural columns and their slack and surplus columns, and drops the
    upper-bound rows, their slack columns and the artificial columns of
    the other rows: the artificial of an = row is its logical.  A
    re-solve whose rows change builds its own bounded form over its
    program's rows in their order.  Either way every row has a logical,
    fixed at zero on an = row."""
    program: LinearProgram
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray  # column bounds for `program`
    hi: np.ndarray
    offset: float
    base: np.ndarray
    col: np.ndarray
    sgn: np.ndarray
    n_struct: int
    orig_rows: np.ndarray  # program row of each row
    orig_sign: np.ndarray  # -1.0 where that row was negated
    logical: np.ndarray  # logical column of each row
    unit_row: np.ndarray  # row of each logical, from column n_struct on
    # standard-form column of each column, in the two-phase one's
    cols: np.ndarray = None


class _NoWarmStart(Exception):
    """A start that the re-solve cannot use; the message says why."""


def _bounded(form):
    """The bounded form of a two-phase standard form, built once and kept
    on it."""
    if form.bounded is None:
        k, nt = len(form.orig_rows), form.n_struct
        keep = ~form.is_art
        keep[form.init_ident[k:]] = False
        # an = row has no slack or surplus: its artificial stays, fixed
        eq = np.ones(k, dtype=bool)
        eq[form.unit_row[keep[nt:]]] = False
        keep[form.init_ident[eq.nonzero()[0]]] = True
        cols = keep.nonzero()[0]
        hi = np.full(len(cols), np.inf)
        p = form.program
        hi[form.col[form.ub_vars]] = (p.hi - p.lo)[form.ub_vars]
        unit_row = form.unit_row[cols[nt:] - nt]
        hi[nt:][eq[unit_row]] = 0.0
        logical = np.empty(k, dtype=int)
        logical[unit_row] = np.arange(nt, len(cols))
        form.bounded = _BoundedForm(
            program=p, A=form.A[:k, cols], b=form.b[:k], c=form.c[cols],
            lo=np.zeros(len(cols)), hi=hi, offset=form.offset,
            base=form.base, col=form.col, sgn=form.sgn, n_struct=nt,
            orig_rows=form.orig_rows, orig_sign=form.orig_sign,
            logical=logical, unit_row=unit_row, cols=cols)
    return form.bounded


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


def _to_program(form, xs, base):
    """Program variables from values xs of the structural columns, with
    shift `base` (zero for a direction)."""
    return base + np.add.reduceat(xs * form.sgn, form.col)


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
    """r scaled to max-norm 1 if it is an improving ray of p: c.r < 0,
    A r moves every row to the side its sense allows and r moves no
    variable past a finite bound.  None otherwise."""
    top = np.abs(r).max(initial=0.0)
    if not top > 0.0:
        return None
    r = r / top
    Ar = p.A @ r
    tol = FEAS_TOL * (1.0 + np.abs(p.A).sum(axis=1))
    rows_ok = np.where(p.sense == 0, np.abs(Ar) <= tol, p.sense * Ar >= -tol)
    if not (p.objective @ r < 0.0 and rows_ok.all() and
            (r[np.isfinite(p.lo)] >= -FEAS_TOL).all() and
            (r[np.isfinite(p.hi)] <= FEAS_TOL).all()):
        return None
    return r


def _unbounded(p, r, iterations):
    ray = _ray(r, p)
    if ray is None:
        raise ConditioningError("unbounded ray fails its check")
    return LpSolution(status="unbounded", ray=ray, iterations=iterations)


def _pivot(D, r, basis, pr, pc):
    """Pivot the tableau D (C order) and reduced-cost row r on (pr, pc)."""
    piv = D[pr, pc]
    D[pr] /= piv
    col = D[:, pc].copy()
    col[pr] = 0.0
    # in place: D -= col D[pr]^T (row pr is left as is, col[pr] being 0)
    dger(-1.0, D[pr], col, a=D.T, overwrite_a=1)
    r -= r[pc] * D[pr]
    basis[pr] = pc


def _run_simplex(D, r, basis, allowed, tol, max_iter):
    """Pivot until optimal/unbounded.  r is the reduced-cost row
    augmented with -objective in its last entry.  Returns
    (status, entering_or_None, iterations)."""
    n = D.shape[1] - 1
    it = 0
    stall = 0
    last_obj = r[-1]
    bland_after = 20 * (D.shape[0] + n) + 500
    barred = np.where(allowed, 0.0, np.inf)
    while True:
        if it >= max_iter:
            raise ResourceLimitError("simplex iteration limit reached")
        use_bland = stall > bland_after
        if use_bland:
            pc = int((allowed & (r[:n] < -tol)).argmax())
        else:
            # the most negative reduced cost; +inf bars the other columns
            pc = int((r[:n] + barred).argmin())
        if not (allowed[pc] and r[pc] < -tol):
            return "optimal", None, it
        col = D[:, pc]
        pos = (col > PIVOT_TOL * max(1.0, abs(col[idamax(col)]))).nonzero()[0]
        if pos.size == 0:
            return "unbounded", pc, it
        ratios = D[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        if use_bland:
            # Bland's rule: smallest basis index among tied rows
            pr = int(ties[basis[ties].argmin()])
        else:
            # the largest pivot among tied rows; smaller ones lengthen
            # degenerate runs and amplify rounding
            pr = int(ties[col[ties].argmax()])
        _pivot(D, r, basis, pr, pc)
        it += 1
        if r[-1] < last_obj - 1e-12:
            last_obj = r[-1]
            stall = 0
        else:
            stall += 1


def _factor(B):
    """LU factors of B, or None when B is singular."""
    lu, piv, info = dgetrf(B)
    return None if info else (lu, piv)


def _solve_factored(fac, v, trans=0):
    """Solve B x = v (trans=0) or B^T x = v (trans=1) from B's factors."""
    return dgetrs(fac[0], fac[1], v, trans=trans)[0]


@dataclass
class _BasisFactors:
    """Factors of a basis B = A[:, basis] of a form whose columns from
    n_struct on are signed unit columns (slacks, surpluses, artificials,
    logicals).  With those columns' rows r2 and the other rows r1, B is
    block triangular,  [[B11, 0], [B21, D]]  over rows (r1, r2) and basis
    positions (S, L) of its structural and unit columns, with D
    diagonal; only the kernel B11 is factorized."""
    S: np.ndarray
    L: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    D: np.ndarray
    B21: np.ndarray
    fac: tuple  # LU factors of B11, None when it is empty

    def solve(self, v):
        """B^-1 v, over the basis positions."""
        z = np.empty(len(v))
        zS = _solve_factored(self.fac, v[self.r1]) if self.S.size else \
            np.empty(0)
        z[self.S] = zS
        z[self.L] = (v[self.r2] - self.B21 @ zS) / self.D
        return z

    def solve_t(self, w):
        """B^-T w, over the rows, for w over the basis positions."""
        y = np.empty(len(w))
        y[self.r2] = w[self.L] / self.D
        if self.S.size:
            y[self.r1] = _solve_factored(
                self.fac, w[self.S] - y[self.r2] @ self.B21, trans=1)
        return y

    def inverse(self):
        """B^-1: rows over the basis positions, columns over the rows;
        None when the kernel cannot be inverted."""
        k = len(self.S) + len(self.L)
        Binv = np.zeros((k, k))
        bottom = np.zeros((len(self.L), k))
        bottom[np.arange(len(self.L)), self.r2] = 1.0 / self.D
        if self.S.size:
            K, info = dgetri(*self.fac)
            if info:
                return None
            top = np.zeros((len(self.S), k))
            top[:, self.r1] = K
            Binv[self.S] = top
            bottom[:, self.r1] = (self.B21 @ K) / -self.D[:, None]
        Binv[self.L] = bottom
        return Binv


def _basis_factors(form, basis):
    """_BasisFactors of form.A[:, basis], or None when it is singular."""
    A, nt = form.A, form.n_struct
    unit = basis >= nt
    S, L = (~unit).nonzero()[0], unit.nonzero()[0]
    cS, cL = basis[S], basis[L]
    r2 = form.unit_row[cL - nt]
    r1 = np.ones(len(A), dtype=bool)
    r1[r2] = False
    r1 = r1.nonzero()[0]
    if len(r1) != len(S):
        return None  # two unit columns on one row
    AS = A[:, cS]
    fac = None
    if S.size:
        fac = _factor(AS[r1])
        if fac is None:
            return None
    return _BasisFactors(S=S, L=L, r1=r1, r2=r2, D=A[r2, cL], B21=AS[r2],
                         fac=fac)


def _rows_of(form, v, m):
    """Map a vector over standard-form rows onto the program's m rows."""
    out = np.zeros(m)
    out[form.orig_rows] = form.orig_sign * v[:len(form.orig_rows)]
    return out


def _finish(form, p, c, basis, rhs, offset, xB, y, iters):
    """Optimal solution at the final basis of a standard form's  A x = b,
    x >= 0, its nonbasic columns at zero.  rhs is b and offset the
    objective's constant.  The basis is refactorized against
    the unpivoted matrix; the tableau's basic values xB and duals y are
    kept only when the refactorization is singular or disagrees with
    them."""
    fac = _basis_factors(form, basis)
    if fac is not None:
        xB_fac = fac.solve(rhs)
        drift = np.abs(xB_fac - xB).max()
        if drift <= 1e-5 * (1.0 + abs(rhs).max(initial=0.0)):
            xB = xB_fac
            y = fac.solve_t(c[basis])
    x = np.zeros(len(c))
    x[basis] = np.maximum(xB, 0.0)
    xp = _to_program(form, x[:form.n_struct], form.base)
    return LpSolution(status="optimal", x=xp,
                      objective=float(p.objective @ xp),
                      row_duals=_rows_of(form, y, len(p.b)),
                      dual_objective=float(y @ rhs) + offset,
                      iterations=iters, basis=basis.copy(), form=form)


def _certified(bf, p, basis, upper, Binv, x, xB, lo_B, hi_B, dirn, iters,
               opt_tol):
    """The optimal solution at a dual-simplex basis of bf whose basic
    values xB are within their bounds, if the arrays the dual simplex
    maintained certify it; None otherwise.  x holds the nonbasic columns
    at their bounds and zero on the basis.  Checked, with y = c_B B^-1:
    the primal residual of xB against b - A x; the reduced costs
    c - y A, recomputed rather than the updated ones, for their sign
    on the nonbasic columns (dirn) and for zero on the basic ones; and
    the gap between the primal and the dual objective.  The solution keeps
    (bf, basis, upper, B^-1, reduced costs) as its `warm` state, so that
    a re-solve from it starts from copies and factorizes nothing."""
    A, b, c = bf.A, bf.b, bf.c
    rhs = b - A @ x
    cB = c[basis]
    y = cB @ Binv
    d = c - y @ A
    # written so that a NaN fails every test
    if not (np.abs(A[:, basis] @ xB - rhs).max() <=
            RESIDUAL_TOL * (1.0 + np.abs(rhs).max()) and
            (dirn * d).min() >= -opt_tol and
            np.abs(d[basis]).max() <= opt_tol):
        return None
    # primal less dual objective, within the rounding of their terms
    gap = cB @ xB - y @ rhs
    if not abs(gap) <= opt_tol * (1.0 + np.abs(cB) @ np.abs(xB) +
                                  np.abs(y) @ np.abs(rhs)):
        return None
    d[basis] = 0.0
    dual = float(y @ rhs) + bf.offset + c @ x
    x[basis] = np.minimum(np.maximum(xB, lo_B), hi_B)
    xp = _to_program(bf, x[:bf.n_struct], bf.base)
    return LpSolution(status="optimal", x=xp,
                      objective=float(p.objective @ xp),
                      row_duals=_rows_of(bf, y, len(p.b)),
                      dual_objective=dual, iterations=iters, basis=basis,
                      form=bf, upper=upper,
                      warm=(bf, basis, upper, Binv, d))


def _same(u, v):
    return u is v or np.array_equal(u, v)


def _start_basis(start):
    """(bounded form, basis, upper) of start.  A two-phase basis enters
    the bounded form of its standard form here: an upper-bound row whose
    slack is basic leaves with that slack, any other leaves with its
    variable, which is then basic (the row has no other entry) and
    becomes nonbasic at its upper bound.  An artificial left basic (at
    zero, on a row the drive-out found redundant) gives way to its row's
    logical, which is itself on an = row and the surplus on a >= row."""
    form = start.form
    if isinstance(form, _BoundedForm):
        return form, start.basis, start.upper
    bf = _bounded(form)
    if not len(bf.b):
        raise _NoWarmStart("no row")
    basis = start.basis
    k = len(form.orig_rows)
    slack, var = form.init_ident[k:], form.col[form.ub_vars]
    is_basic = np.zeros(len(form.c), dtype=bool)
    is_basic[basis] = True
    at_hi = var[~is_basic[slack]]
    is_basic[slack] = False
    is_basic[at_hi] = False
    basis = basis[is_basic[basis]]
    art = form.is_art[basis]
    logical = bf.logical[form.unit_row[basis[art] - form.n_struct]]
    basis = np.searchsorted(bf.cols, basis)
    basis[art] = logical
    if len(basis) != k:
        raise _NoWarmStart("basis size")
    upper = np.zeros(len(bf.c), dtype=bool)
    upper[at_hi] = True
    return bf, basis, upper


def _inverse(bf, basis):
    """B^-1 and the reduced costs at basis, from one factorization."""
    fac = _basis_factors(bf, basis)
    Binv = None if fac is None else fac.inverse()
    if Binv is None:
        raise _NoWarmStart("singular basis")
    return Binv, bf.c - fac.solve_t(bf.c[basis]) @ bf.A


def _start_state(start):
    """(bounded form, basis, upper, B^-1, reduced costs) of start: what a
    certified re-solve left on it, or else built on its first re-solve
    and kept on it, so that both children of a node start from copies of
    one inverse."""
    if start.warm is None:
        try:
            bf, basis, upper = _start_basis(start)
            start.warm = (bf, basis, upper) + _inverse(bf, basis)
        except _NoWarmStart as exc:
            start.warm = str(exc)
    if isinstance(start.warm, str):
        raise _NoWarmStart(start.warm)
    return start.warm


def _column_bounds(p, bf):
    """Column bounds of bf's columns for p, whose variables have the same
    finite bounds as bf's program.  A shifted column moves with its
    variable's bounds, a negated one mirrors them; free variables have no
    bounds to change."""
    q = bf.program
    ch = ((p.lo != q.lo) | (p.hi != q.hi)).nonzero()[0]
    lo, hi = bf.lo.copy(), bf.hi.copy()
    k, base = bf.col[ch], bf.base[ch]
    pos = bf.sgn[k] > 0
    lo[k] = np.where(pos, p.lo[ch] - base, base - p.hi[ch])
    hi[k] = np.where(pos, p.hi[ch] - base, base - p.lo[ch])
    return lo, hi


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
    """(bounded form of p, basis, upper) mapped from bf's basis.  Each row
    of p that matches a row of bf's program keeps that row's orientation
    and logical; any other row of p is new, and its logical is basic.  A
    row of bf that p does not keep is dropped with its logical, which
    must be basic, so the basis stays square and nonsingular.  With the
    new logicals basic at zero cost, the kept columns keep their reduced
    costs, and the start stays dual feasible."""
    if not p.A.any(axis=1).all():
        raise _NoWarmStart("empty row")
    _check_conditioning(p)
    q, nt, k = bf.program, bf.n_struct, len(p.b)
    srow_of = np.full(len(q.b), -1)
    srow_of[bf.orig_rows] = np.arange(len(bf.b))
    match = _match_rows(p, q)
    old = (match >= 0).nonzero()[0]
    srow = srow_of[match[old]]
    dropped = np.ones(len(bf.b), dtype=bool)
    dropped[srow] = False
    is_basic = np.zeros(len(bf.c), dtype=bool)
    is_basic[basis] = True
    if not is_basic[bf.logical[dropped]].all():
        raise _NoWarmStart("nonbasic logical dropped")

    # columns: bf's structural columns, then the logical of row i at nt + i
    sign = np.ones(k)
    sign[old] = bf.orig_sign[srow]
    oriented = p.sense * sign
    src = np.searchsorted(bf.col, np.arange(nt), side="right") - 1
    A = np.zeros((k, nt + k))
    A[:, :nt] = p.A[:, src] * bf.sgn * sign[:, None]
    A[np.arange(k), nt + np.arange(k)] = np.where(oriented > 0, -1.0, 1.0)
    lo, hi = _column_bounds(p, bf)
    cmap = np.full(len(bf.c), -1)
    cmap[:nt] = np.arange(nt)
    cmap[bf.logical[srow]] = nt + old
    mapped = cmap[basis]
    new = (match < 0).nonzero()[0]
    basis_p = np.concatenate([mapped[mapped >= 0], nt + new])
    upper_p = np.zeros(nt + k, dtype=bool)
    kept = cmap >= 0
    upper_p[cmap[kept]] = upper[kept]
    form = _BoundedForm(
        program=p, A=A, b=(p.b - p.A @ bf.base) * sign,
        c=np.concatenate([bf.c[:nt], np.zeros(k)]),
        lo=np.concatenate([lo[:nt], np.zeros(k)]),
        hi=np.concatenate([hi[:nt], np.where(p.sense == 0, 0.0, np.inf)]),
        offset=bf.offset, base=bf.base, col=bf.col, sgn=bf.sgn,
        n_struct=nt, orig_rows=np.arange(k), orig_sign=sign,
        logical=nt + np.arange(k), unit_row=np.arange(k))
    return form, basis_p, upper_p


def _solve_warm(p, start, feas_tol, opt_tol, max_iter):
    """Re-solve p from start's basis by a bounded-variable dual simplex.
    p must have start's objective and the same finite variable bounds;
    its bounds and rows may differ.  When p has start's rows, the solve
    runs in start's bounded form from copies of the inverse kept on
    start; otherwise in p's own bounded form (see _rebased), from one
    fresh factorization of the mapped basis.  An optimum is returned
    once _certified accepts it, after at most one refactorization.
    Raises _NoWarmStart when the start cannot be used or the dual
    simplex ends without a checked result."""
    form = start.form
    if form is None:
        raise _NoWarmStart("no basis")
    q = form.program
    if not _same(p.objective, q.objective):
        raise _NoWarmStart("objective changed")
    # a bound that turns finite or infinite changes the columns
    if (np.isinf(p.lo) != np.isinf(q.lo)).any() or \
            (np.isinf(p.hi) != np.isinf(q.hi)).any():
        raise _NoWarmStart("variables changed")
    if _same(p.A, q.A) and _same(p.b, q.b) and _same(p.sense, q.sense):
        bf, basis, upper, Binv, d = _start_state(start)
        basis, upper, Binv, d = basis.copy(), upper.copy(), Binv.copy(), \
            d.copy()
        lo, hi = _column_bounds(p, bf)
    else:
        bf, basis, upper = _rebased(p, *_start_basis(start))
        Binv, d = _inverse(bf, basis)
        lo, hi = bf.lo, bf.hi

    # dirn: +1 on the nonbasic columns that may rise from their lower
    # bound, -1 on those that may fall from their upper bound, 0 on the
    # basic and the fixed columns.  Dual feasible: dirn * d >= 0, which a
    # branching fix, a new row and a moved rhs keep and the pivots
    # maintain (a widened bound that breaks it fails the certificate)
    dirn = np.where(upper, -1.0, 1.0)
    dirn[lo == hi] = 0.0
    dirn[basis] = 0.0
    A, b = bf.A, bf.b
    x = np.where(upper, hi, lo)
    x[basis] = 0.0
    rhs = b - A @ x
    xB = Binv @ rhs
    lo_B, hi_B = lo[basis], hi[basis]
    scale = 1.0 + np.abs(rhs).max()
    tol = feas_tol * scale
    cap = min(max_iter, 20 * (len(b) + len(x)) + 500)
    it = 0
    refactorized = False
    while True:
        below, above = lo_B - xB, xB - hi_B
        viol = np.maximum(below, above)
        pr = int(viol.argmax())
        if viol[pr] <= tol:
            sol = _certified(bf, p, basis, upper, Binv, x, xB, lo_B, hi_B,
                             dirn, it, opt_tol)
            if sol is not None:
                return sol
            if refactorized:
                raise _NoWarmStart("certificate check failed")
            # B^-1 or the reduced costs have drifted: go on from a fresh
            # factorization of the basis, once
            Binv, d = _inverse(bf, basis)
            xB = Binv @ (b - A @ x)
            refactorized = True
            continue
        if it >= cap:
            raise _NoWarmStart("iteration cap")
        up = bool(above[pr] > below[pr])  # basic pr leaves at its upper bound
        alpha = Binv[pr] @ A  # pivot row of the tableau B^-1 A
        # x_B[pr] moves by -alpha_j per unit rise of column j; s_j > 0
        # where moving j its allowed way moves x_B[pr] toward its bound
        s = alpha * dirn if up else alpha * -dirn
        cand = (s > PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            # no column can move x_B[pr] toward its bounds: row pr of B^-1,
            # oriented against the violation, is a Farkas certificate if it
            # holds over the column bounds with a margin
            y = _farkas(Binv[pr] if up else -Binv[pr], A, b, lo, hi,
                        1e-7 * scale)
            if y is None:
                raise _NoWarmStart("Farkas check failed")
            return LpSolution(status="infeasible",
                              farkas=_rows_of(bf, y, len(p.b)),
                              iterations=it)
        ratios = np.maximum(d[cand] * dirn[cand], 0.0) / s[cand]
        ties = cand[ratios <= ratios.min() + 1e-12]
        # deterministic: the largest pivot among tied columns
        pc = int(ties[s[ties].argmax()])
        col = Binv @ A[:, pc]
        # the pivot from the column must agree with the one from the row;
        # where it does not, B^-1 has lost the accuracy to go on
        if not abs(col[pr] - alpha[pc]) <= PIVOT_AGREE * abs(alpha[pc]):
            raise _NoWarmStart("unstable pivot")
        theta = (xB[pr] - (hi_B[pr] if up else lo_B[pr])) / col[pr]
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
        dirn[out] = 0.0 if lo[out] == hi[out] else (-1.0 if up else 1.0)
        dirn[pc] = 0.0
        it += 1


def solve_lp(p: LinearProgram, feas_tol=FEAS_TOL, opt_tol=OPT_TOL,
             max_iter=MAX_ITER, start: LpSolution = None) -> LpSolution:
    """Solve p.  `start` is an optimal solution of a program with the same
    objective and the same finite variable bounds, such as the parent of
    a branch-and-bound node or the previous LP of a cutting-plane loop;
    p's bounds, rows and right-hand sides may differ from it.  The solve
    then re-optimizes from its basis (see _solve_warm), and falls back to
    the two-phase solve when it cannot; the result's `fallback` says
    why."""
    fallback = None
    if start is not None:
        try:
            return _solve_warm(p, start, feas_tol, opt_tol, max_iter)
        except _NoWarmStart as exc:
            fallback = str(exc)
    sol = _solve_two_phase(p, feas_tol, opt_tol, max_iter)
    sol.fallback = fallback
    return sol


def _solve_two_phase(p, feas_tol, opt_tol, max_iter):
    """Solve p by the dense two-phase tableau simplex."""
    _check_conditioning(p)
    m = len(p.b)

    # -- columns: x_j = base_j + x'_k, base_j - x'_k (upper bound only) or
    # x'_k - x'_k+1 (free); src is each column's variable, sgn its sign
    has_lo, has_hi = np.isfinite(p.lo), np.isfinite(p.hi)
    free = ~(has_lo | has_hi)
    width = 1 + free
    src = np.repeat(np.arange(len(width)), width)
    col = np.cumsum(width) - width
    nt = len(src)
    sgn = np.ones(nt)
    sgn[col[has_hi & ~has_lo]] = -1.0
    sgn[col[free] + 1] = -1.0
    base = np.where(has_lo, p.lo, np.where(has_hi, p.hi, 0.0))
    c_t = p.objective[src] * sgn
    obj_offset = float(p.objective @ base)
    rhs = p.b - p.A @ base

    nonzero = p.A.any(axis=1)
    if not nonzero.all():
        # an empty row is checked outright; its unit vector is the
        # certificate
        viol = np.where(p.sense == 0, np.abs(rhs), p.sense * rhs)
        bad = (~nonzero & (viol > feas_tol * 10)).nonzero()[0]
        if bad.size:
            farkas = np.zeros(m)
            farkas[bad[0]] = np.sign(rhs[bad[0]])
            return LpSolution(status="infeasible", farkas=farkas)

    # program rows that are not empty, then x'_k <= hi_j - lo_j for every
    # variable with both bounds
    keep = nonzero.nonzero()[0]
    ub_vars = (has_lo & has_hi).nonzero()[0]
    A = np.zeros((len(keep) + len(ub_vars), nt))
    A[:len(keep)] = p.A[keep[:, None], src] * sgn
    A[len(keep) + np.arange(len(ub_vars)), col[ub_vars]] = 1.0
    rhs_v = np.concatenate([rhs[keep], (p.hi - p.lo)[ub_vars]])
    sense = np.concatenate([p.sense[keep], np.full(len(ub_vars), -1)])
    mr = len(rhs_v)
    if mr == 0:
        # unconstrained over x' >= 0: the most improving column is a ray
        k = int(c_t.argmin())
        if c_t[k] < -opt_tol:
            ray = np.zeros(len(p.objective))
            ray[src[k]] = sgn[k]
            return _unbounded(p, ray, 0)
        return LpSolution(status="optimal", x=base.copy(),
                          objective=obj_offset, row_duals=np.zeros(m),
                          dual_objective=obj_offset)

    # normalize rhs >= 0
    flip = rhs_v < 0
    A[flip] *= -1.0
    rhs_v[flip] *= -1.0
    sense[flip] *= -1

    # columns: structural, a slack per <= row, a surplus per >= row, an
    # artificial per >= and = row; a row's slack or artificial is its
    # first basic column
    le, ge = sense < 0, sense > 0
    art = ~le
    n_slack, n_surp = np.count_nonzero(le), np.count_nonzero(ge)
    I = np.eye(mr)
    # C order, so that _pivot can update it in place through its transpose
    D = np.ascontiguousarray(np.concatenate(
        [A, I[:, le], -I[:, ge], I[:, art], rhs_v[:, None]], axis=1))
    N = D.shape[1] - 1
    is_art = np.zeros(N, dtype=bool)
    is_art[nt + n_slack + n_surp:] = True
    init_ident = np.empty(mr, dtype=int)
    init_ident[le] = nt + np.arange(n_slack)
    init_ident[art] = nt + n_slack + n_surp + np.arange(mr - n_slack)
    basis = init_ident.copy()

    c_full = np.zeros(N)
    c_full[:nt] = c_t
    form = _StandardForm(
        program=p, A=D[:, :N].copy(), b=rhs_v, c=c_full, offset=obj_offset,
        base=base, col=col, sgn=sgn, n_struct=nt, is_art=is_art,
        init_ident=init_ident, unit_row=np.concatenate(
            [le.nonzero()[0], ge.nonzero()[0], art.nonzero()[0]]),
        orig_rows=keep,
        orig_sign=np.where(flip[:len(keep)], -1.0, 1.0), ub_vars=ub_vars)

    # -- phase 1 -----------------------------------------------------------
    c1 = is_art.astype(float)
    r1 = np.concatenate([c1, [0.0]])
    for i in art.nonzero()[0]:
        r1 -= D[i]
    allowed = np.ones(N, dtype=bool)
    status, _, it1 = _run_simplex(D, r1, basis, allowed, opt_tol, max_iter)
    # feasibility decided by per-row scaled residuals of the phase-1 point
    x1 = np.zeros(N)
    x1[basis] = D[:, -1]
    resid = form.A[:, :nt] @ x1[:nt] - rhs_v
    viol = np.abs(resid)
    viol[sense * resid > 0] = 0.0  # the side a row's inequality allows
    if (viol / (1.0 + rhs_v)).max() > 1e-7:
        # y = phase-1 duals, checked over x >= 0 on the columns before
        # the artificials, which are held at zero and so left out
        y = _farkas(c1[init_ident] - r1[init_ident],
                    form.A[:, :nt + n_slack + n_surp], form.b, 0.0, np.inf,
                    FARKAS_TOL)
        if y is None:
            raise ConditioningError("phase-1 Farkas vector fails its check")
        return LpSolution(status="infeasible", farkas=_rows_of(form, y, m),
                          iterations=it1)

    # drive artificials out of the basis
    for i in is_art[basis].nonzero()[0]:
        row = D[i, :N].copy()
        row[is_art] = 0.0
        nz = np.where(np.abs(row) > PIVOT_TOL)[0]
        if nz.size:
            pc = int(nz[np.argmax(np.abs(row[nz]))])
            _pivot(D, r1, basis, i, pc)

    # -- phase 2 -----------------------------------------------------------
    r2 = np.concatenate([c_full, [0.0]])
    for i in c_full[basis].nonzero()[0]:
        r2 -= c_full[basis[i]] * D[i]
    allowed = ~is_art
    status, pc, it2 = _run_simplex(D, r2, basis, allowed, opt_tol,
                                   max_iter)
    iters = it1 + it2

    if status == "unbounded":
        t = np.zeros(N)
        t[pc] = 1.0
        t[basis] = -D[:, pc]
        return _unbounded(p, _to_program(form, t[:nt], 0.0), iters)

    return _finish(form, p, c_full, basis, form.b, obj_offset, D[:, -1],
                   c_full[init_ident] - r2[init_ident], iters)


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
