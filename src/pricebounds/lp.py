"""Dense two-phase tableau simplex LP solver with duals and certificates.

Solves  min <c, x>  s.t.  A x (sense) b,  lo <= x <= hi  for a program
held in matrix form (see LinearProgram).  Reports primal solution, row
duals, a checked Farkas certificate on infeasibility and an improving
ray on unboundedness.  The final basis is refactorized (solve against
the unpivoted matrix) so the reported solution and duals do not inherit
tableau drift.

The standard form is built with array operations: each variable becomes
a shifted column (lower bound), a negated shifted column (upper bound
only) or a pair of columns (free), every row gets its rhs shifted and is
negated where that rhs is negative, and slack, surplus and artificial
columns are placed by masks over the row senses.

Pivoting is Dantzig's rule, leaving on the largest pivot among tied
rows, falling back to Bland's rule when the objective stalls.  Ties are
broken deterministically, so identical inputs always produce identical
outputs.

A solve may start from the optimal solution of a program that has the
same objective and rows and differs only in variable bounds, as a
branch-and-bound child differs from its parent.  It keeps the parent's
standard form, in which only the right-hand side moves, refactorizes the
parent's basis, which stays dual feasible, and runs a dual simplex until
the basis is primal feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri, dgetrs

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
CONDITION_RATIO_MAX = 1e12
MAX_ITER = 100000
# smallest pivot element a ratio test or an artificial drive-out accepts;
# smaller pivots amplify rounding until the tableau reports false verdicts
PIVOT_TOL = 1e-9
# a Farkas vector y (max-norm 1) must have y.A <= FARKAS_TOL on every
# column that may leave zero, and a two-phase one y.b > FARKAS_TOL
FARKAS_TOL = 1e-9

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
        b = np.array(rhs, dtype=float)
        if A.ndim != 2 or A.shape[1] != n or b.shape != A.shape[:1]:
            raise ValueError("row or rhs length mismatch")
        lo = np.array([-np.inf if v is None else v for v, _ in var_bounds],
                      dtype=float)
        hi = np.array([np.inf if v is None else v for _, v in var_bounds],
                      dtype=float)
        if not (np.isfinite(c).all() and np.isfinite(A).all() and
                np.isfinite(b).all()):
            raise ValueError("objective and rows must be finite")
        # NaN fails every comparison
        if not ((lo <= hi) & (lo < np.inf) & (hi > -np.inf)).all():
            raise ValueError("bounds must have lower <= upper, and no NaN, "
                             "+inf lower or -inf upper bound")
        self.objective, self.A, self.b = c, A, b
        self.sense = np.array(sense, dtype=np.int8)
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
    # final basis and standard form, if optimal: the start of a re-solve
    basis: np.ndarray = field(default=None, repr=False)
    form: _StandardForm = field(default=None, repr=False)


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
    orig_rows: np.ndarray  # program row of each leading standard row
    orig_sign: np.ndarray  # -1.0 where that row was negated
    ub_vars: np.ndarray  # variable of each trailing upper-bound row


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


def _farkas(y, A, b, allowed, margin):
    """y scaled to max-norm 1 if it proves that A x = b has no solution
    x >= 0 that is zero off the allowed columns: y.A <= FARKAS_TOL on
    the allowed columns and y.b > margin.  None otherwise."""
    top = np.abs(y).max(initial=0.0)
    if not top > 0.0:
        return None
    y = y / top
    if (y @ A)[allowed].max(initial=-np.inf) > FARKAS_TOL or \
            not y @ b > margin:
        return None
    return y


def _pivot(D, r, basis, pr, pc):
    piv = D[pr, pc]
    D[pr] /= piv
    col = D[:, pc].copy()
    col[pr] = 0.0
    D -= col[:, None] * D[pr]
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
    while True:
        if it >= max_iter:
            raise ResourceLimitError("simplex iteration limit reached")
        use_bland = stall > bland_after
        cand = (allowed & (r[:n] < -tol)).nonzero()[0]
        if cand.size == 0:
            return "optimal", None, it
        if use_bland:
            pc = int(cand[0])
        else:
            pc = int(cand[r[cand].argmin()])
        col = D[:, pc]
        pos = (col > PIVOT_TOL).nonzero()[0]
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


def _rows_of(form, v, m):
    """Map a vector over standard-form rows onto the program's m rows."""
    out = np.zeros(m)
    out[form.orig_rows] = form.orig_sign * v[:len(form.orig_rows)]
    return out


def _finish(form, p, basis, b, base, offset, iters, xB, y):
    """Optimal solution at the final basis.  The basis is refactorized
    against the unpivoted matrix; the pivoted basic values xB and duals y
    over the standard-form rows are kept only when the refactorization is
    singular or disagrees with them."""
    fac = _factor(form.A[:, basis])
    if fac is not None:
        xB_fac = _solve_factored(fac, b)
        if np.abs(xB_fac - xB).max() <= 1e-5 * (1.0 + abs(b).max(initial=0.0)):
            xB = xB_fac
            y = _solve_factored(fac, form.c[basis], trans=1)
    x_std = np.zeros(len(form.c))
    x_std[basis] = np.maximum(xB, 0.0)
    x = _to_program(form, x_std[:form.n_struct], base)
    return LpSolution(status="optimal", x=x, objective=float(p.objective @ x),
                      row_duals=_rows_of(form, y, len(p.b)),
                      dual_objective=float(y @ b) + offset,
                      iterations=iters, basis=basis.copy(), form=form)


def _same(u, v):
    return u is v or np.array_equal(u, v)


def _solve_warm(p, start, feas_tol, opt_tol, max_iter):
    """Re-solve p from start's basis in start's standard form.  None when
    p is not start's program with other bounds, or when the dual simplex
    ends without a checked result."""
    form = start.form
    if form is None:
        return None
    q = form.program
    if not (_same(p.objective, q.objective) and _same(p.A, q.A) and
            _same(p.b, q.b) and _same(p.sense, q.sense)):
        return None
    basis = start.basis.copy()
    if form.is_art[basis].any():
        return None

    # a changed bound moves the rhs through its column's shift and through
    # its upper-bound row; a bound that turns finite or infinite changes
    # the columns
    ch = ((p.lo != q.lo) | (p.hi != q.hi)).nonzero()[0]
    if ((np.isfinite(p.lo[ch]) != np.isfinite(q.lo[ch])).any() or
            (np.isfinite(p.hi[ch]) != np.isfinite(q.hi[ch])).any()):
        return None
    base = form.base.copy()
    # a shifted column moves with its lower bound, a negated one with its
    # upper bound; free variables have no bounds to change
    base[ch] = np.where(form.sgn[form.col[ch]] > 0, p.lo[ch], p.hi[ch])
    d = base[ch] - form.base[ch]
    shift = np.zeros(form.n_struct)
    shift[form.col[ch]] = d * form.sgn[form.col[ch]]
    offset = form.offset + p.objective[ch] @ d
    b = form.b - form.A[:, :form.n_struct] @ shift
    b[len(form.orig_rows):] = (p.hi - p.lo)[form.ub_vars]

    # dual simplex on the explicit inverse of the parent's basis
    A, c = form.A, form.c
    mr, N = A.shape
    fac = _factor(A[:, basis])
    if fac is None:
        return None
    Binv, info = dgetri(*fac)
    if info:
        return None
    xB = Binv @ b
    r = c - (c[basis] @ Binv) @ A
    allowed = ~form.is_art
    scale = 1.0 + abs(b).max(initial=0.0)
    cap = min(max_iter, 20 * (mr + N) + 500)
    it = 0
    while True:
        pr = int(xB.argmin())
        if xB[pr] >= -feas_tol * scale:
            break
        if it >= cap:
            return None
        alpha = Binv[pr] @ A  # pivot row of the tableau B^-1 A
        cand = (allowed & (alpha < -PIVOT_TOL)).nonzero()[0]
        if cand.size == 0:
            # row pr of B^-1 has B^-1 A >= 0 on every column that may
            # leave zero, while its rhs is negative: its negation is a
            # Farkas certificate if it holds with a margin
            y = _farkas(-Binv[pr], A, b, allowed, 1e-7 * scale)
            if y is None:
                return None
            return LpSolution(status="infeasible",
                              farkas=_rows_of(form, y, len(p.b)),
                              iterations=it)
        ratios = np.maximum(r[cand], 0.0) / -alpha[cand]
        ties = cand[ratios <= ratios.min() + 1e-12]
        # deterministic: the largest pivot among tied columns
        pc = int(ties[alpha[ties].argmin()])
        col = Binv @ A[:, pc]
        theta = xB[pr] / col[pr]
        xB -= theta * col
        xB[pr] = theta
        row = Binv[pr] / col[pr]
        Binv -= col[:, None] * row
        Binv[pr] = row
        r -= r[pc] / alpha[pc] * alpha
        basis[pr] = pc
        it += 1
    if r[allowed].min() < -opt_tol:
        return None
    return _finish(form, p, basis, b, base, offset, it, xB, c[basis] @ Binv)


def solve_lp(p: LinearProgram, feas_tol=FEAS_TOL, opt_tol=OPT_TOL,
             max_iter=MAX_ITER, start: LpSolution = None) -> LpSolution:
    """Solve p.  `start` is an optimal solution of a program with the same
    objective and rows, differing from p only in variable bounds (the
    parent of a branch-and-bound node); the solve then re-optimizes from
    its basis, and falls back to the two-phase solve when it cannot."""
    if start is not None:
        sol = _solve_warm(p, start, feas_tol, opt_tol, max_iter)
        if sol is not None:
            return sol
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
        # unconstrained over x' >= 0
        if np.any(c_t < -opt_tol):
            return LpSolution(status="unbounded")
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
    D = np.concatenate([A, I[:, le], -I[:, ge], I[:, art], rhs_v[:, None]],
                       axis=1)
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
        init_ident=init_ident, orig_rows=keep,
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
        # y = phase-1 duals: y.A <= 0 on the other columns, y.b > 0
        y = _farkas(c1[init_ident] - r1[init_ident], form.A, form.b,
                    ~is_art, FARKAS_TOL)
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
        return LpSolution(status="unbounded",
                          ray=_to_program(form, t[:nt], 0.0),
                          iterations=iters)

    return _finish(form, p, basis, form.b, base, obj_offset, iters,
                   D[:, -1], c_full[init_ident] - r2[init_ident])


def chebyshev_center(A, b, scales=None, rho_cap=1e9):
    """Center and radius of the largest ball inscribed in {v : A v >= b}.

    scales: optional per-row scale replacing the default Euclidean norm of
    row i in  A_i v - scale_i * rho >= b_i.
    Returns (center, radius) or None if the polytope is empty.
    """
    A = np.asarray(A, dtype=float)
    if not len(A):
        raise ValueError("need at least one row")
    n = A.shape[1]
    if scales is None:
        scales = np.linalg.norm(A, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * n + [(0.0, rho_cap)]
    lp_rows = [(np.column_stack([A, -np.asarray(scales, dtype=float)]),
                ">=", b)]
    sol = solve_lp(LinearProgram(c, lp_rows, bounds))
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError("chebyshev LP ended with status %s" % sol.status)
    return sol.x[:n], float(sol.x[-1])
