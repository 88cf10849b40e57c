"""Dense two-phase tableau simplex LP solver with duals and certificates.

Solves  min <c, x>  s.t.  rows (a, rel, b) with rel in {<=, >=, =} and
per-variable bounds.  Reports primal solution, row duals, a Farkas-style
certificate on infeasibility and an improving ray on unboundedness.  The
final basis is refactorized (solve against the unpivoted matrix) so the
reported solution and duals do not inherit tableau drift.

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


class ResourceLimitError(RuntimeError):
    """Iteration or size limit exceeded."""


class ConditioningError(ValueError):
    """Input coefficients span more than the allowed dynamic range."""


@dataclass
class LinearProgram:
    objective: np.ndarray
    rows: list  # of (coeffs: ndarray, relation: "<="|">="|"=", rhs: float)
    var_bounds: list  # of (lower or None, upper or None)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = len(self.objective)
        if len(self.var_bounds) != n:
            raise ValueError("bounds length mismatch")
        rows = []
        for a, rel, b in self.rows:
            a = np.asarray(a, dtype=float)
            if len(a) != n:
                raise ValueError("row length mismatch")
            if rel not in ("<=", ">=", "="):
                raise ValueError("bad relation %r" % (rel,))
            rows.append((a, rel, float(b)))
        self.rows = rows
        for lo, up in self.var_bounds:
            if lo is not None and up is not None and lo > up:
                raise ValueError("lower bound exceeds upper bound")


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
    and artificials.  A, c and the row orientation depend only on the
    objective, the rows and which variable bounds are finite; b, offset
    and the bound values in maps are those of `program`."""
    program: LinearProgram
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    maps: list  # per variable: ("shift", lo, col) | ("neg", up, col) | free
    n_struct: int
    is_art: np.ndarray
    init_ident: np.ndarray  # identity column of each row
    orig_rows: np.ndarray  # program row of each leading standard row
    orig_sign: np.ndarray  # -1.0 where that row was negated
    ub_row: dict  # variable -> standard row of its upper bound


def _check_conditioning(p: LinearProgram):
    if not p.rows:
        return
    mags = np.abs(np.array([a for a, _, _ in p.rows]))
    nz = mags[mags != 0.0]
    if not nz.size:
        return
    hi = nz.max()
    lo = nz.min()
    if lo > 0 and hi / lo > CONDITION_RATIO_MAX:
        raise ConditioningError(
            "coefficient dynamic range %.3g exceeds %.3g" %
            (hi / lo, CONDITION_RATIO_MAX))


def _pivot(D, r, basis, pr, pc):
    piv = D[pr, pc]
    D[pr] /= piv
    col = D[:, pc].copy()
    col[pr] = 0.0
    D -= np.outer(col, D[pr])
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
        cand = np.where(allowed & (r[:n] < -tol))[0]
        if cand.size == 0:
            return "optimal", None, it
        if use_bland:
            pc = int(cand[0])
        else:
            pc = int(cand[np.argmin(r[cand])])
        col = D[:, pc]
        pos = np.where(col > PIVOT_TOL)[0]
        if pos.size == 0:
            return "unbounded", pc, it
        ratios = D[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        if use_bland:
            # Bland's rule: smallest basis index among tied rows
            pr = int(ties[np.argmin(basis[ties])])
        else:
            # the largest pivot among tied rows; smaller ones lengthen
            # degenerate runs and amplify rounding
            pr = int(ties[np.argmax(col[ties])])
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


def _finish(form, p, basis, b, offset, maps, iters, xB, y):
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
    x = _map_back(x_std[:form.n_struct], maps, len(p.objective))
    return LpSolution(status="optimal", x=x, objective=float(p.objective @ x),
                      row_duals=_rows_of(form, y, len(p.rows)),
                      dual_objective=float(y @ b) + offset,
                      iterations=iters, basis=basis.copy(), form=form)


def _solve_warm(p, start, feas_tol, opt_tol, max_iter):
    """Re-solve p from start's basis in start's standard form.  None when
    p is not start's program with other bounds, or when the dual simplex
    ends without a checked result."""
    form = start.form
    if form is None:
        return None
    q = form.program
    if (len(p.rows) != len(q.rows) or
            not np.array_equal(p.objective, q.objective) or
            any(a is not a0 or rel != rel0 or b != b0
                for (a, rel, b), (a0, rel0, b0) in zip(p.rows, q.rows))):
        return None
    basis = start.basis.copy()
    if form.is_art[basis].any():
        return None

    # a changed bound moves the rhs through its column's shift and through
    # its upper-bound row; a bound that turns finite or infinite changes
    # the columns
    shift = np.zeros(form.n_struct)
    offset = form.offset
    maps = list(form.maps)
    ub_rhs = {}
    for j, (bd, bd0) in enumerate(zip(p.var_bounds, q.var_bounds)):
        if bd == bd0:
            continue
        (lo, up), (lo0, up0) = bd, bd0
        if (lo is None) != (lo0 is None) or (up is None) != (up0 is None):
            return None
        kind, base0, col = maps[j]
        base = lo if kind == "shift" else up
        shift[col] = base - base0 if kind == "shift" else base0 - base
        offset += p.objective[j] * (base - base0)
        maps[j] = (kind, base, col)
        if j in form.ub_row:
            ub_rhs[form.ub_row[j]] = up - lo
    b = form.b - form.A[:, :form.n_struct] @ shift
    for i, v in ub_rhs.items():
        b[i] = v

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
        pr = int(np.argmin(xB))
        if xB[pr] >= -feas_tol * scale:
            break
        if it >= cap:
            return None
        alpha = Binv[pr] @ A  # pivot row of the tableau B^-1 A
        cand = np.where(allowed & (alpha < -PIVOT_TOL))[0]
        if cand.size == 0:
            # u = row pr of B^-1 has u A >= 0 on every column that may
            # leave zero, while u b < 0: a Farkas certificate if it holds
            # with a margin
            u = Binv[pr] / np.abs(Binv[pr]).max()
            if ((u @ A)[allowed].min() < -PIVOT_TOL or
                    u @ b > -1e-7 * scale):
                return None
            return LpSolution(status="infeasible",
                              farkas=_rows_of(form, -u, len(p.rows)),
                              iterations=it)
        ratios = np.maximum(r[cand], 0.0) / -alpha[cand]
        ties = cand[ratios <= ratios.min() + 1e-12]
        # deterministic: the largest pivot among tied columns
        pc = int(ties[np.argmin(alpha[ties])])
        col = Binv @ A[:, pc]
        theta = xB[pr] / col[pr]
        xB -= theta * col
        xB[pr] = theta
        row = Binv[pr] / col[pr]
        Binv -= np.outer(col, row)
        Binv[pr] = row
        r -= r[pc] / alpha[pc] * alpha
        basis[pr] = pc
        it += 1
    if r[allowed].min() < -opt_tol:
        return None
    return _finish(form, p, basis, b, offset, maps, it, xB, c[basis] @ Binv)


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
    n_orig = len(p.objective)

    # -- variable transform to x' >= 0 -------------------------------------
    # maps: list per original var of ("shift", lo, col) | ("neg", up, col)
    #       | ("free", col_pos, col_neg)
    maps = []
    col_count = 0
    extra_rows = []  # bound rows in transformed columns: (var, col, ub)
    for j, (lo, up) in enumerate(p.var_bounds):
        if lo is not None:
            maps.append(("shift", lo, col_count))
            if up is not None:
                extra_rows.append((j, col_count, up - lo))
            col_count += 1
        elif up is not None:
            maps.append(("neg", up, col_count))
            col_count += 1
        else:
            maps.append(("free", col_count, col_count + 1))
            col_count += 2

    def transform_row(a, rhs):
        ta = np.zeros(col_count)
        for j, mp in enumerate(maps):
            aj = a[j]
            if aj == 0.0:
                continue
            if mp[0] == "shift":
                ta[mp[2]] = aj
                rhs -= aj * mp[1]
            elif mp[0] == "neg":
                ta[mp[2]] = -aj
                rhs -= aj * mp[1]
            else:
                ta[mp[1]] = aj
                ta[mp[2]] = -aj
        return ta, rhs

    c_t = np.zeros(col_count)
    obj_offset = 0.0
    for j, mp in enumerate(maps):
        cj = p.objective[j]
        if mp[0] == "shift":
            c_t[mp[2]] = cj
            obj_offset += cj * mp[1]
        elif mp[0] == "neg":
            c_t[mp[2]] = -cj
            obj_offset += cj * mp[1]
        else:
            c_t[mp[1]] = cj
            c_t[mp[2]] = -cj

    rows_t = []
    row_map = []  # (orig_index or None, flip: bool)
    for idx, (a, rel, rhs) in enumerate(p.rows):
        ta, trhs = transform_row(a, rhs)
        if not np.any(ta):
            # empty row: check consistency outright
            viol = ((rel == "<=" and trhs < -feas_tol * 10) or
                    (rel == ">=" and trhs > feas_tol * 10) or
                    (rel == "=" and abs(trhs) > feas_tol * 10))
            if viol:
                return LpSolution(status="infeasible")
            continue
        rows_t.append((ta, rel, trhs))
        row_map.append((idx, False))
    for _, col, ub in extra_rows:
        ta = np.zeros(col_count)
        ta[col] = 1.0
        rows_t.append((ta, "<=", ub))
        row_map.append((None, False))

    mr = len(rows_t)
    if mr == 0:
        # unconstrained over x' >= 0
        if np.any(c_t < -opt_tol):
            return LpSolution(status="unbounded")
        x = _map_back(np.zeros(col_count), maps, n_orig)
        return LpSolution(status="optimal", x=x,
                          objective=obj_offset,
                          row_duals=np.zeros(len(p.rows)),
                          dual_objective=obj_offset)

    # normalize rhs >= 0
    A = np.zeros((mr, col_count))
    rhs_v = np.zeros(mr)
    rels = []
    for i, (ta, rel, trhs) in enumerate(rows_t):
        if trhs < 0:
            ta = -ta
            trhs = -trhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            row_map[i] = (row_map[i][0], True)
        A[i] = ta
        rhs_v[i] = trhs
        rels.append(rel)

    n_slack = sum(1 for r in rels if r == "<=")
    n_surp = sum(1 for r in rels if r == ">=")
    n_art = sum(1 for r in rels if r != "<=")
    N = col_count + n_slack + n_surp + n_art
    A_std = np.zeros((mr, N))
    A_std[:, :col_count] = A
    basis = np.zeros(mr, dtype=int)
    init_ident = np.zeros(mr, dtype=int)  # identity col per row (for duals)
    art_cols = []
    js, ju, ja = 0, 0, 0
    for i, rel in enumerate(rels):
        if rel == "<=":
            col = col_count + js
            A_std[i, col] = 1.0
            basis[i] = col
            init_ident[i] = col
            js += 1
        else:
            if rel == ">=":
                A_std[i, col_count + n_slack + ju] = -1.0
                ju += 1
            col = col_count + n_slack + n_surp + ja
            A_std[i, col] = 1.0
            basis[i] = col
            init_ident[i] = col
            art_cols.append(col)
            ja += 1
    art_cols = np.array(art_cols, dtype=int)
    is_art = np.zeros(N, dtype=bool)
    is_art[art_cols] = True

    c_full = np.zeros(N)
    c_full[:col_count] = c_t
    D = np.hstack([A_std, rhs_v[:, None]])
    n_orig_rows = len(row_map) - len(extra_rows)
    form = _StandardForm(
        program=p, A=A_std.copy(), b=rhs_v.copy(), c=c_full,
        offset=obj_offset, maps=maps, n_struct=col_count, is_art=is_art,
        init_ident=init_ident,
        orig_rows=np.array([o for o, _ in row_map[:n_orig_rows]], dtype=int),
        orig_sign=np.array([-1.0 if f else 1.0
                            for _, f in row_map[:n_orig_rows]]),
        ub_row={j: n_orig_rows + k for k, (j, _, _) in enumerate(extra_rows)})

    # -- phase 1 -----------------------------------------------------------
    c1 = np.zeros(N)
    c1[art_cols] = 1.0
    r1 = np.concatenate([c1, [0.0]])
    for i in range(mr):
        if is_art[basis[i]]:
            r1 -= D[i]
    allowed = np.ones(N, dtype=bool)
    status, _, it1 = _run_simplex(D, r1, basis, allowed, opt_tol, max_iter)
    # feasibility decided by per-row scaled residuals of the phase-1 point
    x1 = np.zeros(N)
    x1[basis] = D[:, -1]
    resid = form.A[:, :col_count] @ x1[:col_count] - rhs_v
    viol = np.zeros(mr)
    for i, rel in enumerate(rels):
        if rel == "<=":
            viol[i] = max(resid[i], 0.0)
        elif rel == ">=":
            viol[i] = max(-resid[i], 0.0)
        else:
            viol[i] = abs(resid[i])
    if np.max(viol / (1.0 + np.abs(rhs_v))) > 1e-7:
        # Farkas certificate y: y^T b > 0, y^T A <= 0 over standard rows
        y1 = c1[init_ident] - r1[init_ident]
        return LpSolution(status="infeasible",
                          farkas=_rows_of(form, y1, len(p.rows)),
                          iterations=it1)

    # drive artificials out of the basis
    for i in range(mr):
        if is_art[basis[i]]:
            row = D[i, :N].copy()
            row[is_art] = 0.0
            nz = np.where(np.abs(row) > PIVOT_TOL)[0]
            if nz.size:
                pc = int(nz[np.argmax(np.abs(row[nz]))])
                _pivot(D, r1, basis, i, pc)

    # -- phase 2 -----------------------------------------------------------
    r2 = np.concatenate([c_full, [0.0]])
    for i in range(mr):
        j = basis[i]
        if c_full[j] != 0.0:
            r2[:N] -= c_full[j] * D[i, :N]
            r2[-1] -= c_full[j] * D[i, -1]
    allowed = ~is_art
    status, pc, it2 = _run_simplex(D, r2, basis, allowed, opt_tol,
                                   max_iter)
    iters = it1 + it2

    if status == "unbounded":
        t = np.zeros(N)
        t[pc] = 1.0
        for i in range(mr):
            t[basis[i]] = -D[i, pc]
        ray = _map_back_dir(t, maps, n_orig)
        return LpSolution(status="unbounded", ray=ray, iterations=iters)

    return _finish(form, p, basis, form.b, obj_offset, maps, iters,
                   D[:, -1], c_full[init_ident] - r2[init_ident])


def _map_back(xprime, maps, n_orig):
    x = np.zeros(n_orig)
    for j, mp in enumerate(maps):
        if mp[0] == "shift":
            x[j] = mp[1] + xprime[mp[2]]
        elif mp[0] == "neg":
            x[j] = mp[1] - xprime[mp[2]]
        else:
            x[j] = xprime[mp[1]] - xprime[mp[2]]
    return x


def _map_back_dir(t, maps, n_orig):
    x = np.zeros(n_orig)
    for j, mp in enumerate(maps):
        if mp[0] == "shift":
            x[j] = t[mp[2]]
        elif mp[0] == "neg":
            x[j] = -t[mp[2]]
        else:
            x[j] = t[mp[1]] - t[mp[2]]
    return x


def chebyshev_center(rows, scales=None, rho_cap=1e9):
    """Center and radius of the largest ball inscribed in
    {v : <a_i, v> >= b_i}.

    rows: list of (a, b).  scales: optional per-row scale replacing the
    default Euclidean norm of a_i in <a_i, v> - scale_i * rho >= b_i.
    Returns (center, radius) or None if the polytope is empty.
    """
    rows = [(np.asarray(a, dtype=float), float(b)) for a, b in rows]
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0][0])
    if scales is None:
        scales = [float(np.linalg.norm(a)) for a, _ in rows]
    lp_rows = []
    for (a, b), s in zip(rows, scales):
        coeff = np.concatenate([a, [-s]])
        lp_rows.append((coeff, ">=", b))
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * n + [(0.0, rho_cap)]
    sol = solve_lp(LinearProgram(c, lp_rows, bounds))
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError("chebyshev LP ended with status %s" % sol.status)
    return sol.x[:n], float(sol.x[-1])
