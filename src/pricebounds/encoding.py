"""Encode global minimization of a CPWA function over a box as a MILP.

min over [0, xbar] of  sum_k sign_k * max_i(<a_{k,i}, x> + b_{k,i})

Positive-sign maxima become epigraph variables lambda_k; negative-sign
maxima become hypograph variables zeta_k tied to an argmax selection via
big-M disjunctions with one binary per piece (exactly one active).
Big-M constants are computed in closed form by coordinatewise box
maximization.  Terms whose pieces coincide collapse to plain affine
addends with no auxiliary variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpwa import CpwaFunction, prune as prune_cpwa, PRUNE_THRESHOLD
from .lp import LinearProgram
from .milp import MixedIntegerProgram, MilpOptions, solve_milp


def _box_max(coef, const, xbar):
    """max over 0 <= x <= xbar of <coef, x> + const, in closed form."""
    return float(np.where(coef > 0, coef * xbar, 0.0).sum() + const)


def _dedupe_pieces(pieces):
    seen = set()
    out = []
    for a, b in pieces:
        key = (tuple(np.round(a, 12)), round(b, 12))
        if key not in seen:
            seen.add(key)
            out.append((a, b))
    return out


def _term_big_m(pieces, xbar):
    """big_m's row for one term's deduplicated pieces (at least two)."""
    return [max(_box_max(aj - ai, bj - bi, xbar)
                for j, (aj, bj) in enumerate(pieces) if j != i)
            for i, (ai, bi) in enumerate(pieces)]


def big_m(h: CpwaFunction, box) -> list:
    """M_{k,i} = max over competing pieces i' != i and x in the box of
    (<a_{k,i'} - a_{k,i}, x> + b_{k,i'} - b_{k,i}).  Empty row when a
    term has a single piece."""
    xbar = np.asarray(box, dtype=float)
    out = []
    for t in h.terms:
        pieces = _dedupe_pieces(t.pieces)
        out.append(_term_big_m(pieces, xbar) if len(pieces) > 1 else [])
    return out


@dataclass
class Encoding:
    program: MixedIntegerProgram
    x_indices: list
    constant: float  # objective offset from collapsed affine addends
    # per retained term: ("max", lambda_idx) | ("minmax", zeta_idx,
    #     delta_idxs, iota_idxs)
    term_vars: list

    def decode(self, x_full):
        x_full = np.asarray(x_full, dtype=float)
        out = {"x": x_full[self.x_indices]}
        lambdas, zetas, deltas, iotas = [], [], [], []
        for tv in self.term_vars:
            if tv[0] == "max":
                lambdas.append(float(x_full[tv[1]]))
            else:
                zetas.append(float(x_full[tv[1]]))
                deltas.append([float(x_full[i]) for i in tv[2]])
                iotas.append([int(round(x_full[i])) for i in tv[3]])
        out.update(lambdas=lambdas, zetas=zetas, deltas=deltas,
                   iotas=iotas)
        return out


def encode_min(h: CpwaFunction, box, prune_threshold=PRUNE_THRESHOLD
               ) -> Encoding:
    xbar = np.asarray(box, dtype=float)
    if np.any(xbar <= 0):
        raise ValueError("box must be strictly positive")
    d = h.dimension
    if len(xbar) != d:
        raise ValueError("box dimension mismatch")
    h = prune_cpwa(h, prune_threshold)

    x_indices = list(range(d))
    bounds = [(0.0, float(xb)) for xb in xbar]
    obj_x = np.zeros(d)
    n = d
    obj_extra = []  # (coeff) for auxiliary variables, appended in order
    rows = []
    binaries = []
    constant = 0.0
    term_vars = []

    for t in h.terms:
        pieces = _dedupe_pieces(t.pieces)
        if len(pieces) == 1:
            a, b = pieces[0]
            obj_x += t.sign * a
            constant += t.sign * b
            continue
        if t.sign == 1:
            lam = n
            n += 1
            bounds.append((None, None))
            obj_extra.append(1.0)
            for a, b in pieces:
                # a.x + b <= lambda
                rows.append((("x", a), [(lam, -1.0)], "<=", -b))
            term_vars.append(("max", lam))
        else:
            zeta = n
            n += 1
            bounds.append((None, None))
            obj_extra.append(-1.0)
            ms = _term_big_m(pieces, xbar)
            delta_idx = []
            iota_idx = []
            for i, (a, b) in enumerate(pieces):
                di = n
                n += 1
                bounds.append((0.0, None))
                obj_extra.append(0.0)
                delta_idx.append(di)
                # a.x + b + delta = zeta
                rows.append((("x", a), [(zeta, -1.0), (di, 1.0)], "=", -b))
            for i in range(len(pieces)):
                ii = n
                n += 1
                bounds.append((0.0, 1.0))
                obj_extra.append(0.0)
                binaries.append(ii)
                iota_idx.append(ii)
                # delta_i <= M_i (1 - iota_i)
                rows.append((None, [(delta_idx[i], 1.0),
                                    (ii, ms[i])], "<=", ms[i]))
            rows.append((None, [(j, 1.0) for j in iota_idx], "=", 1.0))
            term_vars.append(("minmax", zeta, delta_idx, iota_idx))

    c = np.concatenate([obj_x, np.array(obj_extra)]) if obj_extra \
        else obj_x.copy()
    lp_rows = []
    for xpart, aux, rel, rhs in rows:
        coeffs = np.zeros(n)
        if xpart is not None:
            coeffs[:d] = xpart[1]
        for j, v in aux:
            coeffs[j] = v
        lp_rows.append((coeffs, rel, rhs))
    program = MixedIntegerProgram(LinearProgram(c, lp_rows, bounds),
                                  binaries)
    return Encoding(program=program, x_indices=x_indices,
                    constant=constant, term_vars=term_vars)


def minimize_over_box(h: CpwaFunction, box, opts: MilpOptions = None,
                      extra_offset=0.0):
    """Exact MILP minimization of h over [0, box], used by every global
    check (lower bounds, hedge verification, dominating cash).

    Returns (Encoding, MilpResult), with values equal to
    h(x) + extra_offset.
    """
    enc = encode_min(h, box)
    return enc, solve_milp(enc.program, opts,
                           offset=enc.constant + extra_offset)
