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

    # one pass sizes the program: a positive term with P pieces adds
    # lambda and P rows; a negative one adds zeta, P deltas, P iotas and
    # 2 P + 1 rows; a term with one piece is an affine addend
    terms, c_x, constant = [], np.zeros(d), 0.0
    n, m = d, 0
    for t in h.terms:
        pieces = _dedupe_pieces(t.pieces)
        if len(pieces) == 1:
            a, b = pieces[0]
            c_x += t.sign * a
            constant += t.sign * b
            continue
        terms.append((t.sign, pieces))
        P = len(pieces)
        n += 1 if t.sign == 1 else 1 + 2 * P
        m += P if t.sign == 1 else 2 * P + 1

    A, rhs = np.zeros((m, n)), np.zeros(m)
    sense = np.zeros(m, dtype=np.int8)
    c = np.zeros(n)
    c[:d] = c_x
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    lo[:d], hi[:d] = 0.0, xbar
    binaries, term_vars = [], []
    i, j = 0, d  # next row, next variable
    for sign, pieces in terms:
        P = len(pieces)
        piece_rows = slice(i, i + P)
        A[piece_rows, :d] = [a for a, _ in pieces]
        rhs[piece_rows] = [-b for _, b in pieces]
        if sign == 1:
            # a.x + b <= lambda
            A[piece_rows, j] = -1.0
            sense[piece_rows] = -1
            c[j] = 1.0
            term_vars.append(("max", j))
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
        ms = _term_big_m(pieces, xbar)
        A[i + P + r, dl + r] = 1.0
        A[i + P + r, io + r] = rhs[big] = ms
        sense[big] = -1
        # exactly one piece is selected
        A[i + 2 * P, io:io + P] = rhs[i + 2 * P] = 1.0
        binaries += range(io, io + P)
        term_vars.append(("minmax", zeta, list(range(dl, io)),
                          list(range(io, io + P))))
        i, j = i + 2 * P + 1, io + P

    program = MixedIntegerProgram(
        LinearProgram.from_arrays(c, A, rhs, sense, lo, hi), binaries)
    return Encoding(program=program, x_indices=list(range(d)),
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
