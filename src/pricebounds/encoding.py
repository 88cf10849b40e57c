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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpwa import CpwaFunction, prune as prune_cpwa
from .lp import LinearProgram
from .milp import MixedIntegerProgram, MilpOptions, solve_milp


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
    """big_m's row for one term's deduplicated pieces (at least two).
    Entry [i, j] of `gap` is the max over 0 <= x <= xbar of piece j minus
    piece i, in closed form: the positive coefficients at xbar."""
    a = np.array([a for a, _ in pieces])
    b = np.array([b for _, b in pieces])
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
    out = []
    for t in h.terms:
        pieces = _dedupe_pieces(t.pieces)
        out.append(_term_big_m(pieces, xbar) if len(pieces) > 1 else [])
    return out


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
    binaries = []
    # the completion's stacked pieces: their rows, and per term its first
    # piece and its lambda or zeta; the pieces of negative terms, with the
    # first of each term and each piece's delta and iota
    prows, starts, top = [], [], []
    neg, neg_starts, delta, iota = [], [], [], []
    i, j = 0, d  # next row, next variable
    for sign, pieces in terms:
        P = len(pieces)
        piece_rows = slice(i, i + P)
        starts.append(len(prows))
        prows += range(i, i + P)
        top.append(j)
        A[piece_rows, :d] = [a for a, _ in pieces]
        rhs[piece_rows] = [-b for _, b in pieces]
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
        ms = _term_big_m(pieces, xbar)
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
