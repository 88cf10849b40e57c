import numpy as np
import pytest

from pricebounds import cpwa
from pricebounds.encoding import (PRUNE_THRESHOLD, big_m, encode_min,
                                  minimize_over_box, _dedupe_pieces,
                                  _term_big_m)
from pricebounds.lp import LinearProgram, solve_lp
from conftest import (rng_for, random_cpwa, random_box_instance, min_oracle,
                      assert_integer_feasible, negative_terms)


def test_big_m_call_term():
    h = cpwa.vanilla_call(1, 0, 1.0)
    ms = big_m(h, [10.0])
    # piece (x - 1): worst competitor 0 - (x - 1), max = 1 at x = 0
    # piece 0: worst competitor (x - 1) - 0, max = 9 at x = 10
    assert ms == [[pytest.approx(1.0), pytest.approx(9.0)]]


def test_big_m_single_piece_term_empty():
    h = cpwa.asset(2, 0)
    assert big_m(h, [10.0, 10.0]) == [[]]


def test_big_m_matches_lp_oracle():
    rng = rng_for(401)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        box = rng.uniform(1, 10, size=d)
        h = random_cpwa(rng, d, max_terms=1, max_pieces=4)
        ms = big_m(h, box)[0]
        pieces = [(np.asarray(a), float(b))
                  for a, b in h.terms[0].pieces]
        # drop exact duplicates the encoder also drops
        seen, uniq = set(), []
        for a, b in pieces:
            key = (tuple(np.round(a, 12)), round(b, 12))
            if key not in seen:
                seen.add(key)
                uniq.append((a, b))
        if len(uniq) == 1:
            assert ms == []
            continue
        for i, (ai, bi) in enumerate(uniq):
            best = -np.inf
            for j, (aj, bj) in enumerate(uniq):
                if j == i:
                    continue
                sol = solve_lp(LinearProgram(
                    -(aj - ai), [], [(0.0, float(xb)) for xb in box]))
                best = max(best, -sol.objective + bj - bi)
            assert ms[i] == pytest.approx(best, abs=1e-9)


def test_min_call_is_zero():
    _, res = minimize_over_box(cpwa.vanilla_call(1, 0, 1.0), [10.0])
    assert res.incumbent_value == pytest.approx(0.0, abs=1e-9)


def test_min_negated_call():
    h = cpwa.linear_combination([-1.0], [cpwa.vanilla_call(1, 0, 1.0)])
    _, res = minimize_over_box(h, [10.0])
    assert res.incumbent_value == pytest.approx(-9.0, abs=1e-8)


def test_two_asset_slack_minimum_vs_oracle():
    g = [cpwa.vanilla_call(2, 0, 2.0), cpwa.vanilla_call(2, 1, 3.0)]
    f = cpwa.call_on_max(2, [0, 1], 1.0)
    for y in ([1.0, 1.0], [2.0, -1.0], [0.5, 0.5]):
        h = cpwa.linear_combination(list(y) + [-1.0], g + [f])
        _, res = minimize_over_box(h, [10.0, 10.0])
        oracle, _ = min_oracle(h, [10.0, 10.0])
        assert res.incumbent_value == pytest.approx(oracle, abs=1e-6)


def test_random_minimizations_vs_oracle():
    rng = rng_for(402)
    for trial in range(100):
        d = int(rng.integers(1, 3))
        box = rng.uniform(1, 8, size=d)
        h = random_cpwa(rng, d)
        _, res = minimize_over_box(h, box)
        oracle, _ = min_oracle(h, box)
        assert res.incumbent_value == pytest.approx(oracle,
                                                    abs=1e-6), trial
        x = res.incumbent[:d]
        assert np.all(x >= -1e-9) and np.all(x <= box + 1e-9)
        assert cpwa.evaluate(h, np.clip(x, 0, box)) == pytest.approx(
            res.incumbent_value, abs=1e-6)


def test_iota_selection_sums_to_one():
    rng = rng_for(403)
    checked = 0
    for _ in range(10):
        h = random_cpwa(rng, 2, max_terms=3, max_pieces=3)
        enc, res = minimize_over_box(h, [5.0, 5.0])
        terms = negative_terms(enc.program)
        # every binary is the iota of exactly one negative term
        assert sorted(i for _, _, iotas in terms for i in iotas) == \
            sorted(enc.program.binary_vars)
        for _, _, iotas in terms:
            assert np.round(res.incumbent[iotas]).sum() == 1
            checked += 1
    assert checked >= 3


def test_degenerate_term_collapses():
    # both pieces identical: term contributes an affine addend
    h = cpwa.make_function(1, [(1, [(np.array([2.0]), 1.0),
                                    (np.array([2.0]), 1.0)])])
    enc = encode_min(h, [4.0])
    assert enc.program.binary_vars == []
    _, res = minimize_over_box(h, [4.0])
    assert res.incumbent_value == pytest.approx(1.0, abs=1e-9)


def test_invalid_box_rejected():
    with pytest.raises(ValueError):
        encode_min(cpwa.asset(1, 0), [0.0])
    with pytest.raises(ValueError):
        encode_min(cpwa.asset(2, 0), [1.0])


def _dedupe_loop(pieces):
    """The per-piece loop that _dedupe_pieces vectorizes: each piece
    whose key, rounded to 12 decimals, is new, in first-seen order."""
    seen, out = set(), []
    for a, b in pieces:
        key = (tuple(np.round(a, 12)), round(b, 12))
        if key not in seen:
            seen.add(key)
            out.append((a, b))
    return out


def _prune_loop(pieces):
    """The per-piece rule that _dedupe_pieces applies before it dedupes:
    in a term of two or more pieces, the pieces within PRUNE_THRESHOLD of
    zero become one exact zero piece after the others."""
    if len(pieces) < 2:
        return list(pieces)
    kept = [(a, b) for a, b in pieces
            if np.abs(a).max(initial=0.0) > PRUNE_THRESHOLD
            or abs(b) > PRUNE_THRESHOLD]
    if len(kept) < len(pieces):
        kept.append((np.zeros(len(pieces[0][0])), 0.0))
    return kept


def test_dedupe_pieces_matches_the_per_piece_loop():
    """_dedupe_pieces keeps, per term, the pieces that the per-piece
    prune and dedupe loops keep, in their order, on terms with exact
    copies, copies within rounding, -0.0, pieces that differ only in b
    and tiny pieces."""
    rng = rng_for(406)
    for trial in range(200):
        d = int(rng.integers(1, 5))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            base = [(np.round(rng.normal(size=d), 1), float(rng.integers(3)))
                    for _ in range(int(rng.integers(1, 4)))]
            pieces = [base[int(rng.integers(len(base)))]
                      for _ in range(int(rng.integers(1, 7)))]
            # copies within rounding, and signed zeros
            pieces = [(a + 1e-14 * rng.integers(-1, 2), b) if k % 2
                      else (np.where(a == 0, -0.0, a), b)
                      for k, (a, b) in enumerate(pieces)]
            terms.append(cpwa.CpwaTerm(int(rng.choice([-1, 1])),
                                       tuple(pieces)))
        for t, (a, b) in zip(terms, _dedupe_pieces(terms)):
            ref = _dedupe_loop(_prune_loop(t.pieces))
            assert len(b) == len(ref), trial
            for (ra, rb), ka, kb in zip(ref, a, b):
                assert np.array_equal(ra, ka) and rb == kb, trial


def _encode_by_rows(h, box):
    """The row-tuple construction that encode_min replaced, kept as the
    reference: one (x-part, aux, rel, rhs) tuple per row, then a dense
    row per tuple, stacked by LinearProgram."""
    xbar = np.asarray(box, dtype=float)
    d = h.dimension
    bounds = [(0.0, float(xb)) for xb in xbar]
    obj_x = np.zeros(d)
    n = d
    obj_extra, rows, binaries = [], [], []
    constant = 0.0
    for t in h.terms:
        pieces = _dedupe_loop(_prune_loop(t.pieces))
        if len(pieces) == 1:
            obj_x += t.sign * pieces[0][0]
            constant += t.sign * pieces[0][1]
            continue
        if t.sign == 1:
            lam = n
            n += 1
            bounds.append((None, None))
            obj_extra.append(1.0)
            for a, b in pieces:
                rows.append((a, [(lam, -1.0)], "<=", -b))
        else:
            zeta = n
            n += 1
            bounds.append((None, None))
            obj_extra.append(-1.0)
            ms = _term_big_m(np.array([a for a, _ in pieces]),
                             np.array([b for _, b in pieces]), xbar)
            delta_idx, iota_idx = [], []
            for a, b in pieces:
                delta_idx.append(n)
                n += 1
                bounds.append((0.0, None))
                obj_extra.append(0.0)
                rows.append((a, [(zeta, -1.0), (delta_idx[-1], 1.0)], "=",
                             -b))
            for i in range(len(pieces)):
                iota_idx.append(n)
                binaries.append(n)
                n += 1
                bounds.append((0.0, 1.0))
                obj_extra.append(0.0)
                rows.append((None, [(delta_idx[i], 1.0), (iota_idx[i], ms[i])],
                             "<=", ms[i]))
            rows.append((None, [(j, 1.0) for j in iota_idx], "=", 1.0))
    c = np.concatenate([obj_x, np.array(obj_extra)]) if obj_extra \
        else obj_x.copy()
    lp_rows = []
    for xpart, aux, rel, rhs in rows:
        coeffs = np.zeros(n)
        if xpart is not None:
            coeffs[:d] = xpart
        for j, v in aux:
            coeffs[j] = v
        lp_rows.append((coeffs, rel, rhs))
    return LinearProgram(c, lp_rows, bounds), binaries, constant


def _with_prunable_pieces(rng, h):
    """h with pieces that the encoder prunes or drops mixed into its
    terms: tiny pieces, one entry on PRUNE_THRESHOLD, pieces just past it,
    exact zero pieces of either sign, signed zeros in a kept piece and
    exact copies; now and then a term of tiny pieces only."""
    d = h.dimension

    def extra(pieces):
        kind = int(rng.integers(5))
        if kind == 0:
            return (rng.uniform(-1, 1, size=d) * PRUNE_THRESHOLD,
                    float(rng.choice([-1.0, 1.0])) * PRUNE_THRESHOLD)
        if kind == 1:
            return np.full(d, 1e-9), 2 * PRUNE_THRESHOLD
        if kind == 2:
            zero = float(rng.choice([0.0, -0.0]))
            return np.full(d, zero), zero
        if kind == 3:
            return pieces[int(rng.integers(len(pieces)))]
        a = np.where(rng.random(d) < 0.5, -0.0, rng.uniform(-2, 2, size=d))
        return a, float(rng.uniform(-2, 2))

    terms = []
    for t in h.terms:
        pieces = list(t.pieces)
        for _ in range(int(rng.integers(4))):
            pieces.insert(int(rng.integers(len(pieces) + 1)), extra(pieces))
        terms.append(cpwa.CpwaTerm(t.sign, tuple(pieces)))
    if rng.random() < 0.3:
        tiny = [(rng.uniform(-1, 1, size=d) * 1e-8,
                 float(rng.uniform(-1, 1)) * 1e-8)
                for _ in range(int(rng.integers(1, 4)))]
        terms.append(cpwa.CpwaTerm(int(rng.choice([-1, 1])), tuple(tiny)))
    return cpwa.CpwaFunction(d, tuple(terms))


def test_matrix_matches_row_construction():
    """encode_min fills its matrix directly; every array is bit-identical
    to the row-tuple construction on random functions, on the same with
    pieces to prune or drop, and on random slack templates: a two-asset
    one, and at d = 3..5 the upper and lower bound slacks of a call on
    the max, a best-of-calls and a put on the min over assets and calls,
    some of whose positions are tiny."""
    rng = rng_for(404)
    g = [cpwa.vanilla_call(2, 0, 2.0), cpwa.vanilla_put(2, 1, 3.0),
         cpwa.call_on_max(2, [0, 1], 1.0), cpwa.asset(2, 0)]
    tmpl = cpwa.slack_template(g, cpwa.call_on_min(2, [0, 1], 2.0))
    cases = []
    for trial in range(120):
        if trial % 2:
            d = int(rng.integers(1, 4))
            h = random_cpwa(rng, d, max_terms=5, max_pieces=4)
        else:
            d = 2
            h = cpwa.instantiate(tmpl, rng.uniform(-2, 2, size=len(g)))
        cases.append((h, rng.uniform(1, 8, size=d)))
    for _ in range(120):
        d = int(rng.integers(1, 4))
        h = random_cpwa(rng, d, max_terms=5, max_pieces=4)
        cases.append((_with_prunable_pieces(rng, h),
                      rng.uniform(1, 8, size=d)))
    for d in (3, 4, 5):
        assets = list(range(d))
        g = [cpwa.asset(d, i) for i in assets] + [
            cpwa.vanilla_call(d, i, k) for i in assets for k in (1.0, 3.0)]
        for f in (cpwa.call_on_max(d, assets, 2.0),
                  cpwa.best_of_calls(d, assets, [1.0 + i for i in assets]),
                  cpwa.put_on_min(d, assets, 4.0)):
            for sign in (1.0, -1.0):
                tmpl = cpwa.slack_template(
                    g, cpwa.linear_combination([sign], [f]))
                for _ in range(4):
                    y = rng.uniform(-2, 2, size=len(g))
                    y[rng.random(len(g)) < 0.25] *= 1e-8
                    cases.append((cpwa.instantiate(tmpl, y),
                                  rng.uniform(1, 8, size=d)))
    for trial, (h, box) in enumerate(cases):
        enc = encode_min(h, box)
        p = enc.program
        ref, binaries, constant = _encode_by_rows(h, box)
        assert p.binary_vars == binaries, trial
        assert enc.constant == constant, trial
        for name in ("objective", "A", "b", "sense", "lo", "hi"):
            u, v = getattr(p.base, name), getattr(ref, name)
            assert u.dtype == v.dtype and np.array_equal(u, v), (trial, name)


def _box_max_loop(pieces, xbar):
    """The per-pair closed form that _term_big_m vectorizes."""
    def box_max(coef, const):
        return float(np.where(coef > 0, coef * xbar, 0.0).sum() + const)
    return [max(box_max(aj - ai, bj - bi)
                for j, (aj, bj) in enumerate(pieces) if j != i)
            for i, (ai, bi) in enumerate(pieces)]


def test_term_big_m_matches_pairwise_loop():
    """One array expression per term gives the per-pair loop's big-M
    constants bit for bit, over coefficient scales from 1e-3 to 1e5."""
    rng = rng_for(405)
    for trial in range(400):
        d = int(rng.integers(1, 10))
        pieces = [(rng.normal(size=d) * 10 ** rng.uniform(-3, 5),
                   float(rng.normal() * 10 ** rng.uniform(-3, 5)))
                  for _ in range(int(rng.integers(2, 7)))]
        xbar = rng.uniform(0.1, 100, size=d)
        a, b = np.array([a for a, _ in pieces]), np.array([b for _, b in pieces])
        assert _term_big_m(a, b, xbar) == _box_max_loop(pieces, xbar), trial


def test_completion_is_feasible_and_exact():
    """The completion of a box point is integer-feasible, and its
    objective plus the encoding's constant is h at that point, on random
    functions and on slack functions of random box instances.  Only the
    box part of its argument counts, clipped to the box."""
    rng = rng_for(406)
    checked = 0
    for trial in range(200):
        d = int(rng.integers(1, 4))
        if trial % 2:
            h = random_cpwa(rng, d, max_terms=5, max_pieces=4)
            box = rng.uniform(1, 8, size=d)
        else:
            inst = random_box_instance(rng, d, int(rng.integers(1, 5)))
            f = cpwa.call_on_max(d, list(range(d)), 2.0)
            tmpl = cpwa.slack_template(inst.g, f)
            h = cpwa.instantiate(tmpl, rng.uniform(-2, 2, size=inst.m))
            box = inst.box_array()
        enc = encode_min(h, box)
        p = enc.program
        n = len(p.base.objective)
        for _ in range(5):
            x = rng.uniform(-0.1, 1.1, size=d) * box
            junk = rng.uniform(-5, 5, size=n - d)
            xc = p.complete(np.concatenate([x, junk]))
            assert_integer_feasible(p, xc)
            x = np.clip(x, 0.0, box)
            assert np.array_equal(xc[:d], x)
            s = p.base.objective @ xc + enc.constant
            assert abs(s - cpwa.evaluate(h, x)) <= 1e-9 * (1 + abs(s)), \
                trial
            checked += 1
    assert checked == 1000


def test_completion_selects_the_first_top_piece():
    """At a tie the one-hot iota picks the lowest-index piece, whose
    delta is 0; the other deltas are the gaps to the max."""
    # -max(x - 1, 2x - 2, 3 - 3x): all three pieces are 0 at x = 1
    h = cpwa.make_function(1, [(-1, [([1.0], -1.0), ([2.0], -2.0),
                                     ([-3.0], 3.0)])])
    enc = encode_min(h, [4.0])
    # x, then zeta, three deltas and three binary iotas
    assert negative_terms(enc.program) == [(1, [2, 3, 4], [5, 6, 7])]
    xc = enc.program.complete(np.array([1.0]))
    assert xc[1] == 0.0
    assert xc[2:5].tolist() == [0.0, 0.0, 0.0]
    assert xc[5:8].tolist() == [1.0, 0.0, 0.0]
    xc = enc.program.complete(np.array([3.0]))
    assert xc[1] == 4.0
    assert xc[2:5].tolist() == [2.0, 0.0, 10.0]
    assert xc[5:8].tolist() == [0.0, 1.0, 0.0]


def test_completion_of_a_block_completes_each_row():
    """A block of points completes row by row: each row is
    integer-feasible and priced at h, and its iotas select the pieces
    that the point's own completion selects."""
    rng = rng_for(407)
    for trial in range(60):
        d = int(rng.integers(1, 4))
        inst = random_box_instance(rng, d, int(rng.integers(1, 5)))
        f = cpwa.call_on_max(d, list(range(d)), 2.0)
        h = cpwa.instantiate(cpwa.slack_template(inst.g, f),
                             rng.uniform(-2, 2, size=inst.m))
        box = inst.box_array()
        enc = encode_min(h, box)
        p = enc.program
        xs = rng.uniform(-0.1, 1.1, size=(7, d)) * box
        block = p.complete(xs)
        assert block.shape == (7, len(p.base.objective))
        for x, xc in zip(xs, block):
            one = p.complete(x)
            assert_integer_feasible(p, xc)
            assert np.array_equal(xc[p.binary_vars], one[p.binary_vars])
            assert np.allclose(xc, one, rtol=1e-12, atol=1e-12), trial
            s = p.base.objective @ xc + enc.constant
            assert abs(s - cpwa.evaluate(h, np.clip(x, 0.0, box))) <= \
                1e-9 * (1 + abs(s)), trial


def test_vertices_of_the_arrangement():
    """The program carries the vertices of its pieces' arrangement in
    the box for d <= 2.  For d >= 3 it carries the coordinatewise
    minimizers of its pieces where one term's pieces use two or more
    coordinates and that term is negative, the minimizers x(t) of its
    levels where that term is positive and each of its pieces uses one
    coordinate, and none where a positive term has a piece that uses two
    or more coordinates or there are two such terms."""
    call = cpwa.vanilla_call(1, 0, 1.0)
    assert encode_min(call, [10.0]).program.vertices.tolist() == \
        [[0.0], [1.0], [10.0]]
    # max(x0, x1) kinks on x0 = x1, which leaves the box at (2, 2)
    both = cpwa.call_on_max(2, [0, 1], 0.0)
    assert encode_min(both, [2.0, 3.0]).program.vertices.tolist() == \
        [[0.0, 0.0], [0.0, 3.0], [2.0, 0.0], [2.0, 2.0], [2.0, 3.0]]
    # x0 - x1 is affine: the box corners only
    flat = cpwa.linear_combination([1.0, -1.0], [cpwa.asset(2, 0),
                                                 cpwa.asset(2, 1)])
    assert encode_min(flat, [1.0, 1.0]).program.vertices.tolist() == \
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    # (max(x0, x1, x2) - 1)^+ on [0, 2]^3 has the levels t = 0, at x_k = 0
    # and at the kink x_k = 1, and t = 1, at x_k = 2; u is 0, so each
    # x_k(t) is the left end 0 of its interval
    three = cpwa.call_on_max(3, [0, 1, 2], 1.0)
    assert encode_min(three, [2.0] * 3).program.vertices.tolist() == \
        [[0.0, 0.0, 0.0]]
    # 2 (x0 - 2)^+ - (max(x0, x1, x2) - 1)^+: per piece of the short call
    # on the max, x0 at its argmin over {0, 3} and the kink 2, x1 and x2
    # over {0, 3}; a tie goes to the first of 0, xbar and the kinks
    short = cpwa.linear_combination([2.0, -1.0], [cpwa.vanilla_call(3, 0, 2.0),
                                                  three])
    assert encode_min(short, [3.0] * 3).program.vertices.tolist() == \
        [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 3.0, 0.0], [2.0, 0.0, 0.0]]
    assert encode_min(cpwa.call_on_min(3, [0, 1, 2], 1.0),
                      [2.0] * 3).program.vertices is None
    # the lower bound's slack carries +f: long the assets, each u_k is
    # increasing and x(t) = 0 at both levels
    g = [cpwa.asset(3, i) for i in range(3)]
    long = cpwa.instantiate(cpwa.slack_template(
        g, cpwa.linear_combination([-1.0], [three])), np.ones(3))
    assert encode_min(long, [2.0] * 3).program.vertices.tolist() == \
        [[0.0, 0.0, 0.0]]
    # short the assets at 1/2, each u_k falls, so x_k(t) is the right end
    # of its interval: 1 at t = 0 and 2 at t = 1
    hedged = cpwa.instantiate(cpwa.slack_template(
        g, cpwa.linear_combination([-1.0], [three])), -0.5 * np.ones(3))
    assert encode_min(hedged, [2.0] * 3).program.vertices.tolist() == \
        [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
    # a long basket or spread call has a piece that uses two coordinates
    assert encode_min(cpwa.basket_call([1.0, 1.0, 1.0], 1.0),
                      [2.0] * 3).program.vertices is None
    assert encode_min(cpwa.spread_call(3, 0, 1, 1.0),
                      [2.0] * 3).program.vertices is None
    # a second short multi-asset term leaves the program to branch and
    # bound
    shorts = cpwa.linear_combination(
        [-1.0, -1.0], [three, cpwa.call_on_max(3, [0, 1, 2], 2.0)])
    assert encode_min(shorts, [3.0] * 3).program.vertices is None
