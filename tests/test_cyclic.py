"""Cyclic code construction, BCH bound, distance engine, weights."""

import collections
import dataclasses
import itertools
import json
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dickson_codes import cyclic, verify
from dickson_codes.cyclic import (ISD_STALL, CyclicCode, DistanceConfig,
                                  DistanceResult, _coeff_digits,
                                  _colex_unrank, _exhaustive_distance,
                                  _key_table, _lane_bits,
                                  _longest_cyclic_run, _mitm_sides,
                                  _mitm_span, _nested_keys, _pair_weights,
                                  _pinned_blocks, _rref_codes, _side_keys,
                                  _smallest_shift,
                                  _WitnessSearch, bch_lower_bound,
                                  code_from_sequence, codeword_blocks,
                                  minimum_distance, parity_matrix_from_roots,
                                  weight_distribution)
from dickson_codes.dickson import DicksonSpec
from dickson_codes.galois import InternalError, VecTables, ZERO
from dickson_codes.lfsr import PeriodicSequence, defining_sequence
from dickson_codes.polyring import (Poly, coset_table, factor_xn_minus_1,
                                    minimal_polynomial)
from dickson_codes.registry import default_registry

REG = default_registry()


def build(q, m, kind, h, a_expr, offset=None):
    F = REG.field(q, m)
    a = F.parse_element(a_expr)
    off = F.parse_element(offset) if offset else ZERO
    return code_from_sequence(
        defining_sequence(F, DicksonSpec(kind=kind, h=h, a=a, offset=off)))


def _enumerated(code):
    """Enumeration's minimum weight and the normal form of its words."""
    w, words = _exhaustive_distance(code)
    return w, _smallest_shift(words, code.field.subfield_tables())


def test_code_from_sequence_examples():
    c = build(2, 3, "D", 2, "1")
    assert (c.n, c.k) == (7, 3)
    c2 = build(3, 2, "D", 2, "0")
    assert (c2.n, c2.k) == (8, 3)
    f = REG.field(2, 3)
    z = code_from_sequence(PeriodicSequence(field=f, values=(ZERO,) * 7))
    assert (z.n, z.k) == (7, 7) and z.g == Poly.one(f)


def test_generator_times_parity_is_xn_minus_1():
    for c in [build(2, 4, "D", 3, "1"), build(3, 3, "D", 4, "a"),
              build(9, 2, "D", 5, "1")]:
        assert (c.g * c.h) == Poly.xn_minus_1(c.field, c.n)


def test_given_parity_polynomial_is_checked_by_product():
    c = build(3, 3, "D", 4, "a")
    again = CyclicCode(c.field, c.g, h=c.h)  # checked, not divided
    assert again.h is c.h and again.k == c.k
    f = REG.field(2, 3)
    g = Poly.from_ints(f, [1, 1, 0, 1])
    with pytest.raises(ValueError):
        CyclicCode(f, g, h=Poly.from_ints(f, [1, 1, 1]))  # g * h != x^7 - 1
    with pytest.raises(ValueError):
        CyclicCode(f, g, h=Poly.from_ints(REG.field(2, 4), [1, 1]))


def test_code_from_generator():
    f = REG.field(2, 3)
    full = CyclicCode(f, Poly.one(f))
    assert full.k == 7
    even = CyclicCode(f, Poly.from_ints(f, [-1, 1]))
    assert even.k == 6
    assert minimum_distance(even).value == 2
    zero_code = CyclicCode(f, Poly.xn_minus_1(f, 7))
    assert zero_code.k == 0
    with pytest.raises(ValueError):
        CyclicCode(f, Poly.from_ints(f, [1, 0, 1]))  # not a divisor
    with pytest.raises(ValueError):
        CyclicCode(f, Poly.from_ints(f, [1, 1]).scale(ZERO))
    # x + alpha divides x^7 - 1 over GF(8), but alpha is not in GF(2)
    with pytest.raises(ValueError, match="subfield"):
        CyclicCode(f, Poly(f, (f.alpha, f.one)))


def test_bch_bound_examples():
    # D_3, q=2, m=5, a != 0 with delta(1+a) = 0: reciprocal roots 1..4 -> 5
    f32 = REG.field(2, 5)
    c = build(2, 5, "D", 3, "a^3")  # row [31,21,5]: delta = 0 case
    assert c.k == 21
    assert bch_lower_bound(c) == 5
    # D_5, q=2, m=5, full case with delta(1)=1: g has (x-1) too -> 8
    g = Poly.from_ints(f32, [-1, 1])
    for j in (1, 3, 5):
        g = g * minimal_polynomial(f32, f32.inv(j))
    c2 = CyclicCode(f32, g.monic())
    assert bch_lower_bound(c2) == 8
    # g = x - 1 -> bound 2
    c3 = CyclicCode(f32, Poly.from_ints(f32, [-1, 1]))
    assert bch_lower_bound(c3) == 2
    # g = 1 -> full space, bound 1
    assert bch_lower_bound(CyclicCode(f32, Poly.one(f32))) == 1


def test_longest_cyclic_run_matches_brute_force():
    # every subset of Z_n for n <= 9, against the longest window of
    # consecutive residues that lies inside it
    for n in range(1, 10):
        for mask in range(1 << n):
            zeros = {i for i in range(n) if mask >> i & 1}
            expected = max((j for j in range(n + 1) for i in range(n)
                            if all((i + t) % n in zeros for t in range(j))),
                           default=0)
            assert _longest_cyclic_run(zeros, n) == expected, (n, zeros)


def test_minimum_distance_examples():
    d1 = minimum_distance(build(2, 3, "D", 2, "1"))
    assert (d1.value, d1.exact) == (4, True)
    d2 = minimum_distance(build(2, 4, "D", 3, "1"))
    assert (d2.value, d2.exact) == (5, True)
    # D_4(x,1), q=3, m=3: weight-2 codeword 2 + x^{(3^3-1)/2}
    c = build(3, 3, "D", 4, "1")
    d3 = minimum_distance(c)
    assert (c.n, c.k, d3.value) == (26, 20, 2)
    witness = np.zeros(26, dtype=np.uint8)
    st = c.field.subfield_tables()
    witness[0] = st.scalar_code(2)
    witness[13] = st.scalar_code(1)
    assert c.contains(witness)


def test_minimum_distance_rejects_zero_code():
    f = REG.field(2, 3)
    zero_code = CyclicCode(f, Poly.xn_minus_1(f, 7))
    with pytest.raises(ValueError):
        minimum_distance(zero_code)


def test_weight_distribution_examples():
    c = build(2, 3, "D", 2, "1")
    assert weight_distribution(c) == {0: 1, 4: 7}
    # q^k = 2^3: at the cap, and one above it
    assert weight_distribution(c, DistanceConfig(full_enum_limit=8)) == {
        0: 1, 4: 7}
    with pytest.raises(ValueError, match="exceeds the enumeration cap"):
        weight_distribution(c, DistanceConfig(full_enum_limit=7))
    f = REG.field(2, 2)
    full = CyclicCode(f, Poly.one(f))
    assert weight_distribution(full) == {0: 1, 1: 3, 2: 3, 3: 1}


def test_reciprocal_code_same_weight_distribution():
    # C and its reciprocal share the weight distribution (D_3, q=2, m=4, a=1)
    c = build(2, 4, "D", 3, "1")
    rec = CyclicCode(c.field, Poly(c.field, reversed(c.g.coeffs)).monic())
    assert weight_distribution(c) == weight_distribution(rec)


def _even_like(code):
    """The subcode of coordinate sum zero, generated by g(x)(x - 1)."""
    return CyclicCode(code.field, code.g * Poly.from_ints(code.field, [-1, 1]))


def test_even_like_subcode():
    f = REG.field(2, 3)
    ham = CyclicCode(f, Poly.from_ints(f, [1, 1, 0, 1]))
    assert minimum_distance(ham).value == 3
    sub = _even_like(ham)
    assert (sub.n, sub.k) == (7, 3)
    assert minimum_distance(sub).value == 4
    # full space -> sum-zero code with d = 2
    full = CyclicCode(f, Poly.one(f))
    sums = _even_like(full)
    assert sums.k == 6 and minimum_distance(sums).value == 2


def test_odd_even_distance_consistency():
    # where (x-1) does not divide g: d = min(even-like d, min odd-like weight)
    for c in [build(2, 4, "D", 3, "1"), build(3, 2, "D", 2, "-1")]:
        assert c.g(c.field.one) != ZERO
        st = c.field.subfield_tables()
        d_even = None
        d_odd = None
        for codes in codeword_blocks(c):
            weights = np.count_nonzero(codes, axis=1)
            acc = np.zeros(len(codes), dtype=np.uint8)
            for j in range(c.n):
                acc = st.add[acc, codes[:, j]]
            for w, s in zip(weights, acc):
                if w == 0:
                    continue
                if s == 0:
                    d_even = w if d_even is None else min(d_even, w)
                else:
                    d_odd = w if d_odd is None else min(d_odd, w)
        d = minimum_distance(c).value
        assert d == min(x for x in (d_even, d_odd) if x is not None)
        assert d_even == minimum_distance(_even_like(c)).value


def test_mitm_equals_exhaustive_small_codes():
    cases = [(2, 4, "D", 3, "a^3"), (2, 4, "D", 3, "1"), (2, 4, "E", 5, "a"),
             (3, 2, "D", 4, "a"), (3, 2, "D", 5, "1"), (2, 5, "D", 11, "a"),
             (4, 2, "D", 7, "a"), (4, 2, "D", 11, "1")]
    for q, m, kind, h, a in cases:
        c1 = build(q, m, kind, h, a)
        if c1.k == 0 or c1.q**c1.k > 1 << 16:
            continue
        c2 = build(q, m, kind, h, a)
        d_ex = minimum_distance(c1, DistanceConfig())
        d_mitm = minimum_distance(
            c2, DistanceConfig(isd_iterations=0, full_enum_limit=1))
        assert d_mitm.exact and d_ex.value == d_mitm.value, (q, m, kind, h, a)
        assert bch_lower_bound(c1) <= d_ex.value


def test_mitm_witness_is_verified_codeword():
    c = build(2, 7, "D", 5, "0")  # [127,119,4], BCH bound 2
    d = minimum_distance(c, DistanceConfig())
    assert d.exact and d.value == 4
    assert d.witness is not None
    vec = np.array(d.witness, dtype=np.uint8)
    assert int(np.count_nonzero(vec)) == 4
    assert c.contains(vec)


def test_parity_check_constructions_agree():
    F = REG.field(2, 3)
    for c in [build(2, 4, "D", 3, "1"), build(3, 2, "D", 2, "alpha"),
              build(4, 2, "D", 3, "a"), build(9, 1, "D", 2, "1"),
              CyclicCode(F, Poly.one(F))]:  # k = n: no roots
        st = c.field.subfield_tables()
        h1 = _rref_codes(c.parity_check_matrix(), st)[0]
        h2 = _rref_codes(parity_matrix_from_roots(c), st)[0]
        assert np.array_equal(h1, h2)


def test_hard_rows_resolve_exactly(monkeypatch):
    # BCH-tight rows certified by witness search alone
    reduced = []

    def counted(M, st):  # M: the permuted parity-check matrix
        reduced.append(M.tobytes())
        return _rref_codes(M, st)

    monkeypatch.setattr(cyclic, "_rref_codes", counted)
    c = build(5, 3, "D", 11, "1")  # row D7/14
    d = minimum_distance(c, DistanceConfig())
    assert (c.n, c.k, d.value, d.exact) == (124, 96, 13, True)
    assert d.method == "bch+witness"
    assert bch_lower_bound(c) == 13
    # the quick pass stalls above 13 after 2 sets and MITM level 13 is
    # infeasible; the rescue resumes the quick pass, and its collision
    # step reaches 13 in the first resumed set (rows and pairs alone
    # reached it at set 48), without drawing a set again
    assert len(reduced) == 3 and len(set(reduced)) == len(reduced)
    word = np.array(d.witness, dtype=np.uint8)
    assert np.count_nonzero(word) == 13 and c.contains(word)


def test_distance_unresolved_reports_bound():
    # with all search stages disabled the engine must not overclaim
    c = build(2, 7, "D", 5, "0")
    d = minimum_distance(c, DistanceConfig(isd_iterations=0, w_max=3,
                                           full_enum_limit=1))
    assert not d.exact
    assert d.method == "bch-only"
    assert d.value == 4  # weights 2..3 ruled out by completed sweeps


def small_cyclic_codes(cap):
    """Cyclic codes whose generators are seeded random products of the
    q-cyclotomic factors of x^n - 1, with q^k and q^(n-k) both <= cap."""
    rng = random.Random(1206)
    for q, m in [(2, 3), (2, 4), (3, 2), (4, 2), (5, 1), (7, 1), (8, 1),
                 (9, 1)]:
        F = REG.field(q, m)
        factors = [g for _, g in factor_xn_minus_1(F.n, F)]
        masks = list(range(1, (1 << len(factors)) - 1))
        rng.shuffle(masks)
        picked = 0
        for mask in masks:
            g = Poly.one(F)
            for i, f in enumerate(factors):
                if mask >> i & 1:
                    g = g * f
            k = F.n - g.degree
            if q**k <= cap and q**(F.n - k) <= cap:
                yield CyclicCode(F, g.monic())
                picked += 1
            if picked == 6:
                break


def krawtchouk(j, i, n, q):
    return sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s)
               * math.comb(n - i, j - s) for s in range(j + 1))


def test_weight_distribution_satisfies_macwilliams():
    seen_q = set()
    for c in small_cyclic_codes(1 << 16):
        dual = CyclicCode(c.field, Poly(c.field, reversed(c.h.coeffs)).monic())
        assert dual.k == c.n - c.k
        A = weight_distribution(c)
        B = weight_distribution(dual)
        for j in range(c.n + 1):
            lhs = c.q**c.k * B.get(j, 0)
            rhs = sum(a * krawtchouk(j, i, c.n, c.q) for i, a in A.items())
            assert lhs == rhs, (c.q, c.n, c.k, j)
        seen_q.add(c.q)
    assert seen_q == {2, 3, 4, 5, 7, 8, 9}


def test_exhaustive_witness_is_smallest_minimum_weight_codeword():
    checked = 0
    for c in small_cyclic_codes(1 << 10):
        st = c.field.subfield_tables()
        best = None
        for msg in itertools.product(range(c.q), repeat=c.k):
            if not any(msg):
                continue
            cw = Poly(c.field, [int(st.code_to_log[x]) for x in msg]) * c.g
            codes = st.codes_of_logs(cw.coeffs).tolist()
            codes += [0] * (c.n - len(codes))
            key = (c.n - codes.count(0), tuple(codes))
            best = key if best is None else min(best, key)
        assert _enumerated(c) == best, (c.q, c.n, c.k)
        d = minimum_distance(c)
        assert (d.value, d.witness) == best, (c.q, c.n, c.k)
        checked += 1
    assert checked >= 20


def test_full_code_witness_matches_enumeration():
    for q, m in [(2, 3), (3, 2)]:
        F = REG.field(q, m)
        full = CyclicCode(F, Poly.one(F))
        d = minimum_distance(full)
        assert (d.value, d.witness) == _enumerated(full)


def _colex(n, w):
    """The size-w supports of range(n) in colex order: by their largest
    position, then their next largest, and so on."""
    return sorted(itertools.combinations(range(n), w),
                  key=lambda s: s[::-1])


@pytest.mark.parametrize("n, w", [(1, 1), (5, 0), (5, 2), (7, 3), (9, 4),
                                  (12, 6), (6, 6)])
def test_colex_unrank_matches_itertools(n, w):
    ref = _colex(n, w)
    got = _colex_unrank(np.arange(len(ref)), n, w)
    assert got.shape == (len(ref), w)
    assert list(map(tuple, got.tolist())) == ref


def test_colex_unrank_past_int16():
    n = 40000
    assert _colex_unrank(np.array([n - 1]), n, 1).tolist() == [[39999]]
    # rank of {x < y} is C(y, 2) + C(x, 1)
    ranks = np.array([0, math.comb(39000, 2) + 123, math.comb(n, 2) - 1])
    assert _colex_unrank(ranks, n, 2).tolist() == [
        [0, 1], [123, 39000], [39998, 39999]]
    assert _colex_unrank(np.array([math.comb(n, 3) - 1]), n, 3).tolist() == [
        [39997, 39998, 39999]]


@pytest.mark.parametrize("q", (2, 3, 9))
def test_coeff_digits_follow_product_order(q):
    for w in range(4):
        ref = list(itertools.product(range(1, q), repeat=w))
        got = _coeff_digits(np.arange(len(ref)), q, w)
        assert got.dtype == np.uint8 and got.shape == (len(ref), w)
        assert list(map(tuple, got.tolist())) == ref


DIFF_QS = (2, 3, 4, 5, 7, 8, 9)


@hst.composite
def random_cyclic_codes(draw, max_n=31, max_size=1 << 12, qs=DIFF_QS):
    """Cyclic codes over GF(q), q in qs, 3 <= n <= max_n, whose roots are a
    random union of q-cyclotomic cosets: the non-roots are a random prefix
    of a shuffled coset list, cut to q^k <= max_size (None: no cut)."""
    fields = [(q, m) for q, m in REG.pairs()
              if q in qs and 3 <= q**m - 1 <= max_n]
    q, m = draw(hst.sampled_from(fields))
    F = REG.field(q, m)
    factors = [g for _, g in factor_xn_minus_1(F.n, F)]
    order = draw(hst.permutations(range(len(factors))))
    take = draw(hst.integers(1, len(factors)))
    free, k = set(), 0
    for i in order[:take]:
        if max_size is None or q ** (k + factors[i].degree) <= max_size:
            free.add(i)
            k += factors[i].degree
    g = Poly.one(F)
    for i, f in enumerate(factors):
        if i not in free:
            g = g * f
    return CyclicCode(F, g.monic())


def _non_reversible(q, m, g_ints):
    F = REG.field(q, m)
    g = Poly.from_ints(F, g_ints)
    assert Poly(F, reversed(g.coeffs)).monic() != g
    return CyclicCode(F, g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), code=random_cyclic_codes())
def test_contains_says_no_to_non_codewords(data, code):
    F, st, n = code.field, code.field.subfield_tables(), code.n
    symbols = hst.integers(0, code.q - 1)

    def draw_word(length):
        return np.array(data.draw(hst.lists(symbols, min_size=length,
                                            max_size=length)), dtype=np.uint8)

    def as_poly(codes):
        return Poly(F, st.code_to_log[codes].tolist())

    # m(x) g(x) as a Poly product, independent of the code-array kernels
    cw = as_poly(draw_word(code.k)) * code.g
    word = np.zeros(n, dtype=np.uint8)
    word[: len(cw.coeffs)] = st.codes_of_logs(cw.coeffs)
    assert code.contains(word)
    if code.k < n:
        bad = word.copy()
        pos = data.draw(hst.integers(0, n - 1))
        bad[pos] = st.add[bad[pos], data.draw(hst.integers(1, code.q - 1))]
        assert not code.contains(bad)
    rand = draw_word(n)
    assert code.contains(rand) == (as_poly(rand) % code.g).is_zero()
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError):
            code.contains(np.zeros(length, dtype=np.uint8))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
@example(_non_reversible(2, 3, [1, 1, 0, 1]))  # x^3 + x + 1
@example(_non_reversible(3, 2, [2, 1, 1]))  # x^2 + x + 2
def test_mitm_matches_exhaustive_on_random_cyclic_codes(code):
    _check_mitm_matches_exhaustive(code)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
def test_mitm_join_in_small_chunks_matches_exhaustive(code):
    # 24-key chunks, so that side A, side B and the bloom build span
    # several chunks on all but the smallest levels
    with mock.patch.object(cyclic, "MITM_CHUNK", 24):
        _check_mitm_matches_exhaustive(code)


def _check_mitm_matches_exhaustive(code):
    exh = _enumerated(code)
    d = minimum_distance(code)
    assert (d.value, d.witness) == exh
    cfg = DistanceConfig(isd_iterations=0, full_enum_limit=1, w_max=code.n,
                         mitm_side_limit=1 << 18)
    mitm = minimum_distance(code, cfg)
    assert mitm.certified_lower <= exh[0]
    if mitm.exact:
        assert (mitm.value, mitm.witness) == exh
    if all(max(_mitm_sides(code.n, code.q, w)) <= cfg.mitm_side_limit
           for w in range(mitm.bch_bound, exh[0] + 1)):
        assert mitm.exact


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
def test_minimum_words_shift_into_the_mitm_window(code):
    # the split's positions 1.._mitm_span(n, w) reach a shift and multiple
    # of every minimum-weight codeword
    st = code.field.subfield_tables()
    words = np.concatenate(list(codeword_blocks(code)))
    weights = np.count_nonzero(words, axis=1)
    w = int(weights[weights > 0].min())
    span = _mitm_span(code.n, w)
    for word in words[weights == w]:
        pinned = []
        for s in np.flatnonzero(word):
            shifted = np.roll(word, -s)  # coordinate s moves to 0
            pinned.append(st.mul[st.inv[shifted[0]], shifted])
        assert any(c[0] == 1 and not c[span + 1 :].any() for c in pinned)


def _divisor_code(q, m, cofactor):
    """The cyclic code whose parity polynomial is the given factor of
    x^n - 1 (coefficients from the constant term up): k = its degree."""
    F = REG.field(q, m)
    return CyclicCode(F, Poly.xn_minus_1(F, F.n) // Poly.from_ints(F, cofactor))


def _full_code(q, m):
    F = REG.field(q, m)
    return CyclicCode(F, Poly.one(F))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
@example(_divisor_code(2, 3, [-1, 1]))  # k = 1: the repetition code
@example(_divisor_code(4, 2, [-1, 1]))
@example(_divisor_code(3, 2, [-1, 0, 1]))  # k = 2
@example(_divisor_code(7, 1, [-1, 0, 1]))
@example(_full_code(2, 3))  # k = n
@example(_full_code(5, 1))
def test_pinned_enumeration_matches_full_walk(code):
    st = code.field.subfield_tables()
    words = np.concatenate(list(codeword_blocks(code)))
    assert len(words) == code.q**code.k
    weights = np.count_nonzero(words, axis=1)
    w = int(weights[weights > 0].min())
    hits = words[weights == w]
    smallest = tuple(int(x) for x in hits[np.lexsort(hits.T[::-1])[0]])
    assert _enumerated(code) == (w, smallest)

    pinned = np.concatenate(list(_pinned_blocks(code)))
    assert len(pinned) == code.q ** max(code.k - 2, 0)
    assert (pinned[:, 0] == 1).all()
    if code.k >= 2:
        assert not pinned[:, -1].any()
    assert all(code.contains(word) for word in pinned[:64])

    # the weight enumerator counts q^k words, and the code is cyclic
    distribution = weight_distribution(code)
    assert sum(distribution.values()) == code.q**code.k
    as_bytes = {word.tobytes() for word in words}
    assert len(as_bytes) == len(words)
    assert all(word.tobytes() in as_bytes
               for word in np.roll(words, 1, axis=1))

    # a low table of q words: the outer table spans the other rows, and
    # holds words with more than one nonzero digit once k >= 3
    with mock.patch.object(cyclic, "_SPAN_ROWS", code.q):
        small = list(codeword_blocks(code))
        assert sum(len(block) for block in small) == code.q**code.k
        assert {word.tobytes() for block in small for word in block} \
            == as_bytes
        assert _enumerated(code) == (w, smallest)
        assert weight_distribution(code) == distribution


def _reference_keys(H, st, pos, coeffs, negate):
    """Packed keys of sum_s coeffs[s] * H[:, pos[s]], one support at a
    time: GF(p) digits summed mod p, then packed into lanes of
    ceil(log2(2p - 1)) bits (one for p = 2), 64 // b of them to a word."""
    b = 1 if st.p == 2 else math.ceil(math.log2(2 * st.p - 1))
    assert b == _lane_bits(st.p)
    lanes = 64 // b
    digits = np.zeros((H.shape[0], st.t), dtype=np.int64)
    for j, c in zip(pos, coeffs):
        digits += st.digits[st.mul[c, H[:, j]]]
    digits %= st.p
    if negate:
        digits = (st.p - digits) % st.p
    flat = digits.reshape(-1).tolist()
    words = [0] * -(-len(flat) // lanes)
    for i, digit in enumerate(flat):
        words[i // lanes] |= digit << (b * (i % lanes))
    return words


@pytest.mark.parametrize("words", (1, 2, 3))
@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), seed=hst.integers(0, 2**32 - 1))
def test_side_keys_match_digitwise_reference(q, words, data, seed):
    m = min(m for p, m in REG.pairs() if p == q)
    st = REG.field(q, m).subfield_tables()
    lanes = 64 // _lane_bits(st.p)
    # R * t digits that need exactly `words` words
    R = data.draw(hst.integers((words - 1) * lanes // st.t + 1,
                               words * lanes // st.t))
    n = data.draw(hst.integers(1, 12))
    w = data.draw(hst.integers(1, min(n, 4)))
    rng = np.random.default_rng(seed)
    H = rng.integers(0, q, (R, n)).astype(np.uint8)
    pos = np.array([np.sort(rng.choice(n, w, replace=False))
                    for _ in range(3)], dtype=np.int16)
    coeffs = rng.integers(1, q, (4, w)).astype(np.uint8)
    table = _key_table(H, st)
    assert table.shape == (n, q, words) and table.dtype == np.uint64
    for negate in (False, True):  # side B, side A
        cf = st.neg[coeffs] if negate else coeffs
        grid = _side_keys(table, pos[:, None], cf[None], st.p)
        assert grid.shape == (3, 4, words)
        for i, j in itertools.product(range(3), range(4)):
            ref = _reference_keys(H, st, pos[i], coeffs[j], negate)
            assert grid[i, j].tolist() == ref
        # one support per coefficient row, as the match confirmation uses
        pairs = _side_keys(table, pos[[0, 1, 2, 0]], cf, st.p)
        assert np.array_equal(pairs, grid[[0, 1, 2, 0], [0, 1, 2, 3]])


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), seed=hst.integers(0, 2**32 - 1))
def test_nested_keys_match_side_keys(q, data, seed):
    m = min(m for p, m in REG.pairs() if p == q)
    st = REG.field(q, m).subfield_tables()
    # at most 3000 keys a side
    w = data.draw(hst.sampled_from([w for w in range(1, 5)
                                    if (q - 1)**w <= 3000]), label="w")
    spans = [s for s in range(w, 13) if math.comb(s, w) * (q - 1)**w <= 3000]
    span = data.draw(hst.sampled_from(spans), label="span")
    # one row a block splits every position's run of rows
    chunk = data.draw(hst.sampled_from([1, 7, cyclic.MITM_CHUNK]))
    rng = np.random.default_rng(seed)
    H = rng.integers(0, q, (data.draw(hst.integers(1, 6)), span + 1))
    table = _key_table(H.astype(np.uint8), st)
    pos = np.array(_colex(span, w), dtype=np.int64).reshape(-1, w) + 1
    coeffs = _coeff_digits(np.arange((q - 1)**w), q, w)
    B = _side_keys(table, pos[:, None], coeffs[None], st.p)[..., 0]
    # side A: position 0 pinned to coefficient 1, then w more, negated
    pos_a = np.hstack([np.zeros((len(pos), 1), dtype=np.int64), pos])
    coeffs_a = np.hstack([np.ones((len(coeffs), 1), dtype=np.uint8), coeffs])
    A = _side_keys(table, pos_a[:, None], st.neg[coeffs_a][None], st.p)[..., 0]
    sides = [(table[:, :, 0], np.uint64(0), B),
             (table[:, st.neg, 0], table[0, st.neg[1], 0], A)]
    with mock.patch.object(cyclic, "MITM_CHUNK", chunk):
        for table0, base, ref in sides:
            blocks = list(_nested_keys(table0, base, w, span, st.p))
            starts = [lo for lo, _ in blocks]
            sizes = [len(keys) for _, keys in blocks]
            assert starts == [0] + list(itertools.accumulate(sizes))[:-1]
            assert max(sizes) <= max(chunk, q - 1)
            got = np.concatenate([keys for _, keys in blocks])
            assert got.tolist() == ref.reshape(-1).tolist()
    # no positions: the base alone
    assert [keys.tolist() for _, keys in _nested_keys(
        table[:, :, 0], table[0, 1, 0], 0, span, st.p)] == [[table[0, 1, 0]]]


@pytest.mark.parametrize("q", DIFF_QS)
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_nested_keys_in_level_buffers_match_new_arrays(q, chunk):
    # with the block byte constant at 1 every block counts as past the
    # mmap threshold, so each is built run by run into the level's rows
    # (reused: copied before the next); they equal the new-array blocks
    m = min(m for p, m in REG.pairs() if p == q)
    st = REG.field(q, m).subfield_tables()
    H = np.random.default_rng(q).integers(0, q, (4, 10)).astype(np.uint8)
    table = _key_table(H, st)
    bufs = np.empty((3, max(chunk, q - 1)), dtype=np.uint64)
    for w in (1, 2, 3):
        for table0, base in [(table[:, :, 0], np.uint64(0)),
                             (table[:, st.neg, 0], table[0, st.neg[1], 0])]:
            with mock.patch.object(cyclic, "MITM_CHUNK", chunk):
                ref = [(lo, keys.tolist()) for lo, keys
                       in _nested_keys(table0, base, w, 9, st.p)]
                with mock.patch.object(cyclic, "_BLOCK_BYTES", 1):
                    got = [(lo, keys.tolist()) for lo, keys
                           in _nested_keys(table0, base, w, 9, st.p, bufs)]
            assert got == ref


def test_wide_syndrome_keeps_mitm_exact():
    # 11 check rows of 2 GF(3) digits: 22 digits, two words of 21 lanes
    code = build(9, 2, "D", 7, "0")
    assert (code.n, code.k) == (80, 69)
    assert _key_table(code.parity_check_matrix(),
                      code.field.subfield_tables()).shape[2] == 2
    d = minimum_distance(code)
    assert (d.value, d.exact, d.method, d.certified_lower) == (
        6, True, "mitm+witness", 6)
    vec = np.array(d.witness, dtype=np.uint8)
    assert np.count_nonzero(vec) == 6 and code.contains(vec)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes(max_n=80, max_size=None))
def test_root_exponents_match_per_exponent_evaluation(code):
    per_exponent = [i for i in range(code.n) if code.g(i) == ZERO]
    assert list(code.zeros) == per_exponent


def test_each_code_sums_g_once_at_the_coset_leaders(monkeypatch):
    code = build(3, 3, "D", 4, "0")
    calls = []
    sums = VecTables.power_sums

    def counting(self, points, *args, **kwargs):
        calls.append(points)
        return sums(self, points, *args, **kwargs)

    monkeypatch.setattr(VecTables, "power_sums", counting)
    again = CyclicCode(code.field, code.g, h=code.h)
    (points,) = calls
    assert points.tolist() == coset_table(code.n, code.q).leaders.tolist()
    assert again.zeros == code.zeros
    # the BCH bound and the root-evaluation parity rows read the zeros
    assert bch_lower_bound(again) == bch_lower_bound(code)
    parity_matrix_from_roots(again)
    assert len(calls) == 1


def test_distance_config_is_frozen_and_always_checked():
    cfg = DistanceConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.w_max = 0
    with pytest.raises(ValueError, match="w_max"):
        dataclasses.replace(cfg, w_max=0)
    assert cfg == DistanceConfig()


def test_isd_rank_loss_is_an_internal_error(monkeypatch):
    def lossy(M, st):
        R, pivots = _rref_codes(M, st)
        return R[:-1], pivots[:-1]

    monkeypatch.setattr(cyclic, "_rref_codes", lossy)
    code = build(2, 5, "D", 3, "1")
    assert code.n - code.k < code.k
    with pytest.raises(InternalError, match="information set"):
        _WitnessSearch(code, DistanceConfig()).run(1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
def test_bch_bound_le_distance_le_witness_weight(code):
    lb = bch_lower_bound(code)
    exh = _enumerated(code)
    d = minimum_distance(code)
    assert (d.value, d.witness) == exh and d.bch_bound == lb
    weight, witness = _WitnessSearch(code, DistanceConfig()).run(
        lb, stall=ISD_STALL)
    assert lb <= exh[0] <= weight
    vec = np.array(witness, dtype=np.uint8)
    assert np.count_nonzero(vec) == weight and code.contains(vec)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes(max_n=80, max_size=None).filter(
           lambda c: c.n - c.k < c.k < c.n))
@example(build(5, 3, "D", 11, "1"))  # row D7/14: the quick pass stalls
def test_resumed_witness_search_continues_the_fresh_stream(code):
    # the resumed pass adds a collision step to each set, so its word may
    # be lighter than a fresh search's; what must hold is the RNG stream:
    # the quick and resumed passes reduce, once each, the sets a fresh
    # search draws first, and the step itself draws nothing
    cfg = DistanceConfig(isd_iterations=30)
    lb = bch_lower_bound(code)
    rng = _WitnessSearch(code, cfg).rng
    H = code.parity_check_matrix()
    stream = [H[:, rng.permutation(code.n)[::-1]].tobytes()
              for _ in range(cfg.isd_iterations)]
    reduced = []

    def recording(M, st):
        reduced.append(M.tobytes())
        return _rref_codes(M, st)

    def quick_then_resumed(c):
        search = _WitnessSearch(code, cfg)
        reduced.clear()
        with mock.patch.object(cyclic, "_rref_codes", recording):
            quick = search.run(lb, stall=ISD_STALL)
            quick_sets = search.sets
            again = search.run(c)
        return quick, quick_sets, again, search.sets, list(reduced)

    reach = _WitnessSearch(code, cfg).run(lb)[0]  # best of the whole budget
    lo = max(lb, reach - 1)
    for c in range(lo, reach + 2):
        quick, quick_sets, again, sets, drawn = quick_then_resumed(c)
        assert drawn == stream[:sets]  # no set drawn twice or skipped
        if quick[0] <= c:
            # already done: no further set is drawn
            assert (again, sets) == (quick, quick_sets)
            continue
        assert sets > quick_sets and again[0] <= quick[0]
        if c > lo:  # a pass that resumes to c resumes to lo too
            continue
        twin = quick_then_resumed(c)
        assert (twin[2][0], twin[3], twin[4]) == (again[0], sets, drawn)
        assert np.array_equal(twin[2][1], again[1])
        # without the step the resumed pass is a fresh full run
        with mock.patch.object(cyclic, "_collisions", lambda *a: None):
            plain = _WitnessSearch(code, cfg)
            plain.run(lb, stall=ISD_STALL)
            plain_again = plain.run(c)
            fresh = _WitnessSearch(code, cfg)
            weight, word = fresh.run(c)
        assert plain_again[0] == weight and plain.sets == fresh.sets
        assert np.array_equal(plain_again[1], word)


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=hst.integers(1, 12), L=hst.integers(0, 140),
       seed=hst.integers(0, 2**32 - 1), rows=hst.integers(1, 12))
@example(k=1, L=1, seed=0, rows=1)  # no pair
@example(k=1, L=7, seed=1, rows=12)
@example(k=2, L=3, seed=2, rows=1)  # one pair each way, two blocks
@example(k=2, L=0, seed=3, rows=12)  # no check columns: every pair ties
@example(k=6, L=1, seed=2, rows=12)
@example(k=8, L=2, seed=7, rows=1)  # ties in every block
@example(k=8, L=2, seed=7, rows=3)  # and across uneven blocks
@example(k=5, L=64, seed=3, rows=2)  # bit planes of one 64-bit word, full
@example(k=5, L=65, seed=4, rows=3)  # two words
@example(k=7, L=128, seed=5, rows=4)
@example(k=7, L=129, seed=6, rows=12)  # three words
def test_pair_weights_match_table_count(q, k, L, seed, rows):
    # the first lightest R[i] + c * R[j], i != j, in (c, i, j) order, by
    # brute force, with the kernel's blocks cut to ``rows`` rows i, so
    # that tied pairs fall in different blocks
    m = min(m for p, m in REG.pairs() if p == q)
    st = REG.field(q, m).subfield_tables()
    P = np.random.default_rng(seed).integers(0, q, (k, L)).astype(np.uint8)
    ref = (L + 3, 1, 0, 0)  # k = 1: no pair, above every word
    for c in range(1, q):
        comb = st.add[P[:, None, :], st.mul[c, P][None, :, :]]
        for (i, j), w in np.ndenumerate(np.count_nonzero(comb, axis=2) + 2):
            if i != j and w < ref[0]:
                ref = (int(w), c, i, j)
    block = rows * (q - 1) * k * max(1, -(-L // 64)) * 8  # rows' XOR bytes
    with mock.patch.object(cyclic, "_BLOCK_BYTES", block):
        assert _pair_weights(P, st) == ref


def _binary_31(*, high_rate):
    """The [31, 26] binary cyclic code of x^5 + x^2 + 1, or its [31, 5]
    dual-rate partner generated by (x^31 - 1) / (x^5 + x^2 + 1)."""
    F = REG.field(2, 5)
    g = Poly.from_ints(F, [1, 0, 1, 0, 0, 1])
    if not high_rate:
        g = (Poly.xn_minus_1(F, 31) // g).monic()
    return CyclicCode(F, g)


def _check_witness_draw(code, seed=None, collide=False):
    # reference: the generator reduced on the same permutation, its single
    # rows, then every R[i] + c * R[j] in (c, i, j) order, each counted
    # directly; a word replaces the best only when it is strictly
    # lighter, so among equal pairs the first one stays.  The draw itself
    # reduces the parity-check matrix, so agreeing with the reference
    # also checks that reduction against the generator's.  Without a seed
    # the search keeps the RNG it seeds from the code.  With ``collide``
    # the 2 + 2 words of the collision step follow (``_two_plus_two``).
    st = code.field.subfield_tables()
    search = _WitnessSearch(code, DistanceConfig())
    if seed is not None:
        search.rng = np.random.default_rng(seed)
    rng = np.random.default_rng()
    rng.bit_generator.state = search.rng.bit_generator.state
    perm = rng.permutation(code.n)
    collisions, steps = cyclic._collisions, []

    def step(*args):  # the collision step, its result kept
        steps.append(collisions(*args))
        return steps[-1]

    with mock.patch.object(cyclic, "_collisions", step):
        search._draw(st, 0, collide=collide)  # below every weight
    R, pivots = _rref_codes(code.generator_matrix()[:, perm], st)
    c = np.arange(1, code.q)[:, None, None, None]
    pairs = st.add[R[None, :, None], st.mul[c, R[None, None, :]]]
    best_w, best = code.n + 1, None
    for i, w in enumerate(np.count_nonzero(R, axis=1).tolist()):
        if w < best_w:
            best_w, best = w, R[i]
    weights = np.count_nonzero(pairs, axis=3)
    for (ci, i, j), w in np.ndenumerate(weights):
        if i != j and w < best_w:
            best_w, best = int(w), pairs[ci, i, j]
    if collide and best_w > 4:  # else no 2 + 2 word can be lighter
        (got,) = steps
        found = _check_collisions(got, R, pivots, st)
        if found is not None and found[0] < best_w:
            best_w, best = found
    else:
        assert steps == []
    out = np.zeros(code.n, dtype=np.uint8)
    out[perm] = best
    assert search.best_w == best_w and np.array_equal(search.best_c, out)


def _check_collisions(got, R, pivots, st):
    """Assert that the collision step's result ``got`` is the brute
    force's (``_two_plus_two``) on the systematic R, lighter than the
    set's rows and pairs or not; return the brute force's."""
    found = _two_plus_two(R, pivots, st)
    assert (got is None) == (found is None)
    if found is not None:
        word = np.zeros(R.shape[1], dtype=np.uint8)
        for i, c in got[1]:
            word = st.add[word, st.mul[c, R[i]]]
        assert got[0] == found[0] and np.array_equal(word, found[1])
    return found


def _two_plus_two(R, pivots, st):
    """Brute-force collision step: the first lightest of every
    R[i] + c R[j] + c' R[u] + c'' R[v], i < j < k // 2 <= u < v, in the
    order (i, j, c, u, v, c', c''), that is zero on the window, the last
    l check columns, with l = round(log_q |Y|) kept in 1..n - k - 1;
    (weight, word), or None for k < 4, n - k < 2 or no such word."""
    k, n = R.shape
    q, r = st.q, n - k
    if k < 4 or r < 2:
        return None
    h = k // 2
    ny = math.comb(k - h, 2) * (q - 1) ** 2
    ell = min(max(1, round(math.log(ny, q))), r - 1)
    window = np.setdiff1d(np.arange(n), pivots)[-ell:]
    scalars = range(1, q)
    xs = [st.add[R[i], st.mul[c, R[j]]]
          for i, j in itertools.combinations(range(h), 2) for c in scalars]
    ys = [st.add[st.mul[c, R[u]], st.mul[d, R[v]]]
          for u, v in itertools.combinations(range(h, k), 2)
          for c in scalars for d in scalars]
    words = st.add[np.array(xs)[:, None], np.array(ys)[None]]
    weights = np.count_nonzero(words, axis=2)
    weights[(words[:, :, window] != 0).any(axis=2)] = n + 1
    x, y = np.unravel_index(np.argmin(weights), weights.shape)
    if weights[x, y] > n:
        return None
    return int(weights[x, y]), words[x, y]


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), seed=hst.integers(0, 2**32 - 1))
def test_rref_via_parity_matches_generator_reduction(q, data, seed):
    code = data.draw(random_cyclic_codes(
        max_n=80, max_size=None, qs=(q,)).filter(lambda c: 2 <= c.k < c.n))
    _check_witness_draw(code, seed)


def test_rref_via_parity_on_both_rates():
    for high_rate in (True, False):  # [31, 26] and [31, 5]
        for seed in (1, 2, 3):
            _check_witness_draw(_binary_31(high_rate=high_rate), seed)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes(max_n=80, max_size=None).filter(
           lambda c: 2 <= c.k < c.n))
def test_witness_draw_takes_the_first_lightest_pair(code):
    _check_witness_draw(code)


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), seed=hst.integers(0, 2**32 - 1))
def test_resumed_draw_matches_brute_force(q, data, seed):
    # rows, pairs, then the collision step's 2 + 2 words (k <= 12)
    code = data.draw(random_cyclic_codes(
        max_n=80, max_size=q**12, qs=(q,)).filter(lambda c: c.k < c.n))
    _check_witness_draw(code, seed, collide=True)


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(k=hst.integers(1, 12), r=hst.integers(1, 14),
       seed=hst.integers(0, 2**32 - 1))
@example(k=3, r=6, seed=0)  # k < 4: skipped
@example(k=4, r=6, seed=1)  # one key a side
@example(k=12, r=3, seed=2)  # l clamped to n - k - 1
@example(k=12, r=1, seed=3)  # n - k < 2: skipped
def test_collision_step_matches_brute_force_on_any_block(q, k, r, seed):
    # A is any (n - k) x k block: the systematic R is I_k on the first k
    # columns and -A on the others, A's row 0 last, so the window, A's
    # first l rows, is R's last l columns
    m = min(m for p, m in REG.pairs() if p == q)
    st = REG.field(q, m).subfield_tables()
    A = np.random.default_rng(seed).integers(0, q, (r, k)).astype(np.uint8)
    R = np.concatenate([np.eye(k, dtype=np.uint8), st.neg[A[::-1].T]], 1)
    windows = []  # the rows of each window key table

    def key_table(M, st):
        windows.append(len(M))
        return _key_table(M, st)

    with mock.patch.object(cyclic, "_key_table", key_table):
        got = cyclic._collisions(A, st, DistanceConfig().mitm_side_limit)
    _check_collisions(got, R, range(k), st)
    if k < 4 or r < 2:
        assert windows == []
    else:
        ny = math.comb(k - k // 2, 2) * (q - 1) ** 2
        assert windows[0] == min(max(1, round(math.log(ny, q))), r - 1)


def test_collision_step_over_the_side_limit_is_skipped():
    # row D7/14: side Y holds C(48, 2) * 4^2 = 18,048 keys.  Over the
    # limit no key table is built (a build here would raise) and the
    # resumed pass is rows and pairs alone, which reach 13 at set 48
    code = build(5, 3, "D", 11, "1")
    lb = bch_lower_bound(code)

    def resumed(limit):
        search = _WitnessSearch(code, DistanceConfig(mitm_side_limit=limit))
        search.run(lb, stall=ISD_STALL)
        return search.run(lb), search.sets

    with mock.patch.object(cyclic, "_key_table", side_effect=MemoryError):
        (w, word), sets = resumed(18_047)
        with mock.patch.object(cyclic, "_collisions", lambda *a: None):
            (w0, word0), sets0 = resumed(18_047)
    assert (w, sets) == (w0, sets0) == (13, 48)
    assert np.array_equal(word, word0)
    (w, _), sets = resumed(18_048)  # at the limit the step runs
    assert (w, sets) == (13, 3)


def test_witness_draw_at_the_floor_scores_no_pairs(monkeypatch):
    calls = []

    def counting(P, st):
        calls.append(P.shape)
        return _pair_weights(P, st)

    monkeypatch.setattr(cyclic, "_pair_weights", counting)
    code = build(3, 3, "D", 2, "alpha^2")  # row D2/4: [26, 19, 5]_3
    lb = bch_lower_bound(code)
    search = _WitnessSearch(code, DistanceConfig())
    # a row of the first set already weighs the BCH bound
    assert search.run(lb, stall=ISD_STALL)[0] == lb == 5
    assert (search.sets, calls) == (1, [])
    d = minimum_distance(code, verify.table_distance_config("D2"))
    assert (d.value, d.method, d.witness) == (
        5, "bch+witness",
        (0,) * 11 + (1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2))
    assert calls == []
    # below the floor the same set scores its pairs
    _WitnessSearch(code, DistanceConfig()).run(lb - 1, stall=ISD_STALL)
    assert calls


def _levels_within_budget(code, lb, d):
    """Whether the MITM levels lb..d hold fewer keys in all than the
    q^max(k-2, 0) words the pinned walk visits."""
    keys = sum(sum(_mitm_sides(code.n, code.q, w)) for w in range(lb, d + 1))
    return keys < code.q ** max(code.k - 2, 0)


def _binary_15(*factors):
    """Binary cyclic code of length 15 generated by the product of the
    given factors of x^15 - 1 (coefficients from the constant term up)."""
    F = REG.field(2, 4)
    g = Poly.one(F)
    for f in factors:
        g = g * Poly.from_ints(F, f)
    return CyclicCode(F, g)


HAMMING = [1, 1, 0, 0, 1]  # x^4 + x + 1: the [15, 11, 3] Hamming code


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
@example(_binary_15(HAMMING))
@example(_binary_15(HAMMING, [1, 1, 1, 1, 1], [1, 1, 1]))  # [15, 5]
def test_high_rate_enumerable_codes_take_mitm(code):
    """Every code under the cap, of any rate, takes MITM exactly when the
    levels from its BCH bound to d fit the pinned walk's budget."""
    d = minimum_distance(code)
    exh = _enumerated(code)
    assert (d.value, d.witness, d.exact) == (*exh, True)
    assert d.certified_lower == d.value
    if code.k < code.n and _levels_within_budget(  # full codes: no search
            code, d.bch_bound, d.value):
        assert d.method == "mitm"
    else:
        assert d.method == "exhaustive"


@pytest.mark.parametrize("row, args, method", [
    ("D5/23", (3, 3, "D", 5, "alpha"), "mitm"),  # [26, 13, 8]_3
    ("D3/9", (4, 2, "D", 3, "alpha"), "exhaustive"),  # [15, 8, 6]_4
])
def test_table_rows_take_the_cheaper_engine(row, args, method):
    code = build(*args)
    d = minimum_distance(code)
    assert (d.method, d.value, d.witness) == (method, *_enumerated(code)), row
    assert _levels_within_budget(code, d.bch_bound, d.value) == (
        method == "mitm")


def test_first_level_over_budget_builds_no_parity_check(monkeypatch):
    code = _binary_15(HAMMING, [1, 1, 1, 1, 1], [1, 1, 1])
    assert (code.n, code.k, bch_lower_bound(code)) == (15, 5, 7)
    # level 7 alone holds 220 + 220 keys, past the 2^3 pinned words
    assert sum(_mitm_sides(15, 2, 7)) == 440

    def no_parity_check(self):
        raise AssertionError("built a parity-check matrix")

    monkeypatch.setattr(CyclicCode, "parity_check_matrix", no_parity_check)
    d = minimum_distance(code)
    assert (d.method, d.value, d.witness) == ("exhaustive",
                                              *_enumerated(code))


def test_each_distance_builds_at_most_one_parity_check(monkeypatch):
    # the witness search's H feeds the MITM sweep above the cap; below it
    # the sweep builds H only if it takes a level
    built, per_distance = [], []
    parity_check = CyclicCode.parity_check_matrix
    distance = verify.minimum_distance

    def counted(self):
        built.append(self)
        return parity_check(self)

    def one_distance(code, cfg=None):
        before = len(built)
        result = distance(code, cfg)
        per_distance.append(len(built) - before)
        return result

    monkeypatch.setattr(CyclicCode, "parity_check_matrix", counted)
    monkeypatch.setattr(verify, "minimum_distance", one_distance)
    errata = verify.load_errata()
    for table_id in verify.TABLE_IDS:
        for row in verify.load_table(table_id):
            verify.process_row(row, REG, errata)
    assert len(per_distance) == 141 and max(per_distance) == 1
    assert len(built) == 120


def test_distance_result_derives_exactness_and_certified_bound():
    exact = DistanceResult(5, "bch+witness", 5, witness=(1, 1, 1, 1, 1))
    assert (exact.exact, exact.certified_lower) == (True, 5)
    assert exact.describe() == "d = 5 [bch+witness]"
    bound = DistanceResult(3, "bch-only", 3)
    assert (bound.exact, bound.certified_lower, bound.witness) == (
        False, 3, None)
    assert bound.describe() == "d >= 3 [bch-only]"
    assert [f.name for f in dataclasses.fields(DistanceResult)] == [
        "value", "method", "bch_bound", "witness"]
    with pytest.raises(AttributeError):
        bound.exact = True


def test_mitm_sweep_stops_at_key_budget(monkeypatch):
    swept = []

    def empty_level(code, table, w):
        swept.append(w)
        return None

    monkeypatch.setattr(cyclic, "_mitm_level", empty_level)
    ham = _binary_15(HAMMING)
    assert (ham.n, ham.k, bch_lower_bound(ham)) == (15, 11, 3)
    d = minimum_distance(ham)
    assert (d.method, d.value, d.witness) == ("exhaustive",
                                              *_enumerated(ham))
    # levels 3..6 hold 10+10 + 11+55 + 66+66 + 66+220 = 504 keys; level 7
    # would bring 220+220 = 440 more, past the q^(k-2) = 512 pinned words
    assert swept == [3, 4, 5, 6]
    assert _levels_within_budget(ham, 3, 6)
    assert not _levels_within_budget(ham, 3, 7)


def _pinned_words(code, w):
    """Every codeword of weight w with c_0 = 1 and no position past
    ``_mitm_span(n, w)``, by enumeration: what one MITM level finds."""
    words = np.concatenate(list(codeword_blocks(code)))
    keep = ((np.count_nonzero(words, axis=1) == w) & (words[:, 0] == 1)
            & ~words[:, _mitm_span(code.n, w) + 1 :].any(axis=1))
    return sorted(map(tuple, words[keep].tolist()))


@pytest.mark.parametrize("q, m, g, w", [
    (2, 4, HAMMING, 7),  # [15, 11, 3]_2, 220 keys a side
    (3, 2, [1, 0, 1], 5),  # x^2 + 1: [8, 6, 2]_3, 60 keys a side
])
def test_mitm_level_returns_every_pair_of_a_repeated_key(
        monkeypatch, q, m, g, w):
    F = REG.field(q, m)
    code = CyclicCode(F, Poly.from_ints(F, g))
    monkeypatch.setattr(cyclic, "MITM_CHUNK", 8)
    assert min(_mitm_sides(code.n, q, w)) > 4 * cyclic.MITM_CHUNK
    table = _key_table(code.parity_check_matrix(), F.subfield_tables())
    words = cyclic._mitm_level(code, table, w)
    assert sorted(map(tuple, words.tolist())) == _pinned_words(code, w)
    # several words share their B half (all but the first ceil(w/2)
    # positions), so one B key matched several A entries of the same key
    halves = collections.Counter()
    for word in words:
        b = word.copy()
        b[np.flatnonzero(word)[: (w + 1) // 2]] = 0
        halves[b.tobytes()] += 1
    assert max(halves.values()) >= 3


def test_mitm_level_memory_stays_bounded():
    # row D7/11, [63, 47, 8]_4: level 7 holds 669,708 keys a side and,
    # as d = 8, finds nothing (the witness search supplies d's word)
    code = build(4, 3, "D", 11, "0")
    assert (code.n, code.k) == (63, 47)
    table = _key_table(code.parity_check_matrix(),
                       code.field.subfield_tables())
    tracemalloc.start()
    try:
        assert cyclic._mitm_level(code, table, 7) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


_WARM_FAULTS = """
import resource
from dickson_codes import cyclic, verify
from dickson_codes.dickson import DicksonSpec
from dickson_codes.galois import ZERO
from dickson_codes.lfsr import defining_sequence
from dickson_codes.registry import default_registry

def faults(run):  # minor page faults of a second, warm run
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

reg = default_registry()
F = reg.field(4, 3)
code = cyclic.code_from_sequence(defining_sequence(
    F, DicksonSpec(kind="D", h=11, a=F.parse_element("0"), offset=ZERO)))
table = cyclic._key_table(code.parity_check_matrix(), F.subfield_tables())
row = next(r for r in verify.load_table("D3") if r.index == 19)
errata = verify.load_errata()
print(faults(lambda: cyclic._mitm_level(code, table, 7)),
      faults(lambda: verify.process_row(row, reg, errata)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the bounds are those of glibc's allocator")
def test_warm_distance_kernels_take_few_page_faults():
    # At glibc's initial mmap threshold, which the benchmark pins, every
    # block of 128 KiB or more is mapped afresh and its pages faulted and
    # zeroed on each use.  Row D7/11's level 7 holds 5.4 MB of A's hashes
    # and a 2 MB filter (about 1,830 faults); with fresh block temporaries
    # it took about 18,450.  Row D3/19, [124, 117, 4]_5, scores row pairs,
    # which took about 1,300 faults unblocked.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072",
               PYTHONPATH=str(Path(cyclic.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _WARM_FAULTS], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    level, row = map(int, out.split())
    assert level < 4000
    assert row < 500


def _population_guard():
    """A few codes of the ``mitm`` benchmark population, read from its
    record: for each q, the code with the most keys below 2^12 and the one
    with the most candidate hits in [2^12, 2^15)."""
    root = Path(__file__).resolve().parents[1]
    with open(root / "perfbench" / "mitm_population.json",
              encoding="utf-8") as fh:
        codes = json.load(fh)["codes"]
    picks = []
    for q in sorted({c["q"] for c in codes}):
        band = [c for c in codes if c["q"] == q]
        low = [c for c in band if c["keys"] < 1 << 12]
        mid = [c for c in band if 1 << 12 <= c["keys"] < 1 << 15]
        picks.append(max(low, key=lambda c: (c["keys"], c["hits"])))
        if mid:
            picks.append(max(mid, key=lambda c: (c["hits"], c["keys"])))
    return picks


@pytest.mark.parametrize("entry", _population_guard(), ids=lambda e: (
    f"q{e['q']}-n{e['n']}-k{e['k']}-d{e['d']}"))
def test_mitm_population_codes_keep_their_distance(entry):
    F = REG.field(entry["q"], entry["m"])
    factors = {c.leader: g for c, g in factor_xn_minus_1(F.n, F)}
    g = Poly.one(F)
    for leader in entry["roots"]:
        g = g * factors[leader]
    code = CyclicCode(F, g.monic())
    assert (code.n, code.k) == (entry["n"], entry["k"])
    d = minimum_distance(code, DistanceConfig(isd_iterations=0,
                                              full_enum_limit=1))
    assert (d.exact, d.value) == (True, entry["d"])


def test_infeasible_mitm_level_falls_back_to_enumeration():
    # level 3 of the [15, 11] Hamming code has 10 keys a side
    ham = _binary_15(HAMMING)
    assert _mitm_sides(15, 2, 3) == (10, 10)
    assert minimum_distance(ham).method == "mitm"
    d = minimum_distance(ham, DistanceConfig(mitm_side_limit=9))
    assert (d.method, d.value, d.witness) == ("exhaustive",
                                              *_enumerated(ham))


def test_search_past_every_budget_ends_unresolved():
    ham = _binary_15(HAMMING)
    cfg = DistanceConfig(full_enum_limit=1, isd_iterations=0,
                         mitm_side_limit=9)
    d = minimum_distance(ham, cfg)
    assert (d.method, d.exact, d.value) == ("bch-only", False, 3)
    assert d.value == d.bch_bound == bch_lower_bound(ham)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes(max_n=80, max_size=None).filter(
           lambda c: c.k < c.n))
def test_witness_search_words_take_the_smallest_shift(code):
    # w_max = 1 takes no MITM level, so the witness is the search's word
    d = minimum_distance(code, DistanceConfig(full_enum_limit=1, w_max=1))
    assert d.method in ("bch+witness", "bch-only")
    st = code.field.subfield_tables()
    word = np.array(d.witness, dtype=np.uint8)
    forms = [tuple(st.mul[c, np.roll(word, s)].tolist())
             for s in range(code.n) for c in range(1, code.q)]
    assert d.witness == min(forms) and code.contains(word)


def test_smallest_shift_compares_across_chunks():
    # 4200 words of length 255 take two chunks; the one sparse word wins
    # from either chunk
    st = REG.field(4, 4).subfield_tables()
    rng = np.random.default_rng(7)
    dense = rng.integers(1, 4, (4200, 255)).astype(np.uint8)
    dense[:, :20] = 0
    sparse = np.zeros(255, dtype=np.uint8)
    sparse[[3, 40, 41, 200]] = [2, 3, 1, 2]
    best = min(tuple(st.mul[c, np.roll(sparse, s)].tolist())
               for s in range(255) for c in range(1, 4))
    for at in (0, 4150):
        words = dense.copy()
        words[at] = sparse
        assert _smallest_shift(words, st) == best


NOT_IN_HAMMING = np.array([1, 1, 1] + [0] * 12, dtype=np.uint8)  # 1 + x + x^2


@pytest.mark.parametrize("engine, owner, attr, fake, cfg", [
    ("exhaustive enumeration", None, "_exhaustive_distance",
     lambda code: (3, NOT_IN_HAMMING[None]),
     DistanceConfig(mitm_side_limit=9)),
    ("meet-in-the-middle", None, "_mitm_level",
     lambda code, table, w: NOT_IN_HAMMING[None], DistanceConfig()),
    ("witness search", _WitnessSearch, "run",
     lambda self, stop_at, stall=None: (3, NOT_IN_HAMMING),
     DistanceConfig(full_enum_limit=1)),
    # a word whose weight is not the one reported
    ("witness search", _WitnessSearch, "run",
     lambda self, stop_at, stall=None: (2, NOT_IN_HAMMING),
     DistanceConfig(full_enum_limit=1)),
])
def test_non_codeword_from_any_engine_is_an_internal_error(
        monkeypatch, engine, owner, attr, fake, cfg):
    ham = _binary_15(HAMMING)
    assert not ham.contains(NOT_IN_HAMMING)
    monkeypatch.setattr(owner or cyclic, attr, fake)
    with pytest.raises(InternalError,
                       match=f"{engine} produced a non-codeword"):
        minimum_distance(ham, cfg)
