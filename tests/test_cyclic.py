"""Cyclic code construction, BCH bound, distance engine, weights."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dickson_codes.cyclic import (DistanceConfig, _colex_array,
                                  _exhaustive_distance, _isd_witness,
                                  _mitm_sides, _MitmInfeasible,
                                  _pair_weights, _rref_codes, _rref_via_parity,
                                  bch_lower_bound,
                                  code_from_generator, code_from_sequence,
                                  codeword_blocks,
                                  even_like_subcode, minimum_distance,
                                  parity_matrix_from_roots, row_space_rref,
                                  weight_distribution)
from dickson_codes.dickson import DicksonSpec
from dickson_codes.galois import ZERO
from dickson_codes.lfsr import PeriodicSequence, defining_sequence
from dickson_codes.polyring import (Poly, factor_xn_minus_1,
                                    minimal_polynomial, reciprocal)
from dickson_codes.registry import default_registry

REG = default_registry()


def build(q, m, kind, h, a_expr, offset=None):
    F = REG.field(q, m)
    a = F.parse_element(a_expr)
    off = F.parse_element(offset) if offset else ZERO
    return code_from_sequence(
        defining_sequence(F, DicksonSpec(kind=kind, h=h, a=a, offset=off)))


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


def test_code_from_generator():
    f = REG.field(2, 3)
    full = code_from_generator(f, Poly.one(f))
    assert full.k == 7
    even = code_from_generator(f, Poly.from_ints(f, [-1, 1]))
    assert even.k == 6
    assert minimum_distance(even).value == 2
    zero_code = code_from_generator(f, Poly.xn_minus_1(f, 7))
    assert zero_code.k == 0
    with pytest.raises(ValueError):
        code_from_generator(f, Poly.from_ints(f, [1, 0, 1]))  # not a divisor
    with pytest.raises(ValueError):
        code_from_generator(f, Poly.from_ints(f, [1, 1]).scale(ZERO))


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
    c2 = code_from_generator(f32, g.monic())
    assert bch_lower_bound(c2) == 8
    # g = x - 1 -> bound 2
    c3 = code_from_generator(f32, Poly.from_ints(f32, [-1, 1]))
    assert bch_lower_bound(c3) == 2
    # g = 1 -> full space, bound 1
    assert bch_lower_bound(code_from_generator(f32, Poly.one(f32))) == 1


def test_minimum_distance_examples():
    d1 = minimum_distance(build(2, 3, "D", 2, "1"))
    assert (d1.value, d1.exact) == (4, True)
    d2 = minimum_distance(build(2, 4, "D", 3, "1"))
    assert (d2.value, d2.exact) == (5, True)
    # D_4(x,1), q=3, m=3: weight-2 codeword 2 + x^{(3^3-1)/2}
    c = build(3, 3, "D", 4, "1")
    d3 = minimum_distance(c)
    assert (c.n, c.k, d3.value) == (26, 20, 2)
    witness = np.zeros(26, dtype=np.int16)
    st = c.field.subfield_tables()
    witness[0] = st.scalar_code(2)
    witness[13] = st.scalar_code(1)
    assert c.contains(witness)


def test_minimum_distance_rejects_zero_code():
    f = REG.field(2, 3)
    zero_code = code_from_generator(f, Poly.xn_minus_1(f, 7))
    with pytest.raises(ValueError):
        minimum_distance(zero_code)


def test_weight_distribution_examples():
    c = build(2, 3, "D", 2, "1")
    assert weight_distribution(c) == {0: 1, 4: 7}
    f = REG.field(2, 2)
    full = code_from_generator(f, Poly.one(f))
    assert weight_distribution(full) == {0: 1, 1: 3, 2: 3, 3: 1}


def test_reciprocal_code_same_weight_distribution():
    # C and its reciprocal share the weight distribution (D_3, q=2, m=4, a=1)
    from dickson_codes.polyring import reciprocal

    c = build(2, 4, "D", 3, "1")
    rec = code_from_generator(c.field, reciprocal(c.g))
    assert weight_distribution(c) == weight_distribution(rec)


def test_even_like_subcode():
    f = REG.field(2, 3)
    ham = code_from_generator(f, Poly.from_ints(f, [1, 1, 0, 1]))
    assert minimum_distance(ham).value == 3
    sub = even_like_subcode(ham)
    assert (sub.n, sub.k) == (7, 3)
    assert minimum_distance(sub).value == 4
    assert even_like_subcode(sub) is sub  # idempotent
    # full space -> sum-zero code with d = 2
    full = code_from_generator(f, Poly.one(f))
    sums = even_like_subcode(full)
    assert sums.k == 6 and minimum_distance(sums).value == 2


def test_even_like_coordinate_sums_vanish():
    for c in [build(3, 2, "D", 2, "alpha"), build(4, 2, "D", 3, "a")]:
        sub = even_like_subcode(c)
        st = sub.field.subfield_tables()
        if sub.q**sub.k <= 1 << 12:
            for codes in codeword_blocks(sub):
                acc = np.zeros(len(codes), dtype=np.uint8)
                for j in range(sub.n):
                    acc = st.add[acc, codes[:, j]]
                assert not acc.any()


def test_even_like_random_codewords_big_code():
    # non-enumerable code: 1000 random codewords must all sum to zero
    import random

    c = build(2, 6, "D", 3, "a^3")
    sub = even_like_subcode(c)
    assert sub.q**sub.k > 1 << 22
    st = sub.field.subfield_tables()
    G = sub.generator_matrix()
    rng = random.Random(42)
    for _ in range(1000):
        cw = np.zeros(sub.n, dtype=np.uint8)
        for i in range(sub.k):
            m = rng.randrange(sub.q)
            if m:
                cw = st.add[cw, st.mul[m, G[i]]]
        acc = 0
        for j in range(sub.n):
            acc = st.add[acc, cw[j]]
        assert acc == 0


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
        assert d_even == minimum_distance(even_like_subcode(c)).value


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
    vec = np.array(d.witness, dtype=np.int16)
    assert int(np.count_nonzero(vec)) == 4
    assert c.contains(vec)


def test_parity_check_constructions_agree():
    for c in [build(2, 4, "D", 3, "1"), build(3, 2, "D", 2, "alpha"),
              build(4, 2, "D", 3, "a"), build(9, 1, "D", 2, "1")]:
        st = c.field.subfield_tables()
        h1 = row_space_rref(c.parity_check_matrix(), st)
        h2 = row_space_rref(parity_matrix_from_roots(c), st)
        assert np.array_equal(h1, h2)


def test_hard_rows_resolve_exactly():
    # BCH-tight rows certified by witness search alone
    c = build(5, 3, "D", 11, "1")
    d = minimum_distance(c, DistanceConfig())
    assert (c.n, c.k, d.value, d.exact) == (124, 96, 13, True)
    assert d.method == "bch+witness"
    assert bch_lower_bound(c) == 13


def test_distance_unresolved_reports_bound():
    # with all search stages disabled the engine must not overclaim
    c = build(2, 7, "D", 5, "0")
    d = minimum_distance(c, DistanceConfig(isd_iterations=0, w_max=3,
                                           full_enum_limit=1))
    assert not d.exact
    assert d.method == "bch-only"
    assert d.value == 4  # weights 2..3 ruled out by completed sweeps


def test_worker_count_does_not_change_results():
    from dickson_codes.verify import run_table

    r1 = run_table("E", workers=1)
    r2 = run_table("E", workers=3)
    assert [(r.status, r.computed_d) for r in r1.rows] \
        == [(r.status, r.computed_d) for r in r2.rows]


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
                yield code_from_generator(F, g.monic())
                picked += 1
            if picked == 6:
                break


def krawtchouk(j, i, n, q):
    return sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s)
               * math.comb(n - i, j - s) for s in range(j + 1))


def test_weight_distribution_satisfies_macwilliams():
    seen_q = set()
    for c in small_cyclic_codes(1 << 16):
        dual = code_from_generator(c.field, reciprocal(c.h))
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
            codes = [st.code_of_log(x) for x in cw.coeffs]
            codes += [0] * (c.n - len(codes))
            key = (c.n - codes.count(0), tuple(codes))
            best = key if best is None else min(best, key)
        assert _exhaustive_distance(c) == best, (c.q, c.n, c.k)
        d = minimum_distance(c)
        assert (d.value, d.witness) == best, (c.q, c.n, c.k)
        checked += 1
    assert checked >= 20


def test_full_code_witness_matches_enumeration():
    for q, m in [(2, 3), (3, 2)]:
        F = REG.field(q, m)
        full = code_from_generator(F, Poly.one(F))
        d = minimum_distance(full)
        assert (d.value, d.witness) == _exhaustive_distance(full)


def test_colex_positions_past_int16():
    assert _colex_array(40000, 1)[-1, 0] == 39999
    assert _colex_array(5, 2).tolist() == [
        [0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3],
        [0, 4], [1, 4], [2, 4], [3, 4]]


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
    return code_from_generator(F, g.monic())


def _non_reversible(q, m, g_ints):
    F = REG.field(q, m)
    g = Poly.from_ints(F, g_ints)
    assert reciprocal(g) != g
    return code_from_generator(F, g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
@example(_non_reversible(2, 3, [1, 1, 0, 1]))  # x^3 + x + 1
@example(_non_reversible(3, 2, [2, 1, 1]))  # x^2 + x + 2
def test_mitm_matches_exhaustive_on_random_cyclic_codes(code):
    exh = _exhaustive_distance(code)
    d = minimum_distance(code)
    assert (d.value, d.witness) == exh
    cfg = DistanceConfig(isd_iterations=0, full_enum_limit=1, w_max=code.n,
                         mitm_side_limit=1 << 18)
    mitm = minimum_distance(code, cfg)
    assert mitm.certified_lower <= exh[0]
    if mitm.exact:
        assert (mitm.value, mitm.witness) == exh


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes(max_n=80, max_size=None))
def test_root_exponents_match_per_exponent_evaluation(code):
    per_exponent = [i for i in range(code.n) if code.g(i) == ZERO]
    assert code.root_exponents() == per_exponent


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=hst.data(),
       seeds=hst.lists(hst.integers(0, 2**32 - 1), min_size=3, max_size=3))
def test_rref_via_parity_matches_generator_reduction(q, data, seeds):
    code = data.draw(random_cyclic_codes(max_n=80, max_size=None, qs=(q,)))
    _check_rref_via_parity(code, seeds)


def test_rref_via_parity_on_both_rates():
    F = REG.field(2, 5)
    g = Poly.from_ints(F, [1, 0, 1, 0, 0, 1])  # x^5 + x^2 + 1
    for gen in (g, Poly.xn_minus_1(F, 31) // g):  # [31, 26] and [31, 5]
        _check_rref_via_parity(code_from_generator(F, gen.monic()), [1, 2, 3])


def test_isd_rank_loss_is_an_internal_error(monkeypatch):
    from dickson_codes import cyclic

    def lossy(H, perm, st):
        R, pivots = _rref_via_parity(H, perm, st)
        return R[:-1], pivots[:-1]

    monkeypatch.setattr(cyclic, "_rref_via_parity", lossy)
    code = build(2, 5, "D", 3, "1")
    assert code.n - code.k < code.k
    with pytest.raises(AssertionError, match="information set"):
        _isd_witness(code, DistanceConfig(), stop_at=1)


def _check_rref_via_parity(code, seeds):
    st = code.field.subfield_tables()
    G, H = code.generator_matrix(), code.parity_check_matrix()
    for seed in seeds:
        perm = np.random.default_rng(seed).permutation(code.n)
        R, pivots = _rref_via_parity(H, perm, st)
        R_g, pivots_g = _rref_codes(G[:, perm], st)
        assert pivots == pivots_g
        assert R.dtype == R_g.dtype and np.array_equal(R, R_g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
def test_bch_bound_le_distance_le_witness_weight(code):
    lb = bch_lower_bound(code)
    exh = _exhaustive_distance(code)
    d = minimum_distance(code)
    assert (d.value, d.witness) == exh and d.bch_bound == lb
    cfg = DistanceConfig()
    weight, witness = _isd_witness(code, cfg, stop_at=lb, stall=cfg.isd_stall)
    assert lb <= exh[0] <= weight
    vec = np.array(witness, dtype=np.int16)
    assert np.count_nonzero(vec) == weight and code.contains(vec)


@pytest.mark.parametrize("q", DIFF_QS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=hst.integers(1, 12), L=hst.integers(0, 20),
       seed=hst.integers(0, 2**32 - 1))
@example(k=1, L=1, seed=0)
@example(k=1, L=7, seed=1)
@example(k=6, L=1, seed=2)
def test_pair_weights_match_table_count(q, k, L, seed):
    m = min(m for p, m in REG.pairs() if p == q)
    st = REG.field(q, m).subfield_tables()
    P = np.random.default_rng(seed).integers(0, q, (k, L)).astype(np.uint8)
    pws = _pair_weights(P, st)
    assert pws.shape == (q - 1, k, k)
    for c in range(1, q):
        comb = st.add[P[:, None, :], st.mul[c, P][None, :, :]]
        assert np.array_equal(pws[c - 1], np.count_nonzero(comb, axis=2) + 2)


def _levels_within_budget(code, lb, d):
    """Whether the MITM levels lb..d hold fewer keys in all than q^k."""
    keys = sum(sum(_mitm_sides(code.n, code.q, w)) for w in range(lb, d + 1))
    return keys < code.q**code.k


def _binary_15(*factors):
    """Binary cyclic code of length 15 generated by the product of the
    given factors of x^15 - 1 (coefficients from the constant term up)."""
    F = REG.field(2, 4)
    g = Poly.one(F)
    for f in factors:
        g = g * Poly.from_ints(F, f)
    return code_from_generator(F, g)


HAMMING = [1, 1, 0, 0, 1]  # x^4 + x + 1: the [15, 11, 3] Hamming code


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_cyclic_codes())
@example(_binary_15(HAMMING))
@example(_binary_15(HAMMING, [1, 1, 1, 1, 1], [1, 1, 1]))  # [15, 5]
def test_high_rate_enumerable_codes_take_mitm(code):
    d = minimum_distance(code)
    exh = _exhaustive_distance(code)
    assert (d.value, d.witness, d.exact) == (*exh, True)
    assert d.certified_lower == d.value
    high_rate = code.n - code.k < code.k < code.n  # full codes: no search
    if high_rate and _levels_within_budget(code, d.bch_bound, d.value):
        assert d.method == "mitm"
    else:
        assert d.method == "exhaustive"


def test_mitm_sweep_stops_at_key_budget(monkeypatch):
    from dickson_codes import cyclic

    swept = []

    def empty_level(code, H, w, cfg):
        swept.append(w)
        return None

    monkeypatch.setattr(cyclic, "_mitm_level", empty_level)
    ham = _binary_15(HAMMING)
    assert (ham.n, ham.k, bch_lower_bound(ham)) == (15, 11, 3)
    d = minimum_distance(ham)
    assert (d.method, d.value, d.witness) == ("exhaustive",
                                              *_exhaustive_distance(ham))
    # levels 3..7 hold 28 + 105 + 182 + 455 + 728 = 1498 keys; level 8
    # would bring 1365 more, past q^k = 2048
    assert swept == [3, 4, 5, 6, 7]
    assert _levels_within_budget(ham, 3, 7)
    assert not _levels_within_budget(ham, 3, 8)


def test_infeasible_mitm_level_falls_back_to_enumeration(monkeypatch):
    from dickson_codes import cyclic

    def infeasible(code, H, w, cfg):
        raise _MitmInfeasible("forced")

    ham = _binary_15(HAMMING)
    assert minimum_distance(ham).method == "mitm"
    monkeypatch.setattr(cyclic, "_mitm_level", infeasible)
    d = minimum_distance(ham)
    assert (d.method, d.value, d.witness) == ("exhaustive",
                                              *_exhaustive_distance(ham))
