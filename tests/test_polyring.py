"""Polynomial ring operations, cyclotomic cosets, minimal polynomials."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dickson_codes import _codes
from dickson_codes.galois import ZERO
from dickson_codes.polyring import (Poly, coset_table, cyclotomic_coset,
                                    factor_xn_minus_1, minimal_poly_product,
                                    minimal_polynomial)
from dickson_codes.registry import default_registry

REG = default_registry()


def test_gcd_example_gf2():
    f = REG.field(2, 3)
    a = Poly.from_ints(f, [1, 0, 1])     # x^2 + 1 = (x+1)^2
    b = Poly.from_ints(f, [1, 0, 0, 1])  # x^3 + 1
    assert a.gcd(b) == Poly.from_ints(f, [1, 1])


def test_product_example_gf3():
    f = REG.field(3, 2)
    prod = Poly.from_ints(f, [-1, 1]) * Poly.from_ints(f, [1, 1])
    assert prod == Poly.from_ints(f, [-1, 0, 1])


def test_gcd_zero_convention():
    f = REG.field(2, 3)
    x51 = Poly.xn_minus_1(f, 5)
    assert Poly.zero(f).gcd(x51) == x51.monic()


def test_divmod_properties():
    f = REG.field(5, 2)
    a = Poly.from_ints(f, [3, 1, 4, 1, 2])
    b = Poly.from_ints(f, [2, 0, 1])
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero(f))


def test_cross_field_operands_rejected():
    a = Poly.one(REG.field(2, 3))
    b = Poly.one(REG.field(2, 4))
    with pytest.raises(ValueError):
        a + b


def test_cyclotomic_coset_examples():
    assert cyclotomic_coset(7, 2, 1).members == (1, 2, 4)
    assert cyclotomic_coset(15, 2, 5).members == (5, 10)
    c0 = cyclotomic_coset(7, 2, 0)
    assert c0.members == (0,) and c0.size == 1
    with pytest.raises(ValueError):
        cyclotomic_coset(8, 2, 1)  # gcd(n, q) != 1


def test_coset_leaders_examples():
    assert coset_table(7, 2).leaders.tolist() == [0, 1, 3]
    assert coset_table(15, 2).leaders.tolist() == [0, 1, 3, 5, 7]
    assert coset_table(8, 3).leaders.tolist() == [0, 1, 2, 4, 5]
    assert cyclotomic_coset(8, 3, 4).members == (4,)
    assert set(cyclotomic_coset(8, 3, 5).members) == {5, 7}


def test_cosets_partition_all_registry_pairs():
    for q, m in REG.pairs():
        n = REG.field(q, m).n
        if n < 2:
            continue
        union = []
        for leader in coset_table(n, q).leaders.tolist():
            union.extend(cyclotomic_coset(n, q, leader).members)
        assert sorted(union) == list(range(n))


def test_coset_size_symmetry_and_divides_m():
    # l_i = l_{n-i}; sizes divide m (not n, despite the printed claim)
    for q, m in REG.pairs():
        n = REG.field(q, m).n
        if n < 2:
            continue
        for i in range(n):
            li = cyclotomic_coset(n, q, i).size
            assert li == cyclotomic_coset(n, q, (n - i) % n).size
            assert m % li == 0


def test_minimal_polynomial_examples():
    f = REG.field(2, 3)
    assert minimal_polynomial(f, f.alpha) == Poly.from_ints(f, [1, 1, 0, 1])
    assert minimal_polynomial(f, f.inv(f.alpha)) == Poly.from_ints(f, [1, 0, 1, 1])
    assert minimal_polynomial(f, f.one) == Poly.from_ints(f, [-1, 1])
    assert minimal_polynomial(f, ZERO) == Poly.x(f)


def _subfield_polys(field, degree):
    """All monic polynomials of the given degree over GF(q)."""
    logs = field.subfield_logs()
    for tail in itertools.product(logs, repeat=degree):
        yield Poly(field, tuple(tail) + (field.one,))


def _is_irreducible(poly):
    """Trial division for degree <= 4, distinct-degree test otherwise."""
    field = poly.field
    deg = poly.degree
    if deg <= 1:
        return deg == 1
    if deg <= 4:
        for d in range(1, deg // 2 + 1):
            for cand in _subfield_polys(field, d):
                if (poly % cand).is_zero():
                    return False
        return True
    # irreducible of degree e iff x^(q^e) = x mod poly and no root lies in
    # a proper subfield GF(q^d), d | e
    x = Poly.x(field)
    powers = {0: x % poly}
    for d in range(1, deg + 1):
        powers[d] = _powmod_q(powers[d - 1], field.q, poly)
    if powers[deg] != x % poly:
        return False
    for d in range(1, deg):
        if deg % d == 0 and (powers[d] - x).gcd(poly).degree > 0:
            return False
    return True


def _powmod_q(f, q, mod):
    result = Poly.one(f.field)
    base = f % mod
    e = q
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def test_minimal_polynomial_properties():
    for q, m in [(2, 4), (3, 2), (4, 2), (5, 2), (8, 2), (9, 2), (2, 6)]:
        f = REG.field(q, m)
        for a in list(f.elements())[1:]:
            mp = minimal_polynomial(f, a)
            assert mp.is_monic()
            assert mp.in_subfield()
            assert mp(a) == ZERO
            assert _is_irreducible(mp), (q, m, a)


def test_factorization_examples():
    f8 = REG.field(2, 3)
    factors = factor_xn_minus_1(7, f8)
    assert [p.degree for _, p in factors] == [1, 3, 3]
    f16 = REG.field(4, 1)
    assert [p.degree for _, p in factor_xn_minus_1(3, f16)] == [1, 1, 1]
    f9 = REG.field(3, 2)
    assert [p.degree for _, p in factor_xn_minus_1(8, f9)] == [1, 2, 2, 1, 2]


def test_factorization_reconstructs_and_factors_coprime():
    for q, m in [(2, 4), (3, 2), (4, 2), (5, 2), (2, 5), (9, 2)]:
        f = REG.field(q, m)
        factors = factor_xn_minus_1(f.n, f)
        prod = Poly.one(f)
        for _, p in factors:
            prod = prod * p
            assert p.in_subfield()
        assert prod == Poly.xn_minus_1(f, f.n)
        for (_, p1), (_, p2) in itertools.combinations(factors, 2):
            assert p1.gcd(p2) == Poly.one(f)
    with pytest.raises(ValueError):
        factor_xn_minus_1(6, REG.field(2, 3))


def test_gcd_properties():
    f = REG.field(5, 2)
    a = Poly.from_ints(f, [1, 2, 1]) * Poly.from_ints(f, [3, 1])
    b = Poly.from_ints(f, [3, 1]) * Poly.from_ints(f, [1, 0, 0, 1])
    g = a.gcd(b)
    assert g == b.gcd(a)
    assert g.gcd(g) == g
    assert (a % g).is_zero() and (b % g).is_zero()


def test_poly_text_format():
    f = REG.field(2, 3)
    assert Poly.from_ints(f, [1, 1, 0, 1]).text() == "1 1 0 1"
    assert Poly.zero(f).text() == "0"
    f9 = REG.field(9, 1)
    assert Poly(f9, (3, ZERO, 0)).text() == "a^3 0 1"


DIFF_FIELDS = ((2, 4), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2))


def orbit(n, q, j):
    """j, jq, jq^2, ... mod n until the walk returns to j."""
    members = [j]
    while members[-1] * q % n != j:
        members.append(members[-1] * q % n)
    return members


def test_coset_table_matches_cyclotomic_cosets():
    for q, m in DIFF_FIELDS + ((2, 7), (4, 3)):
        n = q**m - 1
        table = coset_table(n, q)
        assert table.leaders.tolist() == sorted(
            {min(orbit(n, q, j)) for j in range(n)})
        powers = {pow(q, i, n) for i in range(m)}
        for j in range(n):
            c = table.index[j]
            leader = int(table.leaders[c])
            walk = orbit(n, q, j)
            assert leader == min(walk) == cyclotomic_coset(n, q, j).leader
            assert table.sizes[c] == len(walk)
            assert cyclotomic_coset(n, q, j).members == tuple(walk)
            assert leader * table.power[j] % n == j
            assert table.power[j] in powers


def test_cached_coset_polynomial_matches_fresh_product():
    for q, m in DIFF_FIELDS:
        F = REG.field(q, m)
        for j in range(F.n):
            fresh = Poly.one(F)
            for i in cyclotomic_coset(F.n, q, j).members:
                fresh = fresh * Poly(F, (F.neg(i), F.one))
            cached = minimal_polynomial(F, j)
            assert cached == fresh and minimal_polynomial(F, j) is cached


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), qm=hst.sampled_from(DIFF_FIELDS))
def test_codes_mul_matches_poly_product(data, qm):
    F = REG.field(*qm)
    st = F.subfield_tables()
    sub = F.subfield_logs()
    a, b = (Poly(F, data.draw(hst.lists(hst.sampled_from(sub), max_size=30)))
            for _ in range(2))
    got = _codes.codes_mul(st.codes_of_logs(a.coeffs),
                           st.codes_of_logs(b.coeffs), st)
    assert _codes.codes_to_poly(got, st) == a * b


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), qm=hst.sampled_from(DIFF_FIELDS))
def test_codes_divmod_and_gcd_match_poly(data, qm):
    F = REG.field(*qm)
    st = F.subfield_tables()
    sub = F.subfield_logs()
    # either may be zero, and each is also divided by the other, so the
    # divisor's degree is above the dividend's in one of the two
    a, b = (Poly(F, data.draw(hst.lists(hst.sampled_from(sub), max_size=20)))
            for _ in range(2))
    codes = {}
    for p in (a, b):  # trailing zero codes are trimmed
        pad = np.zeros(data.draw(hst.integers(0, 2)), dtype=np.uint8)
        codes[p] = np.concatenate([st.codes_of_logs(p.coeffs), pad])
    for x, y in ((a, b), (b, a)):
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                _codes.codes_divmod(codes[x], codes[y], st)
        else:
            quot, rem = _codes.codes_divmod(codes[x], codes[y], st)
            assert (_codes.codes_to_poly(quot, st),
                    _codes.codes_to_poly(rem, st)) == divmod(x, y)
        got = _codes.codes_gcd(codes[x], codes[y], st)
        assert _codes.codes_to_poly(got, st) == x.gcd(y)


def test_minimal_poly_product_matches_product_of_linear_factors():
    rng = random.Random(3)
    for q, m in DIFF_FIELDS:
        F = REG.field(q, m)
        for _ in range(10):
            exps = [rng.randrange(-F.n, F.n) for _ in range(rng.randrange(6))]
            roots = {j for e in exps
                     for j in cyclotomic_coset(F.n, q, e % F.n).members}
            expected = Poly.one(F)
            for j in sorted(roots):
                expected = expected * Poly(F, (F.neg(j), F.one))
            assert minimal_poly_product(F, exps) == expected
