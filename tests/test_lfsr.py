"""Defining sequences, minimal polynomials by gcd and by spectrum."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dickson_codes.dickson import DicksonSpec, dickson_poly
from dickson_codes.galois import ZERO
from dickson_codes import _codes
from dickson_codes.lfsr import (PeriodicSequence, defining_sequence,
                                minimal_poly_dft, minimal_poly_gcd, spectrum)
from dickson_codes.polyring import Poly, minimal_polynomial
from dickson_codes.registry import default_registry

REG = default_registry()

#: One field per subfield size 2, 3, 4, 5, 7, 8, 9; GF(4), GF(8) and GF(9)
#: are the fields with t > 1.
DIFF_FIELDS = ((2, 4), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2))


def bits(s):
    return tuple(0 if v == ZERO else 1 for v in s.values)


def test_identity_map_sequence():
    # q=2, m=3, f = x: s = Tr(alpha^i + 1) = (0,1,1,0,1,0,0)
    f = REG.field(2, 3)
    s = defining_sequence(f, DicksonSpec(kind="D", h=1, a=ZERO))
    assert bits(s) == (0, 1, 1, 0, 1, 0, 0)
    assert s.provenance.h == 1


def test_constant_polynomial_gives_zero_sequence():
    # f = D_0 = 2 vanishes in characteristic 2, so s = 0
    f = REG.field(2, 4)
    s = defining_sequence(f, DicksonSpec(kind="D", h=0, a=f.alpha))
    assert s.is_zero()


def test_order3_binary_degree_eight():
    # q=2, m=4, f = D_3(x, 1): minimal polynomial degree delta(0) + 2m = 8
    f = REG.field(2, 4)
    s = defining_sequence(f, DicksonSpec(kind="D", h=3, a=f.one))
    res = minimal_poly_gcd(s)
    assert res.linear_span == 8
    expected = (minimal_polynomial(f, f.inv(f.alpha))
                * minimal_polynomial(f, f.inv(3))).monic()
    assert res.poly == expected


def test_zero_sequence_minimal_polynomial():
    f = REG.field(2, 3)
    z = PeriodicSequence(field=f, values=(ZERO,) * 7)
    for res in (minimal_poly_gcd(z), minimal_poly_dft(z)):
        assert res.linear_span == 0
        assert res.poly == Poly.one(f)


def test_trace_power_sequence_minimal_polynomial():
    # q=2, m=3, f = x^{2^u}: M = (x-1)^{delta(1)} m_{alpha^{-1}}, degree 4
    f = REG.field(2, 3)
    for u in (1, 2):
        s = defining_sequence(f, DicksonSpec(kind="D", h=2**u, a=f.one))
        res = minimal_poly_gcd(s)
        expected = (minimal_polynomial(f, f.inv(f.alpha))
                    * Poly.from_ints(f, [-1, 1])).monic()
        assert res.poly == expected and res.linear_span == 4


def test_order3_span_at_m5():
    # q=2, m=5, f = D_3(x,1): L = delta(1+1) + 2*5 = 10
    f = REG.field(2, 5)
    s = defining_sequence(f, DicksonSpec(kind="D", h=3, a=f.one))
    assert minimal_poly_gcd(s).linear_span == 10


def test_spectrum_of_pure_trace():
    # s_t = Tr(alpha^t): support C_1, coefficients 1
    f = REG.field(2, 3)
    s = PeriodicSequence(field=f, values=tuple(f.trace(i) for i in range(7)))
    spc = spectrum(s)
    assert spc.support == (1, 2, 4)
    assert all(spc.coeffs[i] == f.one for i in spc.support)


def test_spectrum_of_constant_sequence():
    f = REG.field(3, 2)
    c = f.scalar(2)
    spc = spectrum(PeriodicSequence(field=f, values=(c,) * 8))
    assert spc.support == (0,)
    assert spc.coeffs[0] == c


def test_spectrum_of_zero_sequence():
    f = REG.field(2, 3)
    spc = spectrum(PeriodicSequence(field=f, values=(ZERO,) * 7))
    assert spc.support == ()


def test_dft_matches_stated_product():
    # q=2, m=3, s_t = Tr(alpha^{3t} + alpha^t): M = m_{a^-1} m_{a^-3}
    f = REG.field(2, 3)
    vals = tuple(f.trace(f.add(f.pow(i, 3), i)) for i in range(7))
    s = PeriodicSequence(field=f, values=vals)
    res = minimal_poly_dft(s)
    expected = (minimal_polynomial(f, f.inv(f.alpha))
                * minimal_polynomial(f, f.inv(3))).monic()
    assert res.poly == expected


def test_methods_agree_on_random_dickson_sequences():
    rng = random.Random(77)
    for q, m in [(2, 4), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (3, 3)]:
        f = REG.field(q, m)
        elems = [ZERO] + list(range(f.r - 1))
        for _ in range(25):
            spec = DicksonSpec(kind=rng.choice("DE"), h=rng.randrange(12),
                               a=rng.choice(elems),
                               offset=rng.choice([ZERO, f.neg(f.one)]))
            s = defining_sequence(f, spec)
            g1, g2 = minimal_poly_gcd(s), minimal_poly_dft(s)
            assert g1.poly == g2.poly
            assert g1.linear_span == g2.linear_span


def test_minimal_polynomial_divides_xn_minus_1_and_roots():
    f = REG.field(3, 3)
    s = defining_sequence(f, DicksonSpec(kind="D", h=4, a=f.alpha))
    res = minimal_poly_gcd(s)
    assert (Poly.xn_minus_1(f, f.n) % res.poly).is_zero()
    assert res.poly[0] != ZERO  # M(0) != 0
    spc = spectrum(s)
    assert len(spc.support) == res.linear_span
    for i in spc.support:
        assert res.poly(f.inv(i % (f.r - 1)) if i else f.one) == ZERO


def test_sequence_validation():
    f = REG.field(2, 3)
    with pytest.raises(ValueError):
        PeriodicSequence(field=f, values=(ZERO,) * 6)  # wrong length
    f16 = REG.field(4, 2)
    # log 1 = alpha is outside GF(4) inside GF(16); 15 and -5 are multiples
    # of the subfield step 5 but not element logs
    for bad in (1, 15, -2, -5):
        with pytest.raises(ValueError, match="subfield"):
            PeriodicSequence(field=f16, values=(bad,) + (ZERO,) * 14)


def test_symbol_string_and_sequence_poly():
    f = REG.field(2, 3)
    s = defining_sequence(f, DicksonSpec(kind="D", h=1, a=ZERO))
    assert s.symbol_string() == "0 1 1 0 1 0 0"
    assert Poly(s.field, s.values) == Poly.from_ints(f, [0, 1, 1, 0, 1])


def _pointwise_sequence(F, spec):
    """The defining sequence one point at a time, through scalar field
    arithmetic only."""
    f = dickson_poly(spec, F)
    return tuple(F.trace(f(F.add(t, F.one))) for t in range(F.n))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=hst.data(),
       # m = 1 fields have the trace as the identity; GF(2) has n = 1
       qm=hst.sampled_from(DIFF_FIELDS + ((2, 1), (3, 1), (4, 1), (9, 1),
                                          (2, 7))),
       kind=hst.sampled_from("DE"), h=hst.integers(0, 14))
def test_defining_sequence_matches_pointwise_evaluation(data, qm, kind, h):
    F = REG.field(*qm)
    elements = [ZERO] + list(range(F.n))
    a = data.draw(hst.sampled_from(elements))
    offset = data.draw(hst.sampled_from([ZERO, F.neg(F.one)] + elements))
    spec = DicksonSpec(kind=kind, h=h, a=a, offset=offset)
    assert defining_sequence(F, spec).values == _pointwise_sequence(F, spec)


def _full_dft(F, values):
    """c_j = -sum_t s_t alpha^{-jt} for every j in 0..n-1, one scalar
    field operation at a time."""
    coeffs = []
    for j in range(F.n):
        acc = ZERO
        for t, v in enumerate(values):
            acc = F.add(acc, F.mul(v, F.pow(F.alpha, -j * t)))
        coeffs.append(F.neg(acc))
    return tuple(coeffs)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), qm=hst.sampled_from(DIFF_FIELDS),
       dickson=hst.booleans())
def test_leader_spectrum_matches_full_dft(data, qm, dickson):
    F = REG.field(*qm)
    if dickson:
        spec = DicksonSpec(kind=data.draw(hst.sampled_from("DE")),
                           h=data.draw(hst.integers(0, 12)),
                           a=data.draw(hst.sampled_from([ZERO] + list(range(F.n)))))
        values = defining_sequence(F, spec).values
    else:
        sub = F.subfield_logs()
        values = tuple(data.draw(hst.lists(hst.sampled_from(sub),
                                           min_size=F.n, max_size=F.n)))
    spc = spectrum(PeriodicSequence(field=F, values=values))
    full = _full_dft(F, values)
    assert spc.coeffs == full
    assert spc.support == tuple(j for j, c in enumerate(full) if c != ZERO)


def test_recurrence_check_rejects_a_proper_divisor():
    # q=3, m=3, D_4(x, a): M has several coset factors; dropping one leaves
    # a polynomial whose recurrence no longer annihilates s
    f = REG.field(3, 3)
    st = f.subfield_tables()
    s = defining_sequence(f, DicksonSpec(kind="D", h=4, a=f.alpha))
    m = minimal_poly_gcd(s).poly
    assert _codes.cyclic_product_is_zero(s.codes, st.codes_of_logs(m.coeffs),
                                         st)
    factor = minimal_polynomial(f, f.inv(f.alpha))
    part, rem = divmod(m, factor)
    assert rem.is_zero() and part.degree > 0
    assert not _codes.cyclic_product_is_zero(
        s.codes, st.codes_of_logs(part.coeffs), st)


def test_sequence_keeps_its_codes_out_of_eq_and_hash():
    f = REG.field(4, 2)
    s = defining_sequence(f, DicksonSpec(kind="D", h=3, a=f.alpha))
    assert s.codes.tolist() == f.subfield_tables().codes_of_logs(
        s.values).tolist()
    assert not s.codes.flags.writeable
    again = PeriodicSequence(field=f, values=s.values)
    assert again == s and hash(again) == hash(s)
    assert "codes" not in repr(s)
