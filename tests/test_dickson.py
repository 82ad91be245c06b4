"""Dickson polynomial closed forms, recurrences, and identities."""

import random

import pytest

from dickson_codes.dickson import (DicksonSpec, dickson_first,
                                   dickson_first_recurrence, dickson_poly,
                                   dickson_second, dickson_second_recurrence,
                                   shift_by_one)
from dickson_codes.galois import ZERO
from dickson_codes.polyring import Poly
from dickson_codes.registry import default_registry

REG = default_registry()


def test_first_kind_small_orders():
    f = REG.field(5, 2)
    a = f.alpha
    assert dickson_first(0, a, f) == Poly.from_ints(f, [2])
    assert dickson_first(1, a, f) == Poly.x(f)
    # D_4 = x^4 - 4a x^2 + 2a^2
    expected = Poly(f, [f.mul(f.scalar(2), f.pow(a, 2)), ZERO,
                        f.mul(f.scalar(-4), a), ZERO, f.one])
    assert dickson_first(4, a, f) == expected
    # D_6 = x^6 - 6a x^4 + 9a^2 x^2 - 2a^3
    expected6 = Poly(f, [f.mul(f.scalar(-2), f.pow(a, 3)), ZERO,
                         f.mul(f.scalar(9), f.pow(a, 2)), ZERO,
                         f.mul(f.scalar(-6), a), ZERO, f.one])
    assert dickson_first(6, a, f) == expected6


def test_second_kind_small_orders():
    f = REG.field(5, 2)
    a = f.alpha
    assert dickson_second(0, a, f) == Poly.one(f)
    assert dickson_second(2, a, f) == Poly(f, [f.neg(a), ZERO, f.one])
    # E_5 = x^5 - 4a x^3 + 3a^2 x
    expected = Poly(f, [ZERO, f.mul(f.scalar(3), f.pow(a, 2)), ZERO,
                        f.mul(f.scalar(-4), a), ZERO, f.one])
    assert dickson_second(5, a, f) == expected


def test_closed_form_equals_recurrence():
    rng = random.Random(3)
    for q, m in [(2, 4), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2)]:
        f = REG.field(q, m)
        elems = [ZERO] + list(range(f.r - 1))
        for h in range(25):
            for a in rng.sample(elems, min(6, len(elems))):
                assert dickson_first(h, a, f) == dickson_first_recurrence(h, a, f)
                assert dickson_second(h, a, f) == dickson_second_recurrence(h, a, f)


def test_prime_power_orders_collapse():
    # D_{p^u}(x, a) = x^{p^u} as polynomials, for every a
    for q, m in [(2, 4), (3, 2), (4, 2), (5, 2), (9, 2)]:
        f = REG.field(q, m)
        for u in range(1, 4):
            h = f.p**u
            if h > 27:
                continue
            for a in [ZERO] + list(range(f.r - 1)):
                assert dickson_first(h, a, f) == Poly.monomial(f, h), (q, m, u, a)


def test_order_multiplication_by_p():
    # D_{hp}(x, a) = D_h(x, a)^p, coefficient-wise and pointwise
    rng = random.Random(4)
    for q, m in [(2, 4), (3, 2), (5, 2), (4, 2)]:
        f = REG.field(q, m)
        elems = [ZERO] + list(range(f.r - 1))
        for h in range(1, 9):
            for a in rng.sample(elems, 4):
                lhs = dickson_first(h * f.p, a, f)
                rhs = dickson_first(h, a, f) ** f.p
                assert lhs == rhs
                for x in rng.sample(elems, 5):
                    assert lhs(x) == f.pow(dickson_first(h, a, f)(x), f.p)


def test_shift_by_one_paper_expansions():
    # char >= 5: D_3(x+1, a) = x^3 + 3x^2 + 3(1-a)x + 1 - 3a
    f25 = REG.field(5, 2)
    a = f25.alpha
    got = shift_by_one(dickson_first(3, a, f25))
    expected = Poly(f25, [
        f25.sub(f25.one, f25.mul(f25.scalar(3), a)),
        f25.mul(f25.scalar(3), f25.sub(f25.one, a)),
        f25.scalar(3), f25.one])
    assert got == expected

    # char 2: D_5(x+1, a) = x^5+x^4+ax^3+ax^2+(1+a+a^2)x+1+a+a^2
    f16 = REG.field(4, 2)
    a = 7
    u = f16.add(f16.add(f16.one, a), f16.pow(a, 2))
    got = shift_by_one(dickson_first(5, a, f16))
    assert got == Poly(f16, [u, u, a, a, f16.one, f16.one])

    # char 3: D_4(x+1, a) = x^4+x^3-ax^2+(1+a)x+1-a-a^2
    f9 = REG.field(3, 2)
    a = 3
    c0 = f9.sub(f9.sub(f9.one, a), f9.pow(a, 2))
    got = shift_by_one(dickson_first(4, a, f9))
    assert got == Poly(f9, [c0, f9.add(f9.one, a), f9.neg(a), f9.one, f9.one])


def test_shift_composes_with_evaluation():
    # f(x+1) evaluated at c equals f at c+1, for all c
    rng = random.Random(9)
    for q, m in [(2, 4), (3, 3), (9, 2), (8, 2), (5, 2)]:
        f = REG.field(q, m)
        for _ in range(5):
            h = rng.randrange(0, 9)
            a = rng.choice([ZERO] + list(range(f.r - 1)))
            poly = dickson_first(h, a, f)
            shifted = shift_by_one(poly)
            for c in f.elements():
                assert shifted(c) == poly(f.add(c, f.one))


def test_offset_variants():
    f = REG.field(9, 2)
    base = DicksonSpec(kind="D", h=2, a=f.alpha)
    spec = DicksonSpec(kind="D", h=2, a=f.alpha, offset=f.neg(f.one))
    assert dickson_poly(spec, f) == (dickson_poly(base, f)
                                     + Poly(f, (f.neg(f.one),)))
    assert "D_2" in spec.label(f)


def test_dickson_poly_rejects_logs_outside_the_field():
    f = REG.field(4, 3)
    for bad in (f.n, -7):
        for spec in (DicksonSpec(kind="D", h=3, a=bad),
                     DicksonSpec(kind="E", h=3, a=f.one, offset=bad)):
            with pytest.raises(ValueError, match="not an element log"):
                dickson_poly(spec, f)


def test_spec_rejects_unknown_kind_and_negative_order():
    with pytest.raises(ValueError, match="kind must be 'D' or 'E'"):
        DicksonSpec(kind="F", h=3, a=ZERO)
    with pytest.raises(ValueError, match="order must be >= 0"):
        DicksonSpec(kind="D", h=-1, a=ZERO)
