"""Dickson polynomials of the first and second kind over GF(r).

Both kinds are produced by the closed binomial form with integer
coefficients reduced mod p, and independently by the two-term recurrence
f_{h+2} = x*f_{h+1} - a*f_h (D_0 = 2, D_1 = x; E_0 = 1, E_1 = x).  The
closed form is the primary constructor; the recurrence is kept as the
cross-check used by the identity tests.

The pipeline never composes polynomials: it evaluates f at the points
alpha^i + 1, whose logs are the Zech table.  The shifted expansion f(x+1)
(``shift_by_one``) only serves ``dickson --shifted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .galois import Field, InternalError, ZERO
from .polyring import Poly

FIRST = "D"
SECOND = "E"


@dataclass(frozen=True)
class DicksonSpec:
    """Which Dickson polynomial to use: kind D/E, order h, parameter a.

    ``offset`` is added to the polynomial (ZERO for none); the f = D_h - 1
    variants use offset = -1.  Elements are discrete logs in the ambient
    field.
    """

    kind: str
    h: int
    a: int
    offset: int = ZERO

    def __post_init__(self):
        if self.kind not in (FIRST, SECOND):
            raise ValueError(f"kind must be {FIRST!r} or {SECOND!r}")
        if self.h < 0:
            raise ValueError("order must be >= 0")

    def label(self, field: Field) -> str:
        base = f"{self.kind}_{self.h}(x, {field.format_element(self.a)})"
        if self.offset == ZERO:
            return base
        return f"{base} + {field.format_element(self.offset)}"


def _closed_form(h: int, a: int, field: Field, first_kind: bool) -> Poly:
    if h == 0:
        c = field.scalar(2) if first_kind else field.one
        return Poly(field, (c,))
    coeffs = [ZERO] * (h + 1)
    neg_a = field.neg(a)
    for i in range(h // 2 + 1):
        if first_kind:
            num = h * comb(h - i, i)
            # h/(h-i) * C(h-i, i) is always an integer for Dickson weights
            if num % (h - i):
                raise InternalError(f"non-integer Dickson coefficient at h={h}, i={i}")
            c_int = num // (h - i)
        else:
            c_int = comb(h - i, i)
        c = field.scalar(c_int)
        term = field.mul(c, field.pow(neg_a, i)) if i else c
        coeffs[h - 2 * i] = term
    return Poly(field, coeffs)


def dickson_first(h: int, a: int, field: Field) -> Poly:
    """D_h(x, a) by the closed binomial form."""
    return _closed_form(h, a, field, first_kind=True)


def dickson_second(h: int, a: int, field: Field) -> Poly:
    """E_h(x, a) by the closed binomial form."""
    return _closed_form(h, a, field, first_kind=False)


def _recurrence(h: int, a: int, field: Field, f0: Poly) -> Poly:
    f1 = Poly.x(field)
    if h == 0:
        return f0
    if h == 1:
        return f1
    prev, cur = f0, f1
    for _ in range(h - 1):
        prev, cur = cur, Poly.x(field) * cur - prev.scale(a)
    return cur


def dickson_first_recurrence(h: int, a: int, field: Field) -> Poly:
    """D_h(x, a) by the recurrence, for cross-checking the closed form."""
    return _recurrence(h, a, field, Poly(field, (field.scalar(2),)))


def dickson_second_recurrence(h: int, a: int, field: Field) -> Poly:
    """E_h(x, a) by the recurrence."""
    return _recurrence(h, a, field, Poly.one(field))


def dickson_poly(spec: DicksonSpec, field: Field) -> Poly:
    """The polynomial selected by a DicksonSpec, offset included; a or
    offset not an element of the field raises ValueError."""
    field.check(spec.a)
    field.check(spec.offset)
    if spec.kind == FIRST:
        f = dickson_first(spec.h, spec.a, field)
    else:
        f = dickson_second(spec.h, spec.a, field)
    if spec.offset != ZERO:
        f = f + Poly(field, (spec.offset,))
    return f


def shift_by_one(f: Poly) -> Poly:
    """f(x+1), coefficients reduced in the field's characteristic."""
    field = f.field
    x_plus_1 = Poly(field, (field.one, field.one))
    acc = Poly.zero(field)
    for c in reversed(f.coeffs):
        acc = acc * x_plus_1 + Poly(field, (c,))
    return acc
