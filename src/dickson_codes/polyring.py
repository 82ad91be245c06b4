"""Polynomial arithmetic over GF(r), q-cyclotomic cosets, minimal
polynomials, and the coset factorization of x^n - 1.

Polynomials are dense coefficient sequences of discrete logs (see
:mod:`dickson_codes.galois`), constant term first, with no trailing zero
coefficients; the zero polynomial has an empty coefficient tuple.
Polynomials over the subfield GF(q) simply have all coefficients in the
embedded subfield; operations that promise GF(q) results assert it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .galois import Field, InternalError, ZERO


class Poly:
    """Dense polynomial over a Field, coefficients as discrete logs."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == ZERO:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (0,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (ZERO, 0))

    @classmethod
    def monomial(cls, field: Field, deg: int, coeff: int = 0) -> "Poly":
        return cls(field, (ZERO,) * deg + (coeff,))

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        """Build from integer coefficients (prime-subfield literals)."""
        return cls(field, [field.scalar(c) for c in ints])

    @classmethod
    def xn_minus_1(cls, field: Field, n: int) -> "Poly":
        coeffs = [ZERO] * (n + 1)
        coeffs[0] = field.neg(field.one)
        coeffs[n] = field.one
        return cls(field, coeffs)

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def in_subfield(self) -> bool:
        return all(self.field.in_subfield(c) for c in self.coeffs)

    # -- ring operations ------------------------------------------------------

    def _binop_field(self, other: "Poly"):
        if self.field is not other.field:
            raise ValueError("polynomials belong to different fields")
        return self.field

    def __add__(self, other: "Poly") -> "Poly":
        F = self._binop_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, [F.add(self[i], other[i]) for i in range(n)])

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self._binop_field(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == ZERO:
                continue
            for j, b in enumerate(other.coeffs):
                if b == ZERO:
                    continue
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        if c == ZERO:
            return Poly.zero(F)
        return Poly(F, [F.mul(a, c) for a in self.coeffs])

    def __divmod__(self, other: "Poly"):
        F = self._binop_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(F), self
        lead_inv = F.inv(other.coeffs[-1])
        quot = [ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if c == ZERO:
                continue
            f = F.mul(c, lead_inv)
            quot[k] = f
            for j, b in enumerate(other.coeffs):
                if b != ZERO:
                    rem[k + j] = F.sub(rem[k + j], F.mul(f, b))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, g) = monic(g)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, point: int) -> int:
        """Evaluate at a field element (Horner)."""
        F = self.field
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, point), c)
        return acc

    def __pow__(self, e: int) -> "Poly":
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- formatting -----------------------------------------------------------

    def text(self) -> str:
        """Coefficient symbols constant-term first: `0`, `1`, `a^k`."""
        if self.is_zero():
            return "0"
        return " ".join(self.field.format_element(c) for c in self.coeffs)

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        F = self.field
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == ZERO:
                continue
            sym = F.format_element(c)
            if i == 0:
                terms.append(sym)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 0 else f"{sym}*{xs}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self.pretty()})"


@dataclass(frozen=True)
class CyclotomicCoset:
    """A q-cyclotomic coset modulo n: {j, qj, q^2 j, ...}."""

    leader: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def cyclotomic_coset(n: int, q: int, j: int) -> CyclotomicCoset:
    """The q-cyclotomic coset of j modulo n, in iteration order: j q^i
    for i below the coset's size in ``coset_table``."""
    table = coset_table(n, q)
    if not 0 <= j < n:
        raise ValueError(f"j={j} out of range [0, {n})")
    c = table.index[j]
    members = tuple(j * pow(q, i, n) % n for i in range(table.sizes[c]))
    return CyclotomicCoset(leader=int(table.leaders[c]), members=members)


@dataclass(frozen=True)
class CosetTable:
    """The q-cyclotomic cosets modulo n as arrays.

    ``leaders`` holds the coset leaders in increasing order and ``sizes``
    their cosets' sizes.  For every j in Z_n, ``index[j]`` is the position
    in ``leaders`` of the leader l of j's coset, and ``power[j]`` is
    q^i mod n for the first i with j = l * q^i mod n.
    """

    leaders: np.ndarray
    index: np.ndarray
    power: np.ndarray
    sizes: np.ndarray


@lru_cache(maxsize=None)
def coset_table(n: int, q: int) -> CosetTable:
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) must be 1")
    index, power, leaders = [-1] * n, [0] * n, []
    for j in range(n):
        if index[j] >= 0:
            continue
        k, pw = j, 1 % n
        while index[k] < 0:
            index[k], power[k] = len(leaders), pw
            k, pw = k * q % n, pw * q % n
        leaders.append(j)
    arrays = [np.array(v, dtype=np.int64) for v in (leaders, index, power)]
    arrays.append(np.bincount(arrays[1], minlength=len(leaders)))
    for arr in arrays:
        arr.flags.writeable = False
    return CosetTable(*arrays)


def minimal_polynomial(field: Field, a: int) -> Poly:
    """Minimal polynomial of a over GF(q): the product over the coset of
    its exponent, monic, with coefficients in the subfield; x for a = 0.

    Each coset's polynomial is built once per field, kept in
    ``field.coset_polys`` under the coset leader, and shared from then on.
    """
    if a == ZERO:
        return Poly.x(field)
    n = field.n
    table = coset_table(n, field.q)
    leader = int(table.leaders[table.index[a % n]])
    out = field.coset_polys.get(leader)
    if out is None:
        out = Poly.one(field)
        for j in cyclotomic_coset(n, field.q, leader).members:
            out = out * Poly(field, (field.neg(j), field.one))
        if not out.in_subfield():
            raise InternalError(
                f"minimal polynomial of a^{a} has coefficients outside "
                f"GF({field.q})")
        field.coset_polys[leader] = out
    return out


def minimal_poly_product(field: Field, exponents) -> Poly:
    """The product of the minimal polynomials of alpha^e, one factor per
    distinct q-cyclotomic coset among the exponents."""
    table = coset_table(field.n, field.q)
    out = Poly.one(field)
    for pos in sorted({int(table.index[e % field.n]) for e in exponents}):
        out = out * minimal_polynomial(field, int(table.leaders[pos]))
    return out


def factor_xn_minus_1(n: int, field: Field) -> list[tuple[CyclotomicCoset, Poly]]:
    """Irreducible factors of x^n - 1 over GF(q), one per coset leader."""
    if n != field.n:
        raise ValueError(f"n={n} must equal r-1={field.n} for this field")
    return [(cyclotomic_coset(n, field.q, leader),
             minimal_polynomial(field, leader))
            for leader in coset_table(n, field.q).leaders.tolist()]
