"""Trace-defined periodic sequences and their minimal polynomials.

A sequence is generated as s_i = Tr(f(alpha^i + 1)) for i = 0..n-1, with f
a Dickson polynomial (plus optional offset).  All n values come from one
array pass: the points' logs x_i = log(alpha^i + 1) are the Zech table,
the logs c_k + k x_i of every term of f are formed as one array and summed
as GF(p) digit vectors (``VecTables.power_sums``), and the trace is one
lookup in a per-field trace-by-log table.  The minimal polynomial and
linear span are computed by two independent routes:

* the gcd formula M = (x^n - 1) / gcd(x^n - 1, S(x)), and
* the spectral expansion s_t = sum_j c_j alpha^{jt}, whose nonzero support
  I gives M = prod_{i in I} (x - alpha^{-i}).

Both are normalized monic so they can be compared verbatim;
``code_from_sequence`` asserts their agreement on every code it builds.
The theorem sweep builds each distinct code once, and checks the other
sequences of the same spectral support against it by S(x) g(x) = 0
mod x^n - 1 instead.

The inverse transform uses c_j = -sum_t s_t alpha^{-jt}: the global factor
is -1 because n = q^m - 1 is -1 mod p.  Since every s_t lies in GF(q),
c_{qj} = c_j^q, so c_j is summed only at the q-cyclotomic coset leaders
and spread over each coset as log c_{j q^i} = q^i log c_j.  Rather than
trusting the sign or the spread, the spectrum routine re-synthesizes the
whole sequence from all n coefficients and refuses to return on any
mismatch; the map from spectra to sequences is a bijection, so this
proves every coefficient.  The support is then a union of cosets, and the
spectral M is the product of the per-field cached minimal polynomials of
the cosets of -I.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _codes
from .dickson import DicksonSpec, dickson_poly
from .galois import Field, InternalError, ZERO
from .polyring import Poly, coset_table, minimal_poly_product


@dataclass(frozen=True)
class PeriodicSequence:
    """One period s_0..s_{n-1} of GF(q) values (embedded logs)."""

    field: Field
    values: tuple[int, ...]
    provenance: DicksonSpec | None = dc_field(default=None, compare=False)
    #: the values as read-only uint8 subfield codes, kept from validation
    codes: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) != self.field.n:
            raise ValueError(
                f"sequence length {len(self.values)} != n = {self.field.n}")
        # ValueError for any value outside {ZERO} and the GF(q) subfield
        codes = self.field.subfield_tables().codes_of_logs(self.values)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    def is_zero(self) -> bool:
        return all(v == ZERO for v in self.values)

    def symbol_string(self) -> str:
        return " ".join(self.field.format_element(v) for v in self.values)


@dataclass(frozen=True)
class Spectrum:
    """DFT coefficients c_0..c_{n-1} with support set I = {i : c_i != 0}."""

    field: Field
    coeffs: tuple[int, ...]
    support: tuple[int, ...]


@dataclass(frozen=True)
class MinimalPolyResult:
    poly: Poly
    linear_span: int
    method: str
    #: (x^n - 1) / poly, for the route that computes it (the gcd)
    cofactor: Poly | None = dc_field(default=None, compare=False)


def defining_sequence(field: Field, spec: DicksonSpec) -> PeriodicSequence:
    """s_i = Tr(f(alpha^i + 1)) for the Dickson polynomial of `spec`.

    f is evaluated at all n points at once: with x_i = log(alpha^i + 1)
    read off the Zech table, f(alpha^i + 1) = sum_k alpha^(c_k + k x_i)
    over the nonzero coefficients c_k.  The one point alpha^i = -1 where
    x_i is ZERO takes f(0) = c_0.
    """
    f = dickson_poly(spec, field)
    vt = field.vec_tables()
    exps = np.array([k for k, c in enumerate(f.coeffs) if c != ZERO],
                    dtype=np.int64)
    coeffs = np.array(f.coeffs, dtype=np.int64)[exps]
    # x^k = x^(k mod n) at every nonzero point
    values = vt.power_sums(vt.zech, exps % field.n, coeffs)
    values[vt.zech == ZERO] = f[0]
    return PeriodicSequence(field=field, values=tuple(vt.trace[values].tolist()),
                            provenance=spec)


def minimal_poly_gcd(s: PeriodicSequence) -> MinimalPolyResult:
    """Minimal polynomial via M = (x^n - 1)/gcd(x^n - 1, S(x)); the gcd is
    returned as the cofactor."""
    st = s.field.subfield_tables()
    xn1 = _codes.xn_minus_1(st)
    g = _codes.codes_gcd(xn1, s.codes, st)
    # x^n - 1 and the gcd are monic, so the quotient is too
    quot, rem = _codes.codes_divmod(xn1, g, st)
    if len(rem):
        raise InternalError("gcd does not divide x^n - 1")
    m_poly = _codes.codes_to_poly(quot, st)
    span = s.field.n - (len(g) - 1)
    # the recurrence from M annihilates s over a full period: the backward
    # form sum_j m_j s_{i-j} = 0 for every i (wrap-around included) is the
    # cyclic convolution S(x)M(x) = 0 mod x^n - 1
    if not _codes.cyclic_product_is_zero(s.codes, quot, st):
        raise InternalError("minimal polynomial recurrence fails on the sequence")
    return MinimalPolyResult(poly=m_poly, linear_span=span, method="gcd",
                             cofactor=_codes.codes_to_poly(g, st))


def spectrum(s: PeriodicSequence) -> Spectrum:
    """Spectral coefficients with the reconstruction identity verified.

    c_j is summed only at the q-cyclotomic coset leaders; the rest follow
    from c_{j q^i} = c_j^(q^i).  The full reconstruction s_t = sum_j c_j
    alpha^{jt} is then checked for every t, which proves every c_j.
    """
    F = s.field
    n = F.n
    vt = F.vec_tables()
    s_logs = np.array(s.values, dtype=np.int64)
    t_idx = np.flatnonzero(s_logs != ZERO)
    cosets = coset_table(n, F.q)
    # c_j = -sum_t s_t alpha^{-jt} at the leaders
    lead = vt.power_sums(-cosets.leaders, t_idx, s_logs[t_idx], sign=-1)
    c_logs = lead[cosets.index]
    c_logs = np.where(c_logs == ZERO, ZERO, c_logs * cosets.power % n)
    sup = np.flatnonzero(c_logs != ZERO)
    rec = vt.power_sums(np.arange(n, dtype=np.int64), sup, c_logs[sup])
    if not np.array_equal(rec, s_logs):
        raise InternalError("spectrum reconstruction identity failed")
    return Spectrum(field=F, coeffs=tuple(c_logs.tolist()),
                    support=tuple(sup.tolist()))


def minimal_poly_dft(s: PeriodicSequence) -> MinimalPolyResult:
    """Minimal polynomial prod_{i in I}(x - alpha^{-i}), monic.

    The support I is a union of q-cyclotomic cosets, and so is -I: M is
    the product of the cached minimal polynomials of its cosets, each
    checked to lie in GF(q) when it was built.
    """
    spec = spectrum(s)
    roots = [-i for i in spec.support]
    return MinimalPolyResult(poly=minimal_poly_product(s.field, roots),
                             linear_span=len(spec.support), method="dft")
