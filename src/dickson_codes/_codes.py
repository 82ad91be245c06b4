"""Internal fast path: polynomials over GF(q) as numpy arrays of compact
subfield codes (0..q-1), constant term first.

Used by the sequence minimal polynomials, code construction and the
distance engine; the public polynomial type stays
:class:`dickson_codes.polyring.Poly`.
"""

from __future__ import annotations

import numpy as np

from .galois import SubfieldTables
from .polyring import Poly


def sub_table(st: SubfieldTables) -> np.ndarray:
    """sub[x, y] = x - y on codes (cached on the tables object)."""
    cached = getattr(st, "_sub_table", None)
    if cached is None:
        cached = st.add[:, st.neg]
        st._sub_table = cached
    return cached


def _product_tables(st: SubfieldTables):
    """(slots, weights, codes) for :func:`codes_mul`, cached on the tables
    object.  ``slots[c]`` holds the GF(p) digits of code c padded to
    w = 2t - 1 places; a digit vector d of length w stands for
    sum_e d_e beta^e, and ``codes[d @ weights]`` is its code."""
    cached = getattr(st, "_product_tables", None)
    if cached is None:
        p, t = st.p, st.t
        w = 2 * t - 1
        slots = np.zeros((st.q, w), dtype=np.int64)
        slots[:, :t] = st.digits
        weights = p ** np.arange(w, dtype=np.int64)
        # beta^e for e < w in digits (code i >= 1 is beta^(i-1)), and the
        # code of each packed t-digit vector
        powers = st.digits[np.arange(w) % (st.q - 1) + 1].astype(np.int64)
        by_digits = np.zeros(p**t, dtype=np.int16)
        by_digits[st.digits.astype(np.int64) @ weights[:t]] = np.arange(st.q)
        wide = np.arange(p**w)[:, None] // weights % p
        codes = by_digits[(wide @ powers) % p @ weights[:t]]
        cached = st._product_tables = (slots, weights, codes)
    return cached


def poly_to_codes(poly: Poly, st: SubfieldTables) -> np.ndarray:
    return np.array([st.code_of_log(c) for c in poly.coeffs], dtype=np.int16)


def codes_to_poly(codes: np.ndarray, st: SubfieldTables) -> Poly:
    logs = st.code_to_log[np.asarray(codes, dtype=np.int64)]
    return Poly(st.field, logs.tolist())


def xn_minus_1(st: SubfieldTables) -> np.ndarray:
    """x^n - 1 with n = r - 1, the modulus of every cyclic code."""
    n = st.field.n
    xn1 = np.zeros(n + 1, dtype=np.int16)
    xn1[0] = st.neg[st.scalar_code(1)]
    xn1[n] = st.scalar_code(1)
    return xn1


def trim(a: np.ndarray) -> np.ndarray:
    if len(a) == 0 or a[-1]:
        return a
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1] if len(nz) else a[:0]


def codes_mul(a: np.ndarray, b: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """Product of two polynomials by one integer convolution.

    Each coefficient's GF(p) digits (basis beta^0 .. beta^(t-1)) fill a
    slot of 2t - 1 integers, so one convolution of the flattened slots
    sums, for every degree of x and every power beta^e, the products of
    digits (Kronecker substitution); each slot of the result, reduced mod
    p, is then one table lookup.
    """
    a, b = trim(a), trim(b)
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    slots, weights, codes = _product_tables(st)
    w = len(weights)
    size = len(a) + len(b) - 1
    conv = np.convolve(slots[a].ravel(), slots[b].ravel())[: size * w]
    return codes[conv.reshape(size, w) % st.p @ weights]


def codes_mod(a: np.ndarray, b: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """Remainder of a modulo b (b nonzero)."""
    return codes_divmod(a, b, st)[1]


def codes_divmod(a: np.ndarray, b: np.ndarray, st: SubfieldTables):
    b = trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a).copy()
    db = len(b) - 1
    if len(a) - 1 < db:
        return a[:0], a
    sub, mul = sub_table(st), st.mul
    factor = mul[st.inv[b[-1]]]  # factor[c] = c / lead(b)
    quot = np.zeros(len(a) - db, dtype=np.int16)
    for k in range(len(a) - 1 - db, -1, -1):
        f = factor[a[k + db]]
        if f:
            quot[k] = f
            seg = a[k : k + db + 1]
            seg[:] = sub[seg, mul[f, b]]
    return quot, trim(a[:db])


def codes_gcd(a: np.ndarray, b: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """Monic gcd on code arrays; gcd(0, g) = monic(g)."""
    a, b = trim(a), trim(b)
    while len(b):
        a, b = b, codes_mod(a, b, st)
    a = a.copy()
    if len(a):
        a[:] = st.mul[st.inv[a[-1]], a]
    return a
