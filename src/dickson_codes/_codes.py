"""Internal fast path: polynomials over GF(q) as numpy uint8 arrays of
compact subfield codes (0..q-1), constant term first.

Used by the sequence minimal polynomials, code construction and the
distance engine; the public polynomial type stays
:class:`dickson_codes.polyring.Poly`.  This module holds only the
polynomial algorithms and owns no tables: every table it reads belongs to
:class:`dickson_codes.galois.SubfieldTables`.
"""

from __future__ import annotations

import numpy as np

from .galois import SubfieldTables
from .polyring import Poly


def codes_to_poly(codes: np.ndarray, st: SubfieldTables) -> Poly:
    return Poly(st.field, st.code_to_log[codes].tolist())


def xn_minus_1(st: SubfieldTables) -> np.ndarray:
    """x^n - 1 with n = r - 1, the modulus of every cyclic code."""
    n = st.field.n
    xn1 = np.zeros(n + 1, dtype=np.uint8)
    xn1[0] = st.neg[1]
    xn1[n] = 1
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
    slots, weights = st.prod_slots, st.prod_weights
    w = len(weights)
    size = len(a) + len(b) - 1
    conv = np.convolve(slots[a].ravel(), slots[b].ravel())[: size * w]
    return st.prod_codes[conv.reshape(size, w) % st.p @ weights]


def cyclic_product_is_zero(a: np.ndarray, b: np.ndarray,
                           st: SubfieldTables) -> bool:
    """Whether a(x) b(x) = 0 mod x^n - 1, n = r - 1, for deg a + deg b < 2n.

    The product is one ``codes_mul``, folded at x^n: coefficient i of the
    cyclic product is the sum of the product's coefficients i and n + i.
    """
    n = st.field.n
    folded = np.zeros(2 * n, dtype=np.uint8)
    prod = codes_mul(a, b, st)
    folded[: len(prod)] = prod
    return not np.any(st.add[folded[:n], folded[n:]])


def codes_divmod(a: np.ndarray, b: np.ndarray, st: SubfieldTables):
    b = trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a).copy()
    db = len(b) - 1
    if len(a) - 1 < db:
        return a[:0], a
    sub, mul = st.sub, st.mul
    factor = mul[st.inv[b[-1]]]  # factor[c] = c / lead(b)
    quot = np.zeros(len(a) - db, dtype=np.uint8)
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
        a, b = b, codes_divmod(a, b, st)[1]
    a = a.copy()
    if len(a):
        a[:] = st.mul[st.inv[a[-1]], a]
    return a
