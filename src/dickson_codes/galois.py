"""Finite fields GF(p^(t*m)) with a designated subfield GF(q), q = p^t.

A field is built from a primitive polynomial of degree t*m over the prime
field GF(p).  Elements are represented by their discrete logarithm with
respect to the fixed generator alpha (the residue class of x): the integer
k stands for alpha^k, and the zero element is the sentinel ``ZERO`` (-1).
Multiplication and inversion are integer arithmetic on exponents mod r-1;
addition goes through a precomputed Zech-logarithm table
``zech[k] = log(1 + alpha^k)``.

The designated subfield GF(q) sits inside GF(r) as {0} together with the
powers of alpha^((r-1)/(q-1)).  Scalar GF(q) elements (Poly coefficients,
sequence values) use this embedded representation.  GF(q) arrays
(polynomials in the fast path, codewords, G and H) use the compact uint8
codes 0..q-1 of :class:`SubfieldTables`, the one place that knows that
encoding; its tables are built by array operations from the GF(p) digit
vectors of :class:`VecTables`, and need q <= 256; they are built on
first use.  :class:`VecTables` is the one set of GF(r) tables, built with
the field by array operations: the digit vectors of the powers of alpha
(by doubling), their inverse map, and the arrays indexed by log (the
Zech and trace tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Discrete-log sentinel for the zero element.
ZERO = -1


class FieldError(ValueError):
    """Raised when a field cannot be constructed as specified."""


class InternalError(RuntimeError):
    """A self-check of the library failed: a bug, not bad input."""


@dataclass(frozen=True)
class FieldSpec:
    """Construction data for GF(p^(t*m)) with subfield GF(p^t).

    ``prim_poly`` lists the coefficients of a monic primitive polynomial
    of degree t*m over GF(p), constant term first.
    """

    p: int
    t: int
    m: int
    prim_poly: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2 or not _is_prime(self.p):
            raise FieldError(f"characteristic {self.p} is not prime")
        if self.t < 1 or self.m < 1:
            raise FieldError("extension degrees must be >= 1")
        if self.p ** (self.t * self.m) > 1 << 16:
            raise FieldError("field order exceeds 2^16")
        deg = len(self.prim_poly) - 1
        if deg != self.t * self.m:
            raise FieldError(
                f"prim_poly degree {deg} != t*m = {self.t * self.m}: "
                f"{poly_str(self.prim_poly)}")
        if self.prim_poly[-1] % self.p != 1:
            raise FieldError(f"prim_poly must be monic: {poly_str(self.prim_poly)}")

    @property
    def q(self) -> int:
        return self.p ** self.t

    @property
    def r(self) -> int:
        return self.p ** (self.t * self.m)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def poly_str(coeffs) -> str:
    """Human-readable form of a GF(p) coefficient sequence, constant first."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(terms) if terms else "0"


class Field:
    """GF(r) with r = q^m = p^(t*m), fixed generator alpha, subfield GF(q).

    Elements are ints: ``ZERO`` or a discrete log in [0, r-2].  Each table
    is built once, some on first use, and never changes afterwards; the
    cache of minimal polynomials only grows.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.t = spec.t
        self.m = spec.m
        self.q = spec.q
        self.r = spec.r
        self.n = self.r - 1
        self.prim_poly = spec.prim_poly
        self.ext_deg = spec.t * spec.m
        # Step between consecutive subfield logs; alpha^step generates GF(q)*.
        self.subfield_step = (self.r - 1) // (self.q - 1)
        self._subfield_tables = None
        self._vec = VecTables(self)
        # the scalar add reads Python ints faster than array entries
        self._zech = self._vec.zech.tolist()
        #: Minimal polynomials by q-cyclotomic coset leader, filled on
        #: demand by :func:`dickson_codes.polyring.minimal_polynomial`.
        self.coset_polys: dict = {}

    # -- arithmetic ------------------------------------------------------

    def check(self, x: int) -> int:
        if not (x == ZERO or 0 <= x < self.r - 1):
            raise ValueError(f"{x} is not an element log of GF({self.r})")
        return x

    @property
    def one(self) -> int:
        return 0

    @property
    def alpha(self) -> int:
        return 1 % (self.r - 1)

    def add(self, x: int, y: int) -> int:
        if x == ZERO:
            return y
        if y == ZERO:
            return x
        z = self._zech[(y - x) % (self.r - 1)]
        if z == ZERO:
            return ZERO
        return (x + z) % (self.r - 1)

    def neg(self, x: int) -> int:
        if x == ZERO or self.p == 2:
            return x
        return (x + (self.r - 1) // 2) % (self.r - 1)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == ZERO or y == ZERO:
            return ZERO
        return (x + y) % (self.r - 1)

    def inv(self, x: int) -> int:
        if x == ZERO:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return (-x) % (self.r - 1)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == ZERO:
            if e == 0:
                return 0
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return ZERO
        return (x * e) % (self.r - 1)

    def scalar(self, c: int) -> int:
        """The prime-subfield element c * 1 (c an integer, reduced mod p):
        its digit vector (c mod p, 0, ..., 0) packs to c mod p."""
        return int(self._vec.rep_to_log[c % self.p])

    def elements(self):
        """All r elements, zero first then alpha^0 .. alpha^(r-2)."""
        yield ZERO
        yield from range(self.r - 1)

    # -- trace and subfield ----------------------------------------------

    def trace(self, x: int) -> int:
        """Trace onto GF(q): sum of x^(q^i) for i = 0..m-1."""
        if x == ZERO:
            return ZERO
        acc = ZERO
        e = x
        for _ in range(self.m):
            acc = self.add(acc, e)
            e = (e * self.q) % (self.r - 1)
        return acc

    def delta(self, x: int) -> int:
        """0 if trace(x) = 0, else 1."""
        return 0 if self.trace(x) == ZERO else 1

    def in_subfield(self, x: int) -> bool:
        return x == ZERO or x % self.subfield_step == 0

    def subfield_logs(self) -> list[int]:
        """The q embedded subfield elements, zero first."""
        return [ZERO] + [i * self.subfield_step for i in range(self.q - 1)]

    def subfield_tables(self) -> "SubfieldTables":
        if self._subfield_tables is None:
            self._subfield_tables = SubfieldTables(self)
        return self._subfield_tables

    # -- vectorized kernel tables ------------------------------------------

    def vec_tables(self) -> "VecTables":
        return self._vec

    # -- formatting --------------------------------------------------------

    def format_element(self, x: int) -> str:
        if x == ZERO:
            return "0"
        if x == 0:
            return "1"
        return f"a^{x}"

    def parse_element(self, text: str) -> int:
        """Parse '0', 'a^k', 'alpha^k', 'a'/'alpha', 'c', '-c' or 'c/d'."""
        s = text.strip()
        if s in ("a", "alpha"):
            return self.alpha
        try:
            for prefix in ("alpha^", "a^"):
                if s.startswith(prefix):
                    return int(s[len(prefix):]) % (self.r - 1)
            num, slash, den = s.partition("/")
            num, den = int(num), int(den) if slash else 1
        except ValueError:
            raise ValueError(f"cannot parse field element {text!r}") from None
        d = self.scalar(den)
        if d == ZERO:
            raise ValueError(f"denominator vanishes in GF({self.r}): {text!r}")
        return self.div(self.scalar(num), d)

    def __repr__(self):
        return (f"Field(GF({self.r})/GF({self.q}), "
                f"prim={poly_str(self.prim_poly)})")


class SubfieldTables:
    """Compact GF(q) arithmetic on codes 0..q-1: the one encoding of GF(q)
    symbols in code arrays (polynomial coefficients, codewords, generator
    and parity-check matrices), all of them uint8.

    Code 0 is the zero element; code i >= 1 is beta^(i-1), where
    beta = alpha^step generates GF(q)*.  Every table is built by array
    operations from the q GF(p) digit vectors d, d standing for
    sum_s d_s beta^s (s < t): the sums are formed on ``VecTables`` digit
    vectors and read back as logs, then as codes.  That gives
    ``by_digits`` (the code of each digit vector, packed base p with digit
    s weighing p^s) and its inverse ``digits`` (the digits of each code),
    so that addition of symbol vectors is digitwise addition mod p.
    ``add``, ``sub`` and ``neg`` come from digit sums mod p, ``mul`` and
    ``inv`` from sums of beta-exponents mod q - 1, and ``prod_slots``,
    ``prod_weights`` and ``prod_codes`` are the Kronecker tables of
    :func:`dickson_codes._codes.codes_mul`.

    Codes are uint8, so q <= 256; a larger q raises :class:`FieldError`.
    """

    def __init__(self, field: Field):
        q, p, t = field.q, field.p, field.t
        if q > 256:
            raise FieldError(
                f"GF({q}) is too large for the uint8 subfield codes "
                "(q <= 256)")
        self.field, self.q, self.p, self.t = field, q, p, t
        self.code_to_log = np.array(field.subfield_logs(), dtype=np.int32)
        # the code of each log, indexed by log + 1 (ZERO first); the value q
        # marks the logs outside GF(q) and, in a last entry, out of range
        n = field.n
        self._code_of_log = np.full(n + 2, q, dtype=np.intp)
        self._code_of_log[0] = 0
        self._code_of_log[1 : n + 1 : field.subfield_step] = np.arange(1, q)

        # row i of vecs is the digit vector that packs to i
        weights = p ** np.arange(t, dtype=np.int64)
        vecs = np.arange(q)[:, None] // weights % p
        vt = field.vec_tables()
        basis = vt.exp_vec[np.arange(t) * field.subfield_step % n]
        by_digits = self.codes_of_logs(
            vt.logs_of_vecs(vecs @ basis.astype(np.int64) % p))
        if (np.sort(by_digits) != np.arange(q)).any():
            raise FieldError(
                f"the powers of beta do not span GF({q}) over GF({p})")
        self.by_digits = by_digits
        self.digits = np.empty((q, t), dtype=np.uint8)
        self.digits[by_digits] = vecs
        digits = self.digits.astype(np.int64)

        def code_of(d):  # codes of integer digit vectors, reduced mod p
            return by_digits[d % p @ weights]

        self.add = code_of(digits[:, None, :] + digits[None, :, :])
        self.neg = code_of(-digits)
        self.sub = self.add[:, self.neg]
        exps = np.arange(q - 1)
        self.mul = np.zeros((q, q), dtype=np.uint8)
        self.mul[1:, 1:] = (exps[:, None] + exps[None, :]) % (q - 1) + 1
        self.inv = np.zeros(q, dtype=np.uint8)
        self.inv[1:] = -exps % (q - 1) + 1

        # codes_mul: the digits of code c fill a slot of w = 2t - 1 places;
        # a slot d of digits stands for sum_e d_e beta^e, and its code is
        # prod_codes[d @ prod_weights]
        w = 2 * t - 1
        self.prod_weights = p ** np.arange(w, dtype=np.int64)
        self.prod_slots = np.zeros((q, w), dtype=np.int64)
        self.prod_slots[:, :t] = digits
        powers = digits[np.arange(w) % (q - 1) + 1]  # beta^e, e < w
        wide = np.arange(p**w)[:, None] // self.prod_weights % p
        self.prod_codes = code_of(wide @ powers)

    def codes_of_logs(self, logs) -> np.ndarray:
        """uint8 codes of subfield logs; ValueError for any value outside
        {ZERO} and the GF(q) subfield."""
        x = np.asarray(logs, dtype=np.int64)
        # as unsigned, x + 1 is above n for every x outside ZERO..n-1
        index = np.minimum((x + 1).view(np.uint64), self.field.n + 1)
        codes = self._code_of_log[index]
        outside = codes == self.q
        if np.count_nonzero(outside):
            raise ValueError(
                f"log {x[outside][0]} is not in the GF({self.q}) subfield")
        return codes.astype(np.uint8)

    def scalar_code(self, c: int) -> int:
        """The code of the prime-subfield element c * 1."""
        return int(self.by_digits[c % self.p])


class VecTables:
    """The GF(r) tables, built by array operations when the field is.

    ``exp_vec[k]`` holds the GF(p) digit vector of alpha^k, constant digit
    first, in an unsigned dtype that holds p - 1; summing digit vectors
    mod p realizes field addition in bulk, and ``rep_to_log`` maps a
    digit vector packed base p back to a discrete log.  Two arrays are
    indexed by log: ``zech[k] = log(1 + alpha^k)`` is the Zech table, so
    it is also the log of every point alpha^k + 1, and ``trace`` has
    n + 1 entries: ``trace[k]`` is the log of Tr(alpha^k) and the last one
    is ZERO, so ``trace[logs]`` maps ZERO = -1 to ZERO as well.
    """

    def __init__(self, field: Field):
        self.field = field
        p, deg, n = field.p, field.ext_deg, field.n
        self.p, self.deg = p, deg
        # Row k of pows is the digit vector of x^k mod prim_poly.  With
        # rows 0..L-1 known, step is the matrix of multiplication by x^L
        # (row i is x^(L+i), i < deg): rows 0..L-1 times step are rows
        # L..2L-1, and step squared is the matrix for x^(2L).  The modulus
        # is monic, so x^deg is minus its lower coefficients.
        pows = np.zeros((n + 1, deg), dtype=np.int64)
        pows[0, 0] = 1
        step = np.eye(deg, k=1, dtype=np.int64)
        step[-1] = [-c % p for c in field.prim_poly[:-1]]
        L = 1
        while L <= n:
            more = min(L, n + 1 - L)
            pows[L : L + more] = pows[:more] @ step % p
            step = step @ step % p
            L *= 2
        self.pack_weights = p ** np.arange(deg, dtype=np.int64)
        codes = pows @ self.pack_weights
        self.rep_to_log = np.full(field.r, ZERO, dtype=np.int64)
        self.rep_to_log[codes[:n]] = np.arange(n)
        # x^0..x^(n-1) must be n distinct nonzero residues and x^n = 1;
        # otherwise the modulus is reducible or not primitive
        if np.count_nonzero(self.rep_to_log[1:] != ZERO) != n or codes[n] != 1:
            raise FieldError(
                f"polynomial {poly_str(field.prim_poly)} over GF({p}) is "
                "reducible or not primitive")
        self.exp_vec = pows[:n].astype(np.min_scalar_type(p - 1))
        low = pows[:n, 0]
        self.zech = self.rep_to_log[codes[:n] - low + (low + 1) % p]

        # One int64 word per digit vector, digit i in a lane of b bits at
        # bit b*i.  A block of at most (2^b - 1) // (p - 1) columns keeps
        # every lane of a sum of words below 2^b, so no lane overflows.
        b = 63 // deg
        self._mask = (1 << b) - 1
        self._shifts = b * np.arange(deg, dtype=np.int64)
        self._words = (pows[:n] << self._shifts).sum(axis=1)
        self._max_cols = self._mask // (p - 1)

        # Tr(alpha^k) = sum_i alpha^(k q^i)
        conjugates = [pow(field.q, i, n) for i in range(field.m)]
        self.trace = np.append(self.power_sums(
            np.arange(n), conjugates, np.zeros(field.m, dtype=np.int64)), ZERO)

    def logs_of_vecs(self, vecs: np.ndarray) -> np.ndarray:
        packed = (vecs.astype(np.int64) @ self.pack_weights)
        return self.rep_to_log[packed]

    #: (row, column) pairs per gathered block of :meth:`power_sums`
    _BLOCK = 1 << 20

    def power_sums(self, rows: np.ndarray, cols: np.ndarray,
                   col_logs: np.ndarray, sign: int = 1) -> np.ndarray:
        """Logs of sign * sum_c alpha^(col_logs[c] + rows[r] * cols[c]),
        one per row; |rows|, cols and col_logs lie below n.

        The sums run over packed GF(p) digit vectors, in blocks of at most
        ``_BLOCK`` (row, column) pairs and few enough columns that no lane
        overflows, so that memory stays bounded on large fields.
        """
        n, p = self.field.n, self.p
        # exponents stay below n^2 + n: int32 on all but the largest fields
        dt = np.int32 if n * (n + 1) < 2**31 else np.int64
        rows, cols, col_logs = (np.asarray(v, dtype=dt)
                                for v in (rows, cols, col_logs))
        acc = np.zeros((len(rows), self.deg), dtype=np.int64)
        c_step = max(1, min(len(cols), self._max_cols, self._BLOCK))
        r_step = max(1, self._BLOCK // c_step)
        for r0 in range(0, len(rows), r_step):
            r = rows[r0 : r0 + r_step, None]
            for c0 in range(0, len(cols), c_step):
                c = slice(c0, c0 + c_step)
                sums = self._words[(col_logs[c] + r * cols[c]) % n].sum(axis=1)
                acc[r0 : r0 + r_step] += (sums[:, None] >> self._shifts) & self._mask
        return self.logs_of_vecs(sign * acc % p)
