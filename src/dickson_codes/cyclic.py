"""Cyclic codes over GF(q): construction from sequences, BCH bound, exact
minimum distance and weight distribution.

Distance strategy, in order:

* **exhaustive** - if q^k fits under the enumeration cap, the codewords
  are enumerated in one pass: a table spanning some generator rows is
  translated by each word of a second table spanning the others.  Only
  q^(k-2) of them are needed (k >= 2).  A codeword c = m(x) g(x) of
  weight w < n has a cyclic shift, times a scalar, with c_0 = 1 and
  c_{n-1} = 0, that is m_0 = 1 / g_0 and m_{k-1} = 0, so the walk is
  G[0] / g_0 plus the span of rows 1..k-2 (for k = 1 it is the single
  word g / g_0, of weight n).  The minimum weight is exact, and every
  pinned word of that weight is reported.  One rule picks this walk or
  the MITM sweep below for every code under the cap: the sweep takes
  levels from the BCH bound while their summed side sizes stay below
  q^max(k-2, 0), the words the walk visits, and the code is enumerated
  if no level taken hits.
* **mitm** - weights w are swept upward from the BCH lower bound, so a
  level that completes without a match raises the certified bound to
  w + 1, and the first match is exact.  Each level is a
  meet-in-the-middle match over syndromes of a pinned split.  The w zero
  gaps of a weight-w word sum to n - w, so the largest is at least
  floor((n - 1) / w) long; some cyclic shift of every weight-w codeword,
  scaled, has that gap just before coordinate 0 and coordinate 0 equal to
  1, which puts its other positions in 1..span, span = n - 1 -
  floor((n - 1) / w).  Side A is position 0 with coefficient 1 plus
  ceil(w/2) - 1 positions of 1..span and side B is floor(w/2) positions
  of 1..span.  Only matches with every A position below every B position
  are kept, so each is a distinct weight-w codeword, and all are
  reported.  Keys are syndromes packed one GF(p) digit to a lane of 1
  (p = 2) or ceil(log2(2p - 1)) bits, in as many 64-bit words as they
  need; one lane-wise kernel sums them for every q.  Sides are joined on
  word 0 and built along the colex nesting in blocks of about
  ``MITM_CHUNK`` keys: the supports ending at position x are those of
  one fewer position below x, each extended by x, so a block is a slice
  of the level below plus one table entry, one add per key, and only
  that level is held.  A is held once, as the sorted hashes of its keys
  (times an odd constant, a bijection): 8 bytes a key.  The top bits of
  the sorted hashes set a one-hash bloom filter packed eight to a byte,
  so a level holds A's hashes, the filter, the level below each side's
  last and three block-long rows, reused by every block of 128 KiB or
  more (smaller ones come from the heap).  B's hashed blocks are
  screened by the filter and their survivors, sorted, by a binary search
  in A's hashes.  On a match A is built again to find the entries of the
  matched hashes; only the matched pairs are unranked into supports and
  coefficients, and they are confirmed on the other words.
* **witness search** - a seeded information-set search provides verified
  low-weight codewords cheaply.  When the best witness weight equals the
  certified lower bound the distance is exact even where a full MITM
  level would be infeasible (method ``bch+witness`` / ``mitm+witness``).
  Each iteration brings a random permutation's greedy information set to
  systematic form.  One search object per code keeps its RNG and best
  word: a quick pass ends at its first information set that brings no
  improvement, the MITM sweep then certifies, and only a blocked sweep
  resumes the same search, within the full iteration budget, so no set
  is reduced twice.  Each set is reduced from the parity-check matrix's
  n - k rows, scanning from the right: by matroid duality its check
  columns are the complement of the generator's information set, and
  the systematic generator is read off the reduced H's information block
  A, (n - k) x k: row i is 1 at the i-th information column and -A[:, i]
  on the checks.  Single rows and every pair R[i] + c * R[j] are scored
  from A alone, and only the lightest word is written out.  The search
  stops at a proven floor (the BCH bound or completed MITM levels), so
  when a single row already weighs the floor no pair can beat it and the
  pairs are not scored.  A pair's weight counts where the columns
  A[:, i] and -c * A[:, j] differ: codes are packed as ceil(log2 q) bit
  planes of 64-bit words, and the count is the popcount of the planes'
  XORs, ORed together, over blocks of rows i.  The resumed pass also
  takes Stern's collision step (Stern 1989; Peters 2010 over GF(q)) in
  each set: two rows from each half of the information columns, joined
  on MITM keys of A's first l rows.  It draws no random numbers, so the
  resumed pass draws the sets a fresh search draws and may only find
  lighter words in them.  Each temporary of a blocked kernel stays
  within ``_BLOCK_BYTES``, so glibc serves it from its heap and reuses
  the freed pages: one of 128 KiB or more would be a fresh mapping, its
  pages faulted and zeroed on every use.

One witness convention: each engine reports its weight and its lightest
words, and ``minimum_distance`` alone turns them into the witness.  It
takes the lexicographically smallest of their cyclic shifts and nonzero
multiples (``_smallest_shift``), so a word found in any shift or
multiple yields the same witness.  Enumeration and a MITM hit report a
shift and multiple of every minimum-weight word, so their witness is
the smallest codeword of minimum weight; the witness search reports its
one lightest word.  The words must all have the reported weight and the
witness must be a codeword, c(x) h(x) = 0 mod x^n - 1 with h the parity
polynomial, before it is believed.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import _codes
from .galois import Field, InternalError, SubfieldTables, ZERO
from .lfsr import MinimalPolyResult, PeriodicSequence, minimal_poly_dft, minimal_poly_gcd
from .polyring import Poly, coset_table

ISD_SEED = 20240915  # with the generator, seeds the witness search's RNG
ISD_STALL = 1  # quick witness pass: iterations allowed without improvement
MITM_CHUNK = 1 << 16  # keys generated at a time on either MITM side
_BLOCK_BYTES = 1 << 16  # a blocked temporary: half glibc's mmap threshold


@dataclass(frozen=True)
class DistanceConfig:
    """Tunables for the distance engine; defaults decide every table row."""

    full_enum_limit: int = 1 << 22
    w_max: int = 13
    isd_iterations: int = 240
    mitm_side_limit: int = 32_000_000

    def __post_init__(self):
        if self.w_max < 1:
            raise ValueError("w_max must be >= 1")


@dataclass(frozen=True)
class DistanceResult:
    value: int  # d, or for ``bch-only`` the certified lower bound
    method: str
    bch_bound: int
    witness: tuple[int, ...] | None = None  # subfield codes, length n

    @property
    def exact(self) -> bool:
        return self.method != "bch-only"

    @property
    def certified_lower(self) -> int:  # every method certifies its value
        return self.value

    def describe(self) -> str:
        return f"{'d = ' if self.exact else 'd >= '}{self.value} [{self.method}]"


class CyclicCode:
    """Cyclic [n, k] code over GF(q) with generator polynomial g.

    The parity polynomial h = (x^n - 1)/g is found by division, or, when
    the caller already has it, checked by g * h = x^n - 1.  ``g_codes`` and
    ``h_codes`` hold g and h as uint8 code arrays.

    ``zeros``, R = {i in Z_n : g(alpha^i) = 0} sorted, names the code:
    x^n - 1 is squarefree (gcd(n, q) = 1), so g = prod_{i in R}(x - alpha^i).
    g(b^q) = g(b)^q makes R a union of q-cyclotomic cosets, so g is summed
    only at the coset leaders, in one ``VecTables.power_sums`` call.
    """

    def __init__(self, field: Field, g: Poly,
                 h: Poly | None = None):
        if g.field is not field:
            raise ValueError("generator polynomial belongs to a different field")
        if not g.is_monic():
            raise ValueError("generator polynomial must be monic")
        self.field = field
        self.n = field.n
        self.q = field.q
        self.g = g
        st = field.subfield_tables()
        xn1 = _codes.xn_minus_1(st)
        # ValueError for any coefficient outside GF(q)
        g_codes = st.codes_of_logs(g.coeffs)
        if h is None:
            h_codes, rem = _codes.codes_divmod(xn1, g_codes, st)
            if len(rem):
                raise ValueError("generator does not divide x^n - 1")
            h = _codes.codes_to_poly(h_codes, st)
        elif h.field is not field:
            raise ValueError("parity polynomial belongs to a different field")
        else:
            h_codes = st.codes_of_logs(h.coeffs)
            if not np.array_equal(_codes.codes_mul(g_codes, h_codes, st), xn1):
                raise ValueError("g * h is not x^n - 1")
        self.h, self.g_codes, self.h_codes = h, g_codes, h_codes
        self.k = self.n - g.degree
        cosets = coset_table(self.n, self.q)
        logs = np.array(g.coeffs, dtype=np.int64)
        exps = np.flatnonzero(logs != ZERO)
        at_leaders = field.vec_tables().power_sums(  # x^n = 1 at the roots
            cosets.leaders, exps % self.n, logs[exps])
        self.zeros = tuple(
            np.flatnonzero(at_leaders[cosets.index] == ZERO).tolist())
        if len(self.zeros) != g.degree:  # a squarefree g has deg g zeros
            raise InternalError("generator has the wrong number of zeros")

    def __repr__(self):
        return f"CyclicCode[n={self.n}, k={self.k}, q={self.q}]"

    # -- matrices ---------------------------------------------------------

    def generator_matrix(self) -> np.ndarray:
        """k x n matrix of subfield codes; rows are x^i * g."""
        return _shifted_rows(self.g_codes, self.k, self.n)

    def parity_check_matrix(self) -> np.ndarray:
        """(n-k) x n parity-check from the parity polynomial h (Toeplitz)."""
        return _shifted_rows(self.h_codes[::-1], self.n - self.k, self.n)

    # -- membership ----------------------------------------------------------

    def contains(self, codes: np.ndarray) -> bool:
        """Whether a code-vector (length n, subfield codes) is a codeword:
        c = m g for some m exactly when c(x) h(x) = 0 mod x^n - 1."""
        codes = np.asarray(codes, dtype=np.uint8)
        if len(codes) != self.n:
            raise ValueError(f"word length {len(codes)} != n = {self.n}")
        return _codes.cyclic_product_is_zero(codes, self.h_codes,
                                             self.field.subfield_tables())


def _shifted_rows(codes: np.ndarray, rows: int, n: int) -> np.ndarray:
    """rows x n uint8 matrix whose row i is ``codes`` starting at column i."""
    M = np.zeros((rows, n), dtype=np.uint8)
    for i in range(rows):
        M[i, i : i + len(codes)] = codes
    return M


def code_from_sequence(s: PeriodicSequence) -> CyclicCode:
    """The code defined by a sequence: g = (x^n - 1)/gcd(S(x), x^n - 1).

    The generator is computed by the gcd formula and asserted equal to the
    spectral minimal polynomial, so both lemma routes back every code.  The
    gcd itself is the parity polynomial h, checked by g * h = x^n - 1.
    """
    res_gcd: MinimalPolyResult = minimal_poly_gcd(s)
    res_dft: MinimalPolyResult = minimal_poly_dft(s)
    if res_gcd.poly != res_dft.poly:
        raise InternalError("gcd and spectral minimal polynomials disagree")
    return CyclicCode(s.field, res_gcd.poly, h=res_gcd.cofactor)


def bch_lower_bound(code: CyclicCode) -> int:
    """Largest delta such that the roots of g contain delta-1 consecutive
    exponents (cyclically); the minimum distance is at least delta."""
    run = _longest_cyclic_run(set(code.zeros), code.n)
    if _longest_cyclic_run({-i % code.n for i in code.zeros}, code.n) != run:
        raise InternalError("run length differs between R and -R")
    return run + 1


def _longest_cyclic_run(zeros: set[int], n: int) -> int:
    """Longest run i, i + 1, ..., i + j - 1 (mod n) inside zeros."""
    if len(zeros) == n:
        return n
    # each run that is not all of Z_n starts at an i with i - 1 missing
    return max((next(j for j in itertools.count(1) if (i + j) % n not in zeros)
                for i in zeros if (i - 1) % n not in zeros), default=0)


# -- exhaustive enumeration ---------------------------------------------------


_SPAN_ROWS = 1 << 16  # rows of the spanned table, and of every block


def codeword_blocks(code: CyclicCode):
    """Yield every codeword exactly once, as uint8 blocks of subfield
    codes with shape (block, n)."""
    return _span_blocks(code.generator_matrix(), np.zeros(code.n, np.uint8),
                        code.field.subfield_tables())


def _pinned_blocks(code: CyclicCode, reuse: bool = False):
    """Yield the codewords m(x) g(x) with m_0 = 1 / g_0 and, for k >= 2,
    m_{k-1} = 0: q^(k-2) words with c_0 = 1 and c_{n-1} = 0, holding a
    shift and multiple of every codeword of weight below n (module
    docstring).  For k = 1 the one word g / g_0.  ``reuse``: see
    ``_span_blocks``."""
    st = code.field.subfield_tables()
    G = code.generator_matrix()
    return _span_blocks(G[1 : code.k - 1], st.mul[st.inv[G[0, 0]], G[0]], st,
                        reuse)


def _span(rows: np.ndarray, base: np.ndarray,
          st: SubfieldTables) -> np.ndarray:
    """base + every GF(q) combination of ``rows``, column-major: column
    sum_i c_i q^i of the (n, q^len(rows)) table is base + sum_i c_i rows[i],
    so row j holds coordinate j of every word."""
    table = base[:, None]
    for row in rows:
        scaled = st.mul[row]  # (n, q): scaled[j, c] = row[j] * c
        table = st.add[table[:, None, :], scaled[:, :, None]].reshape(
            len(base), -1)
    return table


def _span_blocks(rows: np.ndarray, base: np.ndarray, st: SubfieldTables,
                 reuse: bool = False):
    """Yield base + every GF(q) combination of ``rows`` exactly once, as
    uint8 blocks of subfield codes with shape (block, n).

    The span of the first ``a`` rows (q^a <= 2^16) is the low table, and
    base plus the span of the others is the outer table, both by
    ``_span``; each block is the low table translated by one column of the
    outer table, coordinate by coordinate through one reused ``intp``
    row (``np.take`` would widen the uint8 indices into a new array).
    Under the default enumeration cap (q^k <= 2^22) the outer table holds
    at most max(1, 64 / q) words for the pinned walk (k - 2 rows) and
    fewer than 64 q for ``weight_distribution`` (k rows), so the working
    set is the low table plus one block: a new array, or with ``reuse``
    the call's one buffer, which the next block overwrites.
    """
    q, n, k = st.q, len(base), len(rows)
    a = 0
    while a < k and q ** (a + 1) <= _SPAN_ROWS:
        a += 1
    low = _span(rows[:a], np.zeros(n, dtype=np.uint8), st)
    at, block = np.empty(low.shape[1], dtype=np.intp), None
    for outer in _span(rows[a:], base, st).T:
        shift = st.add[outer]  # (n, q): shift[j, x] = outer[j] + x
        if block is None or not reuse:
            block = np.empty_like(low)
        for j in range(n):
            at[:] = low[j]
            np.take(shift[j], at, out=block[j], mode="clip")
        yield block.T


def _exhaustive_distance(code: CyclicCode) -> tuple[int, np.ndarray]:
    """Minimum weight and every pinned codeword (``_pinned_blocks``) of that
    weight, in one pass; they hold a shift and multiple of every
    minimum-weight codeword.  The blocks share one buffer, and their
    weights, summed one coordinate (a row of that buffer) at a time,
    share one narrow array."""
    best_w, lightest, weights = code.n + 1, [], None
    for block in _pinned_blocks(code, reuse=True):
        if weights is None:  # every block has as many words
            weights = np.empty(len(block), np.min_scalar_type(code.n))
        weights[:] = 0
        for coord in block.T:
            weights += coord != 0  # c_0 = 1: never zero
        w = int(weights.min())
        if w < best_w:
            best_w, lightest = w, []
        if w == best_w:  # a copy, which outlives the block
            lightest.append(block[weights == w])
    return best_w, np.concatenate(lightest)


def weight_distribution(code: CyclicCode,
                        cfg: DistanceConfig | None = None) -> dict[int, int]:
    """Exact weight enumerator by full enumeration (q^k capped)."""
    cfg = cfg or DistanceConfig()
    if code.q**code.k > cfg.full_enum_limit:
        raise ValueError(
            f"q^k = {code.q}^{code.k} exceeds the enumeration cap")
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for block in codeword_blocks(code):
        counts += np.bincount(np.count_nonzero(block, axis=1),
                              minlength=code.n + 1)
    if counts.sum() != code.q**code.k:
        raise InternalError("enumeration did not visit q^k codewords")
    return {w: int(c) for w, c in enumerate(counts) if c}


# -- meet-in-the-middle syndrome search ---------------------------------------


def _mitm_span(n: int, w: int) -> int:
    """Last position a weight-w split draws from: the w zero gaps of a
    weight-w word sum to n - w, so the largest is at least
    ceil((n - w) / w) = floor((n - 1) / w) long, and the shift that puts
    it just before coordinate 0 keeps the other positions in 1..span."""
    return n - 1 - (n - 1) // w


def _mitm_sides(n: int, q: int, w: int) -> tuple[int, int]:
    """Key counts of sides A and B of the pinned split at weight w."""
    w1, w2 = (w + 1) // 2, w // 2
    span = _mitm_span(n, w)
    # side A pins coordinate 0 to 1; both sides draw the rest from 1..span
    return (math.comb(span, w1 - 1) * (q - 1) ** (w1 - 1),
            math.comb(span, w2) * (q - 1) ** w2)


@functools.lru_cache(maxsize=256)
def _combs(n: int, w: int) -> np.ndarray:
    """(w + 1, n + 1) int64 table whose row s holds C(x, s), x = 0..n: by
    the hockey-stick identity C(x, s) is the sum of C(y, s - 1), y < x.
    Read-only and cached, so a MITM level's two sides and the unranking of
    its pairs share one."""
    c = np.zeros((w + 1, n + 1), dtype=np.int64)
    c[0] = 1
    for s in range(1, w + 1):
        c[s - 1, :-1].cumsum(out=c[s, 1:])
    c.flags.writeable = False
    return c


def _colex_unrank(ranks: np.ndarray, n: int, w: int) -> np.ndarray:
    """The size-w supports of range(n) at the given colex ranks, shape
    (len(ranks), w), each ascending.  Colex ranks a support by its largest
    position x first: the supports of range(x) come before it, so x is the
    largest with C(x, w) <= rank, and the rest is the support of rank
    rank - C(x, w) of size w - 1."""
    combs = _combs(n, w)
    rest = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(rest), w), dtype=np.int64)
    for s in range(w, 0, -1):
        out[:, s - 1] = x = combs[s].searchsorted(rest, side="right") - 1
        rest = rest - combs[s, x]
    return out


def _coeff_digits(ranks: np.ndarray, q: int, w: int) -> np.ndarray:
    """The coefficient tuples over GF(q)* at the given ranks of their
    product order (the first slot major), shape (len(ranks), w)."""
    weights = (q - 1) ** np.arange(w - 1, -1, -1, dtype=np.int64)
    return (np.asarray(ranks, dtype=np.int64)[:, None] // weights
            % (q - 1) + 1).astype(np.uint8)


def _lane_bits(p: int) -> int:  # p = 2 adds by XOR; else a lane holds 2p - 2
    return 1 if p == 2 else (2 * p - 2).bit_length()


def _key_table(H: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """(n, q, W) uint64 table of the syndromes of c * H[:, j]: their R * t
    GF(p) digits, row-major, fill lanes of b = ``_lane_bits(p)`` bits,
    64 // b lanes to a word, so no lane straddles two words."""
    R, n = H.shape
    b = _lane_bits(st.p)
    lanes, digits = 64 // b, R * st.t
    W = -(-digits // lanes)
    dig = st.digits[st.mul[:, H]]  # (q, R, n, t)
    flat = np.zeros((n, st.q, W * lanes), dtype=np.uint64)
    flat[:, :, :digits] = dig.transpose(2, 0, 1, 3).reshape(n, st.q, digits)
    shifts = np.arange(lanes, dtype=np.uint64) * np.uint64(b)
    return (flat.reshape(n, st.q, W, lanes) << shifts).sum(
        axis=-1, dtype=np.uint64)


def _lane_add(x: np.ndarray, y: np.ndarray, p: int,
              out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
    """Lane-wise sum of two key arrays (broadcast) over GF(p), into ``out``
    or a new array; ``tmp``, of the result's shape and possibly ``y``,
    takes the carries.  For p = 2 the sum is XOR.  Otherwise an add
    leaves lanes of b = ``_lane_bits(p)`` bits in 0..2p-2; biasing each by
    2^(b-1) - p sets its top bit where it reached p, and p is subtracted
    there (SWAR)."""
    if p == 2:
        return np.bitwise_xor(x, y, out=out)
    b = _lane_bits(p)
    ones = ((1 << (64 // b * b)) - 1) // ((1 << b) - 1)  # 1 in every lane
    keys = np.add(x, y, out=out)
    over = np.add(keys, np.uint64(((1 << (b - 1)) - p) * ones), out=tmp)
    over &= np.uint64((1 << (b - 1)) * ones)
    over >>= np.uint64(b - 1)
    over *= np.uint64(p)
    keys -= over
    return keys


def _side_keys(table: np.ndarray, pos: np.ndarray, coeffs: np.ndarray,
               p: int) -> np.ndarray:
    """Keys of sum_s coeffs[..., s] * H[:, pos[..., s]] over w >= 1 slots,
    as lane-wise sums of ``_key_table`` entries (any word axis kept);
    ``pos`` and ``coeffs`` broadcast.  The reference for the nested build,
    and the check of a MITM level's pairs on every key word."""
    keys = table[pos[..., 0], coeffs[..., 0]]
    for s in range(1, pos.shape[-1]):
        keys = _lane_add(keys, table[pos[..., s], coeffs[..., s]], p)
    return keys


def _nested_keys(table0: np.ndarray, base: np.uint64, w: int, span: int,
                 p: int, bufs: np.ndarray | None = None):
    """Yield (first index, keys) blocks of about ``MITM_CHUNK`` word-0
    keys: base plus the keys of sum_s c_s * H[:, pos_s] (``table0`` is
    ``_key_table``'s word 0) over the size-w supports pos of 1..span and
    the coefficient tuples c over GF(q)*.  The key at index r (q-1)^w + i
    has the support of colex rank r (``_colex_unrank``) and the tuple of
    rank i (``_coeff_digits``).  Blocks are built in ``bufs`` as
    ``_extend`` says: with it, a block lives only until the next one.

    Colex nests: the supports of size j ending at ``last`` are those of
    size j - 1 below ``last``, each extended by it, and those form a
    prefix of the size j - 1 level.  So the block of keys ending at
    ``last`` is a slice of the level below plus one table entry, and each
    key costs one add.  Level j is built in full only as far as level
    j + 1 reads it, and only the level below the one being built is held.
    """
    K = table0.shape[1] - 1
    combs = _combs(span, w)
    level = np.array([base], dtype=np.uint64)
    if w == 0:
        yield 0, level
        return
    for j in range(1, w + 1):
        top = span - w + j  # the last position level w reads at level j
        # row r of level j is one key of level j - 1 extended by one
        # position; the first starts[x] rows end below position x + 1
        starts = combs[j, : top + 1] * K ** (j - 1)
        blocks = _extend(level, table0[1 : top + 1, 1:], starts, p, bufs)
        if j == w:
            yield from blocks
        else:
            level = np.empty(starts[-1] * K, dtype=np.uint64)
            for lo, keys in blocks:
                level[lo : lo + len(keys)] = keys


def _extend(prev: np.ndarray, entries: np.ndarray, starts: np.ndarray,
            p: int, bufs: np.ndarray | None = None):
    """Blocks of prev[i] + entries[x, c] (``_nested_keys``): row r with
    starts[x] <= r < starts[x + 1] extends prev[r - starts[x]] by
    position x + 1 with each coefficient c, the coefficient minor.

    A block has at most max(``MITM_CHUNK``, K) keys.  One of 128 KiB or
    more (glibc's mmap threshold) is built in row 0 of ``bufs``, a MITM
    level's three uint64 rows, from its runs' entries in row 1 (then its
    carries) and its slices of prev in row 2; it lives until the next
    block, and rows 1-2 are the caller's in between.  Smaller blocks are
    new arrays, served from glibc's heap.
    """
    K = entries.shape[1]
    total, step = int(starts[-1]), max(1, MITM_CHUNK // K)
    for r0 in range(0, total, step):
        r1 = min(r0 + step, total)
        big = bufs is not None and (r1 - r0) * K * 8 >= 2 * _BLOCK_BYTES
        keys, tmp = (bufs[:2, : (r1 - r0) * K].reshape(2, -1, K) if big
                     else (None, None))
        a = int(starts.searchsorted(r0, side="right")) - 1  # row r0 ends
        # at position a + 1
        if len(prev) == 1:  # one row a position, from a on
            keys = _lane_add(prev[:, None], entries[a : a + r1 - r0], p,
                             keys, tmp)
        else:  # one run of rows per position a..b-1; all but the first
            # read prev from its start
            b = int(starts.searchsorted(r1))
            edges = starts[a : b + 1].tolist()
            edges[0], edges[-1] = r0, r1
            runs = [hi - lo for lo, hi in zip(edges, edges[1:])]
            skip = r0 - int(starts[a])
            pre = [prev[skip : skip + runs[0]]] + [prev[:run]
                                                   for run in runs[1:]]
            if big:  # each run's entries copied into the carries' row,
                # the K keys of a position as one item
                item = np.dtype((np.void, 8 * K))
                fill = bufs[1, : (r1 - r0) * K].view(item)
                whole = np.ascontiguousarray(entries[a:b]).view(item)[:, 0]
                for i, lo, hi in zip(range(b - a), edges, edges[1:]):
                    fill[lo - r0 : hi - r0] = whole[i]
                keys = _lane_add(np.concatenate(pre, out=bufs[2, : r1 - r0])
                                 [:, None], tmp, p, keys, tmp)
            else:
                keys = _lane_add(np.concatenate(pre)[:, None],
                                 np.repeat(entries[a:b], runs, axis=0), p)
        yield r0 * K, keys.reshape(-1)


def _hash(keys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Keys times an odd constant: a bijection of uint64, so equal hashes
    mean equal keys, whose top bits address the bloom filter."""
    return np.multiply(keys, np.uint64(0x9E3779B97F4A7C15), out=out)


_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)  # bit i of a byte


def _bloom_addr(hashes: np.ndarray, bits: int,
                out: np.ndarray | None = None) -> np.ndarray:
    return np.right_shift(hashes, np.uint64(64 - bits), out=out).view(np.int64)


def _bloom(hashes: np.ndarray, scratch: np.ndarray | None):
    """The bloom filter of sorted ``hashes``, as (filter, bits): 2^bits
    bits, about 16 a hash, packed eight to a ``uint8``.  A hash's address
    is its top bits, so the addresses (``MITM_CHUNK`` at a time, in the
    int64 row ``scratch`` or new arrays) come sorted too: each stretch of
    at most 2^20 bits that they reach is marked in the filter's one
    ``bool`` array and packed into its bytes with one ``packbits``."""
    bits = min(max(len(hashes).bit_length() + 4, 12), 26)
    bloom = np.zeros(1 << (bits - 3), dtype=np.uint8)
    marks = np.zeros(min(1 << 20, 1 << bits), dtype=bool)
    for lo in range(0, len(hashes), MITM_CHUNK):
        chunk = hashes[lo : lo + MITM_CHUNK]
        addr = _bloom_addr(chunk, bits,
                           None if scratch is None else scratch[: len(chunk)])
        i = 0
        while i < len(addr):
            first = int(addr[i]) & ~7  # a byte boundary
            j = i + int(addr[i:].searchsorted(first + (1 << 20)))
            at = addr[i:j]
            at -= first
            marks[at] = True
            packed = np.packbits(marks[: int(at[-1]) + 1], bitorder="little")
            bloom[first >> 3 : (first >> 3) + len(packed)] |= packed
            marks[at] = False  # clear for the next stretch
            i = j
    return bloom, bits


def _equal_keys(ordered: np.ndarray, probe: np.ndarray):
    """Every (i, j) with probe[i] == ordered[j], ``ordered`` sorted, as two
    index arrays, probe-major and then in ``ordered``'s order."""
    left = ordered.searchsorted(probe, side="left")
    counts = ordered.searchsorted(probe, side="right") - left
    return (np.repeat(np.arange(len(probe)), counts),
            np.repeat(left - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum()))


def _mitm_level(code: CyclicCode, table: np.ndarray,
                w: int) -> np.ndarray | None:
    """Full MITM sweep at weight w over the pinned split (module
    docstring), with keys from ``table = _key_table(H, st)``; returns the
    weight-w codewords the split finds, one per row, or None if there are
    none.  A key match puts the sum of the two sides
    in the code, and with A's positions below B's the sides are disjoint,
    so the sum has weight w and no match needs a further check.

    Both sides are built along the colex nesting (``_nested_keys``) in
    blocks of about ``MITM_CHUNK`` keys.  Side A is held once, as the
    sorted hashes (``_hash``) of its word-0 keys.  The bloom filter is set
    from the top bits of the sorted hashes, and B's hashed blocks are
    screened by it and probed, sorted, in the same array.  Only on a match
    is A rebuilt, to find the entries of the matched hashes; the matched
    pairs alone are unranked into supports and coefficients.
    """
    st = code.field.subfield_tables()
    q, n, p = code.q, code.n, st.p
    w1, w2 = (w + 1) // 2, w // 2
    span = _mitm_span(n, w)
    word0 = table[:, :, 0]
    neg0 = table[:, st.neg, 0]  # A's keys are negated syndromes
    sides = _mitm_sides(n, q, w)
    # rows for blocks past glibc's mmap threshold (``_extend``); between
    # blocks rows 1-2 take the bloom addresses and their bytes
    bufs = (np.empty((3, max(MITM_CHUNK, q - 1)), np.uint64)
            if max(sides) * 8 >= 2 * _BLOCK_BYTES else None)

    def row(i, size):  # int64 scratch: a prefix of row i, or a new array
        return None if bufs is None else bufs[i, :size].view(np.int64)

    def side_a():  # position 0 pinned to coefficient 1
        return _nested_keys(neg0, neg0[0, 1], w1 - 1, span, p, bufs)

    # A is never the larger side: hold its hashes, sorted.  A one-hash
    # bloom filter sized to A screens out almost every B key before the
    # binary search, which dominates otherwise.
    hashes = np.empty(sides[0], dtype=np.uint64)
    for lo, keys in side_a():
        _hash(keys, out=hashes[lo : lo + len(keys)])
    hashes.sort()
    # a level of at most MITM_CHUNK / 64 keys a side skips the filter: its
    # few B keys, sorted, search A's hashes, which fit in cache, directly
    tiny = max(sides) <= MITM_CHUNK // 64
    bloom, bits = (None, 0) if tiny else _bloom(hashes, row(1, MITM_CHUNK))
    hits_b, hit_hashes = [], []
    for lo, keys in _nested_keys(word0, np.uint64(0), w2, span, p, bufs):
        _hash(keys, out=keys)
        if tiny:
            maybe = keys.argsort()
        else:  # most survivors are false positives
            addr = _bloom_addr(keys, bits, row(1, len(keys)))
            byte = np.right_shift(addr, 3, out=row(2, len(keys)))
            addr &= 7
            maybe = (bloom.take(byte) & _BIT.take(addr)).nonzero()[0]
            maybe = maybe[keys[maybe].argsort()]
        # sorted probes walk A's sorted hashes in order, which keeps the
        # search in cache
        probe = keys[maybe]
        left = hashes.searchsorted(probe)
        real = hashes[np.minimum(left, len(hashes) - 1)] == probe
        hits_b.append(maybe[real] + lo)
        hit_hashes.append(probe[real])
    matched = np.concatenate(hit_hashes)
    if not len(matched):
        return None
    # A rebuilt, block by block, for the entries of the matched hashes,
    # grouped by hash: one entry per (A, B) pair matching on word 0; the
    # search's index arrays are kept to heap-sized parts of a block
    wanted, part = np.sort(matched), _BLOCK_BYTES // 8
    ai, ah = [], []
    for lo, keys in side_a():
        _hash(keys, out=keys)
        for s in range(0, len(keys), part):
            keys_s = keys[s : s + part]
            at = wanted.searchsorted(keys_s)
            found = (wanted[np.minimum(at, len(wanted) - 1)]
                     == keys_s).nonzero()[0]
            ai.append(found + lo + s)
            ah.append(keys_s[found])
    ah = np.concatenate(ah)
    order = ah.argsort(kind="stable")
    ai, grouped = np.concatenate(ai)[order], ah[order]
    at_b, at_a = _equal_keys(grouped, matched)
    bi, ai = np.concatenate(hits_b)[at_b], ai[at_a]
    Ka, Kb = (q - 1) ** (w1 - 1), (q - 1) ** w2
    sa = np.zeros((len(ai), w1), dtype=np.int64)  # position 0 pinned to 1
    sa[:, 1:] = _colex_unrank(ai // Ka, span, w1 - 1) + 1
    ca = np.ones((len(ai), w1), dtype=np.uint8)
    ca[:, 1:] = _coeff_digits(ai % Ka, q, w1 - 1)
    sb = _colex_unrank(bi // Kb, span, w2) + 1
    cb = _coeff_digits(bi % Kb, q, w2)
    keep = sa[:, -1] < sb[:, 0]
    if table.shape[2] > 1:  # confirm the pairs on every word
        keep &= (_side_keys(table, sa, st.neg[ca], p)
                 == _side_keys(table, sb, cb, p)).all(axis=1)
    if not keep.any():
        return None
    words = np.zeros((int(keep.sum()), n), dtype=np.uint8)
    rows = np.arange(len(words))[:, None]
    words[rows, sa[keep]] = ca[keep]
    words[rows, sb[keep]] = cb[keep]
    return words


def _mitm_sweep(code: CyclicCode, w: int, stop: int | None,
                cfg: DistanceConfig, budget: float = math.inf,
                H: np.ndarray | None = None):
    """MITM levels from weight w upward, while w <= cfg.w_max and w < stop
    (None: no stop).  A level is taken only while neither side exceeds
    ``cfg.mitm_side_limit`` and while the summed side sizes of the
    levels taken so far, this one included, stay below ``budget``.
    Under the enumeration cap the budget is q^max(k-2, 0), the pinned
    walk's size.  The key table is built at the first level taken, from
    ``H`` or, if None, from a parity-check matrix built then.

    Returns (w, hit, blocked).  On a hit, w is the distance and hit the
    level's weight-w codewords; otherwise hit is None and w the first
    weight not ruled out, a certified lower bound.  ``blocked``: the
    sweep stopped at a level over the side limit or the budget.
    """
    keys, table = 0, None
    while w <= cfg.w_max and (stop is None or w < stop):
        sides = _mitm_sides(code.n, code.q, w)
        keys += sum(sides)
        if max(sides) > cfg.mitm_side_limit or keys >= budget:
            return w, None, True
        if table is None:  # the same H at every level
            if H is None:
                H = code.parity_check_matrix()
            table = _key_table(H, code.field.subfield_tables())
        hit = _mitm_level(code, table, w)
        if hit is not None:
            return w, hit, False
        w += 1
    return w, None, False


def _smallest_shift(words: np.ndarray, st: SubfieldTables) -> tuple[int, ...]:
    """Lexicographically smallest word among all cyclic shifts and nonzero
    scalar multiples of the given nonzero words.

    That word leads with a longest cyclic run of zeros and has 1 right
    after it, so only the shifts that start right after such a run are
    built, each scaled to put 1 there.  Chunks of words are compared by
    their own smallest candidates: more leading zeros is smaller.
    """
    n = words.shape[1]
    col = np.arange(2 * n, dtype=np.int32)
    best = None
    step = max(1, (1 << 20) // n)
    for lo in range(0, len(words), step):
        chunk = words[lo : lo + step]
        twice = np.concatenate([chunk, chunk], axis=1)
        last = np.maximum.accumulate(np.where(twice == 0, -1, col), axis=1)
        # before[i, j]: the cyclic run of zeros ending just before j
        before = (col - last)[:, n - 1 : 2 * n - 1]
        run = int(before.max())
        i, j = np.nonzero(before == run)  # nonzero at j: no longer run
        shifted = twice[i[:, None], ((j - run) % n)[:, None] + col[:n]]
        scaled = st.mul[st.inv[shifted[:, run]][:, None], shifted]
        # uint8 rows order as their bytes do
        cand = min(row.tobytes() for row in scaled)
        best = cand if best is None else min(best, cand)
    return tuple(best)


# -- seeded information-set witness search ------------------------------------


def _rref_codes(M: np.ndarray, st: SubfieldTables):
    """Reduced row echelon form over GF(q) codes; returns (rref, pivots)."""
    A = M.astype(np.uint8)
    rows, cols = A.shape
    sub = st.sub.reshape(-1)  # sub[x * q + y] = x - y
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = np.nonzero(A[r:, c])[0]
        if len(piv) == 0:
            continue
        piv = int(piv[0]) + r
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = st.mul[st.inv[A[r, c]], A[r]]
        other = np.nonzero(A[:, c])[0]
        other = other[other != r]
        if len(other):
            multiples = st.mul[:, A[r]]  # multiples[x] = x * A[r]
            rest = A[other]
            A[other] = sub[rest.astype(np.intp) * st.q
                           + multiples[rest[:, c]]]
        pivots.append(c)
        r += 1
    return A[:r], pivots


class _WitnessSearch:
    """Best-effort low-weight codewords via random information sets, as a
    search that can be resumed.

    Deterministic for a fixed config: the RNG is seeded from ISD_SEED and
    the generator polynomial.  The RNG, the best word and the number of
    information sets used persist across ``run`` calls, so a run that
    resumes a stopped one draws exactly the sets a fresh search would draw
    next, and no set is reduced twice.  A run without ``stall`` adds the
    collision step (``_collisions``) to each set; it draws nothing from
    the RNG, so it changes which words a set yields, not which sets.
    """

    def __init__(self, code: CyclicCode, cfg: DistanceConfig):
        self.code, self.cfg = code, cfg
        self.H = code.parity_check_matrix()
        seed = (ISD_SEED, zlib.crc32(code.g.text().encode()), code.n, code.q)
        self.rng = np.random.default_rng(abs(hash(seed)) % (1 << 63))
        self.best_w: int | None = None
        self.best_c: np.ndarray | None = None
        self.sets = 0  # information sets reduced so far, over all runs

    def run(self, stop_at: int, stall: int | None = None
            ) -> tuple[int, np.ndarray] | None:
        """Draw information sets until the best weight is at most
        ``stop_at``, ``stall`` sets of this run bring no improvement, or
        ``cfg.isd_iterations`` sets have been used in all; with no
        ``stall``, each set also takes the collision step.  Returns the
        best (weight, codeword) so far, or None.

        ``stop_at`` is a proven lower bound on the distance (the BCH bound
        or completed MITM levels), so a word of that weight is a minimum
        one and no pair of its set can beat it."""
        st = self.code.field.subfield_tables()
        since_improved = 0
        while (self.sets < self.cfg.isd_iterations
               and (self.best_w is None or self.best_w > stop_at)
               and (stall is None or since_improved < stall)):
            prev_best = self.best_w
            self._draw(st, stop_at, collide=stall is None)
            self.sets += 1
            since_improved = (0 if self.best_w != prev_best
                              else since_improved + 1)
        if self.best_w is None:
            return None
        return self.best_w, self.best_c

    def _draw(self, st: SubfieldTables, floor: int,
              collide: bool = False) -> None:
        """Reduce one random information set and score the rows of its
        systematic generator: single rows and, unless one of them already
        weighs ``floor``, every row pair with a free scalar on the second.
        With ``collide``, ``_collisions`` then scores 2 + 2 words.  Each
        replaces the best only when it is strictly lighter.

        H's permuted columns are reduced from the right, so its pivots are
        the check columns and the rest, ``info``, is the information set a
        left-to-right reduction of G picks (matroid duality).  With
        A = Rh[:, info], generator row i is 1 at info[i] and -A[:, i] on
        the pivots, so it weighs 1 + nnz(A[:, i]); only the lightest word
        is written out, straight into code coordinates."""
        n, k = self.code.n, self.code.k
        cols = self.rng.permutation(n)[::-1]  # code coordinate per column
        Rh, checks = _rref_codes(self.H[:, cols], st)
        if len(checks) != n - k:  # H has rank n - k for every cyclic code
            raise InternalError("information set of the wrong size")
        info = np.ones(n, dtype=bool)
        info[checks] = False
        # ascending in permuted order, G's row order, for the tie-breaks
        info = np.flatnonzero(info)[::-1]
        A = Rh[:, info]
        best_w = n + 1 if self.best_w is None else self.best_w
        rows = None  # the best word's (generator row, scalar) terms
        weights = 1 + np.count_nonzero(A, axis=0)
        i = int(np.argmin(weights))
        if weights[i] < best_w:
            best_w, rows = int(weights[i]), [(i, 1)]
        if best_w > floor:  # else the row is a minimum word: no pair beats it
            # -A has the zeros of A; an equal pair found later never
            # replaces the best word
            w, c, i, j = _pair_weights(A.T, st)
            if w < best_w:
                best_w, rows = w, [(i, 1), (j, c)]
        if collide and best_w > max(floor, 4):  # 2 + 2 words weigh >= 4
            found = _collisions(A, st, self.cfg.mitm_side_limit)
            if found is not None and found[0] < best_w:
                best_w, rows = found
        if rows is not None:
            word = np.zeros(n, dtype=np.uint8)
            check = np.zeros(n - k, dtype=np.uint8)
            for i, c in rows:
                word[cols[info[i]]] = c
                check = st.add[check, st.mul[c, A[:, i]]]
            word[cols[checks]] = st.neg[check]
            self.best_w, self.best_c = best_w, word


def _collisions(A: np.ndarray, st: SubfieldTables, limit: int):
    """Stern's collision step on a set's block A, (n - k) x k (``_draw``):
    the lightest R[i] + c R[j] + c' R[u] + c'' R[v], i < j < k // 2 <= u <
    v, whose check part is zero on A's first l rows, as (weight, its
    (row, scalar) terms), or None.  Side X holds the window keys
    (``_key_table``) of A[:, i] + c A[:, j], side Y those of
    -(c' A[:, u] + c'' A[:, v]); l = round(log_q |Y|), kept in 1..n - k - 1
    and in one key word, so about sqrt(|X| |Y|) pairs match.  Only those
    are weighed in full, 4 + nnz, and the first lightest in (X index,
    Y index) order wins.  Sets with k < 4 or n - k < 2, or a side over
    ``limit`` keys, skip the step.
    """
    r, k = A.shape
    q, p, t, h, b = st.q, st.p, st.t, k // 2, _lane_bits(st.p)
    pairs_x = np.stack(np.triu_indices(h, 1), axis=1)  # (i, j) ascending
    pairs_y = np.stack(np.triu_indices(k - h, 1), axis=1) + h
    cx = _coeff_digits(np.arange(q - 1), q, 2)  # (1, c)
    cy = _coeff_digits(np.arange((q - 1) ** 2), q, 2)
    ny = len(pairs_y) * len(cy)
    if k < 4 or r < 2 or ny > limit:
        return None
    ell = min(max(1, round(math.log(ny, q))), r - 1, 64 // b // t)
    window = _key_table(A[:ell], st)[:, :, 0]
    keys_x = _side_keys(window, pairs_x[:, None], cx[None], p).reshape(-1)
    keys_y = _side_keys(window, pairs_y[:, None], st.neg[cy][None],
                        p).reshape(-1)
    order_x, order_y = keys_x.argsort(), keys_y.argsort()
    at_y, at_x = _equal_keys(keys_x[order_x], keys_y[order_y])
    if not len(at_y):
        return None
    x, y = order_x[at_x], order_y[at_y]
    pos = np.concatenate([pairs_x[x // (q - 1)], pairs_y[y // len(cy)]], 1)
    coeffs = np.concatenate([cx[x % (q - 1)], cy[y % len(cy)]], 1)
    checks = _side_keys(_key_table(A, st), pos, coeffs, p)  # (m, W)
    # each lane's bits ORed into its low bit, then a symbol's t lanes
    nonzero = np.bitwise_or.reduce([checks >> np.uint64(s) for s in range(b)])
    bits = np.unpackbits(nonzero.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little").reshape(len(x), -1, 64)
    digits = bits[:, :, : 64 // b * b : b].reshape(len(x), -1)
    symbols = np.bitwise_or.reduce(
        [digits[:, s : r * t : t] for s in range(t)])
    weights = 4 + np.count_nonzero(symbols, axis=1)
    tied = np.flatnonzero(weights == weights.min())
    best = tied[np.argmin(x[tied] * ny + y[tied])]
    return int(weights[best]), list(zip(pos[best], coeffs[best]))


def _pair_weights(P: np.ndarray, st: SubfieldTables):
    """The lightest R[i] + c * R[j], i != j, of a systematic R whose
    non-pivot part is P or -P (k x L), the first in (c, i, j) order, as
    (weight, c, i, j): 2 for the pivots plus the nonzero count of
    P[i] + c * P[j].  For k = 1, no pair: weight L + 3, above any word's.

    That sum is nonzero at l iff P[i, l] != -c * P[j, l].  Each code's
    ceil(log2 q) bits are packed as bit planes, 64 columns to a word; two
    codes differ where any plane differs, so the count is the popcount of
    the planes' XORs, ORed together, in blocks of rows i whose XOR takes
    at most ``_BLOCK_BYTES``, into two arrays that every block reuses.
    """
    (k, L), q = P.shape, st.q
    scalars = np.arange(1, q)[:, None, None]
    neg = st.neg[st.mul[scalars, P]]  # neg[c - 1, j] is -c * P[j]
    b, W = (q - 1).bit_length(), max(1, -(-L // 64))  # L = 0: one word
    shifts = np.arange(b, dtype=np.uint8)[:, None, None]

    def planes(M):  # (rows, L) codes -> (b, rows, W) uint64
        words = np.zeros((b, len(M), W * 8), dtype=np.uint8)
        words[:, :, : -(-L // 8)] = np.packbits(M >> shifts & 1, axis=2,
                                                bitorder="little")
        return words.view(np.uint64)

    mine = planes(P)[:, None, :, None]  # axes: plane, c, i, j, word
    theirs = planes(neg.reshape((q - 1) * k, L)).reshape(b, q - 1, 1, k, W)
    best = (L + 3, 1, 0, 0)
    step = min(k, max(1, _BLOCK_BYTES // theirs[0].nbytes))
    # a block's XOR and one plane's, reused by every block: rows i on axis 1
    bufs = np.empty((2, q - 1, step, k, W), dtype=np.uint64)
    for i0 in range(0, k, step):
        rows = np.arange(min(step, k - i0))
        differ, plane = bufs[:, :, : len(rows)]
        np.bitwise_xor(mine[0, :, i0 : i0 + step], theirs[0], out=differ)
        for x, y in zip(mine[1:, :, i0 : i0 + step], theirs[1:]):
            differ |= np.bitwise_xor(x, y, out=plane)
        np.bitwise_count(differ, out=differ)
        count = differ[..., 0]  # summed over the words in place
        for w in range(1, W):
            count += differ[..., w]
        count[:, rows, rows + i0] = L + 1  # i = j is no pair
        at = int(count.argmin())  # (c, i, j) flat, in order
        c, i, j = at // (len(rows) * k), at // k % len(rows), at % k
        best = min(best, (2 + int(count[c, i, j]), c + 1, i0 + i, j))
    return best


# -- top-level distance -------------------------------------------------------


def minimum_distance(code: CyclicCode,
                     cfg: DistanceConfig | None = None) -> DistanceResult:
    """Exact minimum Hamming weight where the strategy allows, else the
    best certified lower bound (see module docstring).

    This is the engines' one exit: the lightest words an engine reports
    must all have its weight, and their ``_smallest_shift`` must be a
    codeword, before that form is the witness."""
    cfg = cfg or DistanceConfig()
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    method, value, lb, found = _search(code, cfg)
    witness = None
    if found is not None:
        engine, w, words = found
        words = np.atleast_2d(words)
        if w >= 1 and (np.count_nonzero(words, axis=1) == w).all():
            witness = _smallest_shift(words, code.field.subfield_tables())
        if witness is None or not code.contains(
                np.array(witness, dtype=np.uint8)):
            raise InternalError(f"{engine} produced a non-codeword")
    return DistanceResult(value, method, bch_bound=lb, witness=witness)


def _search(code: CyclicCode, cfg: DistanceConfig):
    """Run the engines in the module docstring's order.  Returns (method,
    value, BCH bound, found), with found None or (engine, weight, words):
    the engine that decided, the weight of its lightest words and those
    words, one per row."""
    if code.k == code.n:
        # d = 1: the unit word, in the normal form (0, ..., 0, 1)
        return "exhaustive", 1, 1, ("exhaustive enumeration", 1,
                                    np.eye(1, code.n, dtype=np.uint8))

    lb = bch_lower_bound(code)
    if code.q**code.k <= cfg.full_enum_limit:
        w, hit, _ = _mitm_sweep(code, lb, None, cfg,
                                budget=code.q ** max(code.k - 2, 0))
        if hit is not None:
            return "mitm", w, lb, ("meet-in-the-middle", w, hit)
        d, words = _exhaustive_distance(code)
        return "exhaustive", d, lb, ("exhaustive enumeration", d, words)

    search = _WitnessSearch(code, cfg)
    isd = search.run(lb, stall=ISD_STALL)
    upper = isd[0] if isd else None

    certified, hit, hit_wall = _mitm_sweep(code, lb, upper, cfg,
                                           H=search.H)
    if hit is not None:
        return "mitm", certified, lb, ("meet-in-the-middle", certified, hit)

    if hit_wall and (upper is None or upper > certified):
        # the quick witness pass stalled above the certified floor and the
        # sweep cannot continue; resume it with the full witness budget
        isd = search.run(certified)
        upper = isd[0] if isd else None

    found = None if isd is None else ("witness search", *isd)
    if upper is not None and upper == certified:
        # a completed level raised the certified bound above the BCH bound
        method = "mitm+witness" if certified > lb else "bch+witness"
        return method, certified, lb, found
    # unresolved: the value is the certified lower bound only
    return "bch-only", certified, lb, found


# -- secondary parity-check construction (cross-check) ------------------------


def parity_matrix_from_roots(code: CyclicCode) -> np.ndarray:
    """Parity rows from evaluating positions at the generator's roots,
    grouped by coset; same row space as the Toeplitz construction.

    Row block j holds the m GF(q)-coordinates of alpha^(j * pos) in the
    basis alpha^0 .. alpha^(m-1), read off one table built from all q^m
    coefficient vectors: c stands for sum_u c_u alpha^u.
    """
    F = code.field
    st, vt = F.subfield_tables(), F.vec_tables()
    n, q, m = code.n, code.q, F.m
    coeffs = np.arange(q**m)[:, None] // q ** np.arange(m) % q  # (q^m, m)
    logs = st.code_to_log[coeffs]
    terms = np.where(logs == ZERO, n, (logs + np.arange(m)) % n)
    exp_vec = np.vstack([vt.exp_vec, np.zeros((1, vt.deg), np.uint8)])
    x = vt.logs_of_vecs(exp_vec[terms].sum(axis=1, dtype=np.int64) % F.p)
    if (np.sort(x) != np.arange(ZERO, n)).any():  # q^m = n + 1 logs
        raise InternalError("alpha^0 .. alpha^(m-1) is not a GF(q)-basis")
    coord = np.empty((n + 1, m), dtype=np.uint8)  # by log, ZERO last
    coord[x] = coeffs
    cosets = coset_table(n, q)
    leaders = cosets.leaders[np.unique(cosets.index[list(code.zeros)])]
    pos = np.arange(n)
    return np.concatenate([np.zeros((0, n), np.uint8)]  # no roots: k = n
                          + [coord[j * pos % n].T for j in leaders])
