"""Cyclic codes over GF(q): construction from sequences, BCH bound, exact
minimum distance, weight distribution, and even-like subcodes.

Distance strategy, in order:

* **exhaustive** - if q^k fits under the enumeration cap, every codeword
  is generated once, in one pass: a table spanning the first generator
  rows is translated by a q-ary Gray-code walk over the others, so the
  minimum weight and its witness are exact.  A high-rate code (n - k < k)
  under the cap first tries the MITM sweep below, taking a level only
  while the levels' summed side sizes stay below q^k; enumeration runs
  when that budget runs out or a level is infeasible.  Low-rate codes
  are enumerated directly, which is cheaper for them.
* **mitm** - otherwise weights w are swept upward from the BCH lower
  bound, so a level that completes without a match raises the certified
  bound to w + 1, and the first match is exact.  Each level is a
  meet-in-the-middle match over syndromes of a pinned split: some cyclic
  shift of every weight-w codeword, scaled, has coordinate 0 equal to 1,
  so side A is position 0 with coefficient 1 plus ceil(w/2) - 1 positions
  of 1..n-1 and side B is floor(w/2) positions of 1..n-1.  Only matches
  with every A position below every B position are kept, so each is a
  distinct weight-w codeword; the witness is the lexicographically
  smallest of their shifts and multiples, checked once, which is the
  witness enumeration would return.
* **witness search** - a seeded information-set search provides verified
  low-weight codewords cheaply.  When the best witness weight equals the
  certified lower bound the distance is exact even where a full MITM
  level would be infeasible (method ``bch+witness`` / ``mitm+witness``).
  Each iteration brings a random permutation's greedy information set to
  systematic form.  When n - k < k this reduces the parity-check matrix's
  n - k rows, scanning from the right, instead of the generator's k rows:
  by matroid duality its check columns are the complement of the
  generator's information set, so the systematic generator is the same.
  Single rows and every pair R[i] + c * R[j] are scored; the pairs'
  weights come from one contraction of one-hot encodings of the
  non-pivot columns, counting where P[i] equals -c * P[j].

Every codeword any search reports is re-verified against the generator
polynomial before it is believed.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import _codes
from .dickson import DicksonSpec
from .galois import Field, SubfieldTables, ZERO
from .lfsr import MinimalPolyResult, PeriodicSequence, minimal_poly_dft, minimal_poly_gcd
from .polyring import Poly, coset_leaders, cyclotomic_coset


@dataclass
class DistanceConfig:
    """Tunables for the distance engine; defaults decide every table row."""

    full_enum_limit: int = 1 << 22
    w_max: int = 13
    isd_iterations: int = 240
    isd_stall: int = 16
    mitm_side_limit: int = 32_000_000
    seed: int = 20240915

    def __post_init__(self):
        if self.w_max < 1:
            raise ValueError("w_max must be >= 1")


@dataclass(frozen=True)
class DistanceResult:
    value: int
    exact: bool
    method: str
    bch_bound: int
    witness: tuple[int, ...] | None = None  # subfield codes, length n
    certified_lower: int = 0

    def describe(self) -> str:
        return f"{'d = ' if self.exact else 'd >= '}{self.value} [{self.method}]"


class CyclicCode:
    """Cyclic [n, k] code over GF(q) with generator polynomial g."""

    def __init__(self, field: Field, g: Poly,
                 provenance: DicksonSpec | None = None):
        if g.field is not field:
            raise ValueError("generator polynomial belongs to a different field")
        if not g.is_monic():
            raise ValueError("generator polynomial must be monic")
        if not g.in_subfield():
            raise ValueError("generator coefficients must lie in GF(q)")
        self.field = field
        self.n = field.n
        self.q = field.q
        self.g = g
        st = field.subfield_tables()
        xn1 = _xn1_codes(field)
        quot, rem = _codes.codes_divmod(xn1, _codes.poly_to_codes(g, st), st)
        if len(rem):
            raise ValueError("generator does not divide x^n - 1")
        self.h = _codes.codes_to_poly(quot, st)
        self.k = self.n - g.degree
        self.provenance = provenance

    def __repr__(self):
        return f"CyclicCode[n={self.n}, k={self.k}, q={self.q}]"

    # -- matrices ---------------------------------------------------------

    def generator_matrix(self) -> np.ndarray:
        """k x n matrix of subfield codes; rows are x^i * g."""
        st = self.field.subfield_tables()
        g_codes = _codes.poly_to_codes(self.g, st)
        G = np.zeros((self.k, self.n), dtype=np.uint8)
        for i in range(self.k):
            G[i, i : i + len(g_codes)] = g_codes
        return G

    def parity_check_matrix(self) -> np.ndarray:
        """(n-k) x n parity-check from the parity polynomial h (Toeplitz)."""
        st = self.field.subfield_tables()
        h_codes = _codes.poly_to_codes(self.h, st)
        rev = h_codes[::-1].copy()
        H = np.zeros((self.n - self.k, self.n), dtype=np.uint8)
        for i in range(self.n - self.k):
            H[i, i : i + len(rev)] = rev
        return H

    def root_exponents(self) -> list[int]:
        """R = {i in Z_n : g(alpha^i) = 0}, sorted.

        g has coefficients in GF(q), so g(b^q) = g(b)^q and R is a union of
        q-cyclotomic cosets: g is evaluated once per coset leader.
        """
        roots = []
        for leader in coset_leaders(self.n, self.q):
            if self.g(leader) == ZERO:
                roots.extend(cyclotomic_coset(self.n, self.q, leader).members)
        return sorted(roots)

    # -- membership ----------------------------------------------------------

    def contains(self, codes: np.ndarray) -> bool:
        """Whether a code-vector (length n, subfield codes) is a codeword."""
        st = self.field.subfield_tables()
        g_codes = _codes.poly_to_codes(self.g, st)
        rem = _codes.codes_mod(np.asarray(codes, dtype=np.int16), g_codes, st)
        return len(rem) == 0


def _xn1_codes(field: Field) -> np.ndarray:
    st = field.subfield_tables()
    xn1 = np.zeros(field.n + 1, dtype=np.int16)
    xn1[0] = st.neg[st.scalar_code(1)]
    xn1[field.n] = st.scalar_code(1)
    return xn1


def code_from_sequence(s: PeriodicSequence) -> CyclicCode:
    """The code defined by a sequence: g = (x^n - 1)/gcd(S(x), x^n - 1).

    The generator is computed by the gcd formula and asserted equal to the
    spectral minimal polynomial, so both lemma routes back every code.
    """
    res_gcd: MinimalPolyResult = minimal_poly_gcd(s)
    res_dft: MinimalPolyResult = minimal_poly_dft(s)
    if res_gcd.poly != res_dft.poly:
        raise AssertionError("gcd and spectral minimal polynomials disagree")
    return CyclicCode(s.field, res_gcd.poly, provenance=s.provenance)


def code_from_generator(field: Field, g: Poly) -> CyclicCode:
    """Cyclic code from an explicit monic divisor of x^n - 1."""
    return CyclicCode(field, g)


def bch_lower_bound(code: CyclicCode) -> int:
    """Largest delta such that the roots of g contain delta-1 consecutive
    exponents (cyclically); the minimum distance is at least delta."""
    roots = code.root_exponents()
    run = _longest_cyclic_run(roots, code.n)
    neg = sorted((-i) % code.n for i in roots)
    if _longest_cyclic_run(neg, code.n) != run:
        raise AssertionError("run length differs between R and -R")
    return run + 1


def _longest_cyclic_run(sorted_vals: list[int], n: int) -> int:
    if not sorted_vals:
        return 0
    if len(sorted_vals) == n:
        return n
    runs = []
    current = 1
    for prev, cur in zip(sorted_vals, sorted_vals[1:]):
        if cur == prev + 1:
            current += 1
        else:
            runs.append(current)
            current = 1
    runs.append(current)
    # wrap-around join
    if sorted_vals[0] == 0 and sorted_vals[-1] == n - 1 and len(runs) > 1:
        runs[0] += runs.pop()
    return max(runs)


def even_like_subcode(code: CyclicCode) -> CyclicCode:
    """Subcode of codewords with coordinate sum zero.

    If (x-1) already divides g the code is its own even-like subcode;
    otherwise the generator picks up the extra factor (x-1).
    """
    if code.g(code.field.one) == ZERO:
        return code
    x_minus_1 = Poly(code.field, (code.field.neg(code.field.one), code.field.one))
    return CyclicCode(code.field, (code.g * x_minus_1).monic(),
                      provenance=code.provenance)


# -- exhaustive enumeration ---------------------------------------------------


_SPAN_ROWS = 1 << 16  # rows of the spanned table, and of every block


def codeword_blocks(code: CyclicCode):
    """Yield every codeword exactly once, as uint8 blocks of subfield
    codes with shape (block, n).

    The GF(q)-span of the first ``a`` generator rows (q^a <= 2^16) is built
    once as a table.  The span of the other k - a rows is walked in q-ary
    Gray-code order, one scaled row added per step, and each block is the
    table translated by the current outer codeword.  The working set is
    that table plus one block, whatever q^k is.
    """
    st = code.field.subfield_tables()
    q, n, k = code.q, code.n, code.k
    G = code.generator_matrix()
    a = 0
    while a < k and q ** (a + 1) <= _SPAN_ROWS:
        a += 1
    # column-major: column j of every block is one table lookup per entry
    low = np.zeros((n, 1), dtype=np.uint8)
    for row in G[:a]:
        scaled = st.mul[row]  # (n, q): scaled[j, c] = row[j] * c
        low = st.add[low[:, None, :], scaled[:, :, None]].reshape(n, -1)
    outer = np.zeros(n, dtype=np.uint8)
    digits = [0] * (k - a)
    for step in range(q ** (k - a)):
        if step:
            # modular Gray code: digit j = (trailing zeros of step in base
            # q) advances by one, so the outer word gains one scaled row
            j, rest = 0, step
            while rest % q == 0:
                j, rest = j + 1, rest // q
            nxt = (digits[j] + 1) % q
            delta = st.add[nxt, st.neg[digits[j]]]
            outer = st.add[outer, st.mul[delta, G[a + j]]]
            digits[j] = nxt
        shift = st.add[outer]  # (n, q): shift[j, x] = outer[j] + x
        block = np.empty_like(low)
        for j in range(n):
            np.take(shift[j], low[j], out=block[j])
        yield block.T


def _exhaustive_distance(code: CyclicCode) -> tuple[int, tuple[int, ...]]:
    """Minimum weight and the lexicographically smallest codeword of that
    weight, in one pass over all codewords."""
    best_w, witness = code.n + 1, None
    for block in codeword_blocks(code):
        weights = np.count_nonzero(block, axis=1)
        weights[weights == 0] = code.n + 1  # the zero codeword
        w = int(weights.min())
        if w > best_w:
            continue
        hits = block[weights == w]
        first = np.lexsort(hits.T[::-1])[0]  # column 0 is the primary key
        cand = tuple(int(x) for x in hits[first])
        if w < best_w or cand < witness:
            best_w, witness = w, cand
    if witness is None or not code.contains(np.array(witness, dtype=np.int16)):
        raise AssertionError("exhaustive enumeration produced a non-codeword")
    return best_w, witness


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
        raise AssertionError("enumeration did not visit q^k codewords")
    return {w: int(c) for w, c in enumerate(counts) if c}


# -- meet-in-the-middle syndrome search ---------------------------------------


class _MitmInfeasible(Exception):
    pass


def _mitm_sides(n: int, q: int, w: int) -> tuple[int, int]:
    """Key counts of sides A and B of the pinned split at weight w."""
    w1, w2 = (w + 1) // 2, w // 2
    # side A pins coordinate 0 to 1; both sides draw the rest from 1..n-1
    return (math.comb(n - 1, w1 - 1) * (q - 1) ** (w1 - 1),
            math.comb(n - 1, w2) * (q - 1) ** w2)


def _check_mitm_feasible(code: CyclicCode, w: int, cfg: DistanceConfig):
    F = code.field
    digits_total = (code.n - code.k) * F.t
    if digits_total * np.log2(F.p) > 62:
        raise _MitmInfeasible("syndrome key exceeds 64-bit packing")
    side = max(_mitm_sides(code.n, code.q, w))
    if side > cfg.mitm_side_limit:
        raise _MitmInfeasible(f"side size {side} over limit")


def _coeff_grid(q: int, slots: int, pin_first: bool) -> np.ndarray:
    """All coefficient tuples over GF(q)* for the support slots."""
    ranges = [[1] if s == 0 and pin_first else range(1, q)
              for s in range(slots)]
    return np.array(list(itertools.product(*ranges)), dtype=np.uint8)


def _colex_array(n: int, w: int) -> np.ndarray:
    """All size-w supports of range(n) in colex order, shape (C(n,w), w).

    Colex nests: the supports of range(last) are a prefix of those of
    range(n), so each level is assembled from prefix slices of the one
    below it.  Positions are int16 while n itself fits, so a caller may
    add 1 to them; int32 beyond.
    """
    dtype = np.int16 if n < 1 << 15 else np.int32
    if w == 0:
        return np.zeros((1, 0), dtype=dtype)
    level = np.arange(n, dtype=dtype).reshape(-1, 1)
    for j in range(2, w + 1):
        parts = []
        for last in range(j - 1, n):
            prefix = level[: math.comb(last, j - 1)]
            col = np.full((len(prefix), 1), last, dtype=dtype)
            parts.append(np.hstack([prefix, col]))
        level = np.vstack(parts)
    return level


def _side_keys(H: np.ndarray, st: SubfieldTables, pos: np.ndarray,
               coeffs: np.ndarray, negate: bool):
    """Packed syndrome keys, one per (support, coefficient) combination,
    C-ordered with the coefficient index minor."""
    p, t = st.p, st.t
    C, w = pos.shape
    K = len(coeffs)
    R = H.shape[0]
    acc = np.zeros((C, K, R, t), dtype=np.int16)
    cols = H[:, pos]  # (R, C, w)
    for s in range(w):
        col_s = cols[:, :, s]  # (R, C)
        prod = st.mul[coeffs[:, s][:, None, None], col_s[None, :, :]]  # (K, R, C)
        acc += st.digits[prod].transpose(2, 0, 1, 3)
    acc %= p
    if negate:
        acc = (p - acc) % p
    weights = p ** np.arange(R * t, dtype=np.int64)
    keys = acc.reshape(C, K, R * t).astype(np.int64) @ weights
    return keys


def _xor_key_table(H: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """(n, q) uint64 table of bit-packed syndromes of c * H[:, j].

    Characteristic 2 only: adding syndromes is then XOR of packed keys.
    """
    R, n = H.shape
    q, t = st.q, st.t
    bits = np.uint64(1) << np.arange(R * t, dtype=np.uint64)
    table = np.zeros((n, q), dtype=np.uint64)
    for c in range(q):
        dig = st.digits[st.mul[c, H]]  # (R, n, t)
        flat = dig.transpose(1, 0, 2).reshape(n, R * t).astype(np.uint64)
        table[:, c] = (flat * bits[None, :]).sum(axis=1, dtype=np.uint64)
    return table


def _side_keys_xor(table: np.ndarray, pos: np.ndarray,
                   coeffs: np.ndarray) -> np.ndarray:
    C, w = pos.shape
    K = len(coeffs)
    acc = np.zeros((C, K), dtype=np.uint64)
    for s in range(w):
        acc ^= table[pos[:, s][:, None], coeffs[None, :, s]]
    return acc


def _bloom_addr(keys: np.ndarray, bits: int) -> np.ndarray:
    mixed = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (mixed >> np.uint64(64 - bits)).astype(np.int64)


def _mitm_level(code: CyclicCode, H: np.ndarray, w: int,
                cfg: DistanceConfig) -> tuple[int, ...] | None:
    """Full MITM sweep at weight w over the pinned split (module
    docstring); returns the lexicographically smallest codeword of weight
    w, or None if none exists.  A key match puts the sum of the two sides
    in the code, and with A's positions below B's the sides are disjoint,
    so the sum has weight w and no match needs a further check.
    """
    _check_mitm_feasible(code, w, cfg)
    F = code.field
    st = F.subfield_tables()
    q, n = code.q, code.n
    w1, w2 = (w + 1) // 2, w // 2

    rest = _colex_array(n - 1, w1 - 1) + 1
    pos_a = np.hstack([np.zeros((len(rest), 1), dtype=rest.dtype), rest])
    pos_b = _colex_array(n - 1, w2) + 1
    coeff_a = _coeff_grid(q, w1, pin_first=True)
    coeff_b = _coeff_grid(q, w2, pin_first=False)
    Ka, Kb = len(coeff_a), len(coeff_b)
    xor_table = _xor_key_table(H, st) if F.p == 2 else None

    def key_chunks(pos, coeffs, negate):
        """(first support, flat keys) per chunk of supports, C-ordered with
        the coefficient index minor."""
        per = len(coeffs) * (1 if xor_table is not None else H.shape[0] * F.t)
        step = max(1, (1 << 23) // per)
        for lo in range(0, len(pos), step):
            part = pos[lo : lo + step]
            if xor_table is not None:
                keys = _side_keys_xor(xor_table, part, coeffs)
            else:
                keys = _side_keys(H, st, part, coeffs, negate)
            yield lo, keys.reshape(-1)

    # A is never the larger side: materialize it, sorted by key
    keys_a = np.concatenate([k for _, k in key_chunks(pos_a, coeff_a, True)])
    order = np.argsort(keys_a)
    keys_sorted = keys_a[order]

    # one-hash bloom filter sized to A: screens out almost every probe key
    # before the binary search, which dominates otherwise
    bloom_bits = min(max(len(keys_a).bit_length() + 4, 12), 26)
    bloom = np.zeros(1 << bloom_bits, dtype=bool)
    bloom[_bloom_addr(keys_sorted, bloom_bits)] = True

    found = []
    for lo, keys_b in key_chunks(pos_b, coeff_b, False):
        maybe = np.flatnonzero(bloom[_bloom_addr(keys_b, bloom_bits)])
        left = np.searchsorted(keys_sorted, keys_b[maybe], side="left")
        counts = np.searchsorted(keys_sorted, keys_b[maybe], side="right") - left
        # one entry per matching (A, B) pair
        bi = np.repeat(maybe, counts) + lo * Kb
        ai = order[np.repeat(left - np.cumsum(counts) + counts, counts)
                   + np.arange(counts.sum())]
        sa, sb = pos_a[ai // Ka], pos_b[bi // Kb]
        keep = sa[:, -1] < sb[:, 0]
        if not keep.any():
            continue
        words = np.zeros((int(keep.sum()), n), dtype=np.uint8)
        rows = np.arange(len(words))[:, None]
        words[rows, sa[keep]] = coeff_a[ai[keep] % Ka]
        words[rows, sb[keep]] = coeff_b[bi[keep] % Kb]
        found.append(words)
    if not found:
        return None
    witness = _smallest_shift(np.concatenate(found), st)
    vec = np.array(witness, dtype=np.int16)
    if int(np.count_nonzero(vec)) != w or not code.contains(vec):
        raise AssertionError("meet-in-the-middle produced a non-codeword")
    return witness


def _mitm_sweep(code: CyclicCode, H: np.ndarray, w: int, stop: int | None,
                cfg: DistanceConfig, budget: int | None = None):
    """MITM levels from weight w upward, while w <= cfg.w_max and w < stop
    (None: no stop).  With a budget, a level is taken only while the
    summed side sizes of the levels taken so far, this one included, stay
    below it.

    Returns (w, hit, swept, blocked).  On a hit, w is its weight and the
    distance; otherwise hit is None and w the first weight not ruled out,
    a certified lower bound.  ``swept``: some level completed.
    ``blocked``: the sweep stopped at an infeasible or over-budget level.
    """
    keys, swept = 0, False
    while w <= cfg.w_max and (stop is None or w < stop):
        keys += sum(_mitm_sides(code.n, code.q, w))
        if budget is not None and keys >= budget:
            return w, None, swept, True
        try:
            hit = _mitm_level(code, H, w, cfg)
        except _MitmInfeasible:
            return w, None, swept, True
        swept = True
        if hit is not None:
            return w, hit, swept, False
        w += 1
    return w, None, swept, False


def _smallest_shift(words: np.ndarray, st: SubfieldTables) -> tuple[int, ...]:
    """Lexicographically smallest word among all cyclic shifts and nonzero
    scalar multiples of the given nonzero words."""
    m, n = words.shape
    # shift s moves coordinate j - s to j: x^s times the word
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    best = None
    step = max(1, (1 << 22) // (n * n))
    for lo in range(0, m, step):
        shifted = words[lo : lo + step][:, idx].reshape(-1, n)
        lead = np.argmax(shifted != 0, axis=1)
        # the smallest multiple has first nonzero 1 and the most zeros before it
        top = lead.max()
        shifted = shifted[lead == top]
        scaled = st.mul[st.inv[shifted[:, top]][:, None], shifted]
        cand = tuple(int(x) for x in scaled[np.lexsort(scaled.T[::-1])[0]])
        best = cand if best is None else min(best, cand)
    return best


# -- seeded information-set witness search ------------------------------------


def _rref_codes(M: np.ndarray, st: SubfieldTables):
    """Reduced row echelon form over GF(q) codes; returns (rref, pivots)."""
    sub = _codes.sub_table(st)
    A = M.astype(np.uint8).copy()
    rows, cols = A.shape
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
            A[other] = sub[A[other], st.mul[A[other, c][:, None], A[r][None, :]]]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _rref_via_parity(H: np.ndarray, perm: np.ndarray, st: SubfieldTables):
    """``_rref_codes(G[:, perm], st)`` for the code with parity-check matrix
    H, from a reduction of H's n - k rows instead of G's k.

    The pivots of G[:, perm], taken greedily left to right, are the
    complement of the greedy pivots of H[:, perm] taken right to left
    (matroid duality).  Reducing H[:, perm[::-1]] gives those check columns
    J with the identity on them; the systematic generator is the identity
    on the information columns I and minus the transposed I-columns of the
    reduced H on J.
    """
    n = H.shape[1]
    Rh, rev_pivots = _rref_codes(H[:, perm[::-1]], st)
    Rh = Rh[:, ::-1]  # back to perm order
    checks = [n - 1 - c for c in rev_pivots]  # row i of Rh is 1 at checks[i]
    info = np.ones(n, dtype=bool)
    info[checks] = False
    pivots = np.flatnonzero(info)
    R = np.zeros((len(pivots), n), dtype=np.uint8)
    R[np.arange(len(pivots)), pivots] = 1
    R[:, checks] = st.neg[Rh[:, pivots]].T
    return R, pivots.tolist()


def _isd_witness(code: CyclicCode, cfg: DistanceConfig, stop_at: int,
                 stall: int | None = None
                 ) -> tuple[int, tuple[int, ...]] | None:
    """Best-effort low-weight codeword via random information sets.

    Deterministic for a fixed config: the RNG is seeded from cfg.seed and
    the generator polynomial.  Stops early once the best weight reaches
    ``stop_at`` or after ``stall`` iterations without improvement.
    Returns (weight, codeword) or None.
    """
    F = code.field
    st = F.subfield_tables()
    n, k, q = code.n, code.k, code.q
    if k == 0:
        return None
    # reduce whichever of G and H has fewer rows; both give the same R
    via_parity = n - k < k
    M = code.parity_check_matrix() if via_parity else code.generator_matrix()
    seed = (cfg.seed, zlib.crc32(code.g.text().encode()), n, q)
    rng = np.random.default_rng(abs(hash(seed)) % (1 << 63))
    best_w: int | None = None
    best_c: tuple[int, ...] | None = None
    since_improved = 0
    nonzero_scalars = np.arange(1, q, dtype=np.uint8)
    for _ in range(cfg.isd_iterations):
        if stall is not None and since_improved >= stall:
            break
        prev_best = best_w
        perm = rng.permutation(n)
        R, pivots = (_rref_via_parity(M, perm, st) if via_parity
                     else _rref_codes(M[:, perm], st))
        if R.shape[0] != k:
            # G has rank k and H rank n - k for every cyclic code
            raise AssertionError("information set of the wrong size")
        # single rows
        weights = np.count_nonzero(R, axis=1)
        i = int(np.argmin(weights))
        if best_w is None or weights[i] < best_w:
            best_w, best_c = int(weights[i]), _unpermute(R[i], perm, n)
        # row pairs with a free scalar on the second row
        nonpiv = np.ones(n, dtype=bool)
        nonpiv[pivots] = False
        for c, pw in zip(nonzero_scalars, _pair_weights(R[:, nonpiv], st)):
            np.fill_diagonal(pw, n + 10)
            j = int(np.argmin(pw))
            i0, j0 = divmod(j, k)
            if i0 != j0 and (best_w is None or pw[i0, j0] < best_w):
                full = st.add[R[i0], st.mul[c, R[j0]]]
                wfull = int(np.count_nonzero(full))
                if best_w is None or wfull < best_w:
                    best_w, best_c = wfull, _unpermute(full, perm, n)
        if best_w is not None and best_w <= stop_at:
            break
        since_improved = 0 if best_w != prev_best else since_improved + 1
    if best_w is None or best_c is None:
        return None
    vec = np.array(best_c, dtype=np.int16)
    if not code.contains(vec) or int(np.count_nonzero(vec)) != best_w:
        raise AssertionError("witness search produced a non-codeword")
    return best_w, _normalize_witness(best_c, st)


def _pair_weights(P: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """Weights of R[i] + c * R[j] for every row pair of a systematic R with
    non-pivot part P (k x L), as an array [c - 1, i, j]: 2 for the pivots
    plus the nonzero count of P[i] + c * P[j].

    That sum vanishes at l iff P[i, l] = -c * P[j, l], so the count is L
    minus the agreements, and every (i, c, j) agreement comes out of one
    contraction of one-hot encodings.  float32 counts are exact here, and
    einsum without ``optimize`` runs its own loop rather than BLAS threads.
    """
    k, L = P.shape
    q = st.q

    def onehot(M):  # (rows, L) codes -> (rows, L * q) indicators
        hot = M[:, :, None] == np.arange(q)
        return hot.reshape(len(M), L * q).astype(np.float32)

    scalars = np.arange(1, q)[:, None, None]
    # row (c - 1) * k + j is -c * P[j]
    neg = st.neg[st.mul[scalars, P]].reshape((q - 1) * k, L)
    agree = np.einsum("ik,jk->ij", onehot(P), onehot(neg)).astype(np.intp)
    return L + 2 - agree.reshape(k, q - 1, k).transpose(1, 0, 2)


def _unpermute(row: np.ndarray, perm: np.ndarray, n: int) -> tuple[int, ...]:
    out = np.zeros(n, dtype=np.int16)
    out[perm] = row
    return tuple(int(x) for x in out)


def _normalize_witness(vec: tuple[int, ...], st: SubfieldTables) -> tuple[int, ...]:
    """Scale so the first nonzero coefficient is 1 (deterministic form)."""
    arr = np.array(vec, dtype=np.int16)
    nz = np.nonzero(arr)[0]
    if len(nz) == 0:
        return vec
    inv = st.inv[arr[nz[0]]]
    return tuple(int(x) for x in st.mul[inv, arr])


# -- top-level distance -------------------------------------------------------


def minimum_distance(code: CyclicCode,
                     cfg: DistanceConfig | None = None) -> DistanceResult:
    """Exact minimum Hamming weight where the strategy allows, else the
    best certified lower bound (see module docstring)."""
    cfg = cfg or DistanceConfig()
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    if code.k == code.n:
        # the lexicographically smallest weight-1 word, as enumeration finds
        return DistanceResult(1, True, "exhaustive", bch_bound=1,
                              witness=tuple([0] * (code.n - 1) + [1]),
                              certified_lower=1)

    lb = bch_lower_bound(code)
    size = code.q**code.k
    if size <= cfg.full_enum_limit:
        if code.n - code.k < code.k:
            # high rate: the levels up to d usually hold far fewer keys than
            # the code has codewords, and find the same witness
            w, hit, _, _ = _mitm_sweep(code, code.parity_check_matrix(), lb,
                                       None, cfg, budget=size)
            if hit is not None:
                return DistanceResult(w, True, "mitm", bch_bound=lb,
                                      witness=hit, certified_lower=w)
        d, wit = _exhaustive_distance(code)
        return DistanceResult(d, True, "exhaustive", bch_bound=lb,
                              witness=wit, certified_lower=d)

    H = code.parity_check_matrix()
    isd = _isd_witness(code, cfg, stop_at=lb, stall=cfg.isd_stall)
    upper = isd[0] if isd else None

    certified, hit, mitm_used, hit_wall = _mitm_sweep(code, H, lb, upper, cfg)
    if hit is not None:
        return DistanceResult(certified, True, "mitm", bch_bound=lb,
                              witness=hit, certified_lower=certified)

    if hit_wall and (upper is None or upper > certified):
        # the quick witness pass stalled above the certified floor and the
        # sweep cannot continue; spend the full witness budget
        rescue = _isd_witness(code, cfg, stop_at=certified, stall=None)
        if rescue is not None and (upper is None or rescue[0] < upper):
            isd, upper = rescue, rescue[0]

    if upper is not None and upper == certified:
        method = "mitm+witness" if mitm_used else "bch+witness"
        return DistanceResult(upper, True, method, bch_bound=lb,
                              witness=isd[1], certified_lower=certified)

    # unresolved: report the certified lower bound only
    return DistanceResult(certified, False, "bch-only", bch_bound=lb,
                          witness=isd[1] if isd else None,
                          certified_lower=certified)


# -- secondary parity-check construction (cross-check) ------------------------


def parity_matrix_from_roots(code: CyclicCode) -> np.ndarray:
    """Parity rows from evaluating positions at the generator's roots,
    grouped by coset; same row space as the Toeplitz construction."""
    F = code.field
    st = F.subfield_tables()
    roots = code.root_exponents()
    leaders = sorted({cyclotomic_coset(code.n, code.q, i).leader for i in roots})
    coord = _gfq_coordinates(F)
    rows = []
    for j in leaders:
        powers = [(j * pos) % code.n for pos in range(code.n)]
        mat = np.stack([coord(p_log) for p_log in powers], axis=1)  # (m, n)
        rows.append(mat)
    return np.concatenate(rows, axis=0).astype(np.uint8)


def _gfq_coordinates(F: Field):
    """Map a log to its m GF(q)-coordinates w.r.t. the basis alpha^u."""
    from .galois import _coords_in_span

    st = F.subfield_tables()
    vt = F.vec_tables()
    t, m = F.t, F.m
    beta = F.subfield_step % (F.r - 1)
    basis_logs = [F.mul(F.pow(beta, s), F.pow(F.alpha, u) if u else 0)
                  for u in range(m) for s in range(t)]
    bmat = np.stack([vt.vec_of_log(b) for b in basis_logs])
    pack = F.p ** np.arange(t, dtype=np.int64)
    digit_to_code = np.zeros(F.p**t, dtype=np.uint8)
    for c in range(F.q):
        digit_to_code[int(st.digits[c] @ pack)] = c

    def coords(x_log: int) -> np.ndarray:
        vec = vt.vec_of_log(x_log) if x_log != ZERO else np.zeros(F.ext_deg, np.uint8)
        sol = _coords_in_span(bmat, vec, F.p)  # (m*t,) GF(p) digits
        out = np.zeros(F.m, dtype=np.uint8)
        for u in range(m):
            out[u] = digit_to_code[int(sol[u * t : (u + 1) * t] @ pack)]
        return out

    return coords


def row_space_rref(M: np.ndarray, st: SubfieldTables) -> np.ndarray:
    """Canonical RREF of a code matrix, for row-space comparisons."""
    R, _ = _rref_codes(M, st)
    return R
