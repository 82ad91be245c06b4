"""Field construction, arithmetic, trace, and subfield structure."""

import math
import random

import numpy as np
import pytest

from dickson_codes.galois import (Field, FieldError, FieldSpec, VecTables,
                                  ZERO)
from dickson_codes.registry import default_registry, load_registry


def gf8():
    return Field(FieldSpec(p=2, t=1, m=3, prim_poly=(1, 1, 0, 1)))


def test_gf8_defining_relation():
    f = gf8()
    assert f.r == 8 and f.q == 2 and f.n == 7
    # alpha^3 = alpha + 1
    assert f.pow(f.alpha, 3) == f.add(f.alpha, f.one)


def test_gf16_subfield_is_fifth_powers():
    f = Field(FieldSpec(p=2, t=2, m=2, prim_poly=(1, 1, 0, 0, 1)))
    assert f.subfield_logs() == [ZERO, 0, 5, 10]
    assert all(f.in_subfield(x) for x in f.subfield_logs())


def test_reducible_polynomial_rejected():
    with pytest.raises(FieldError) as exc:
        Field(FieldSpec(p=2, t=1, m=3, prim_poly=(1, 1, 1, 1)))
    assert "1 + x + x^2 + x^3" in str(exc.value)


def test_zero_constant_term_rejected():
    # x^3 + x = x(x + 1)^2: the powers of x reach 0 in the quotient ring
    with pytest.raises(FieldError, match=r"x \+ x\^3"):
        Field(FieldSpec(p=2, t=1, m=3, prim_poly=(0, 1, 0, 1)))


def test_non_primitive_polynomial_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    with pytest.raises(FieldError):
        Field(FieldSpec(p=2, t=1, m=4, prim_poly=(1, 1, 1, 1, 1)))


def test_wrong_degree_rejected():
    with pytest.raises(FieldError):
        FieldSpec(p=2, t=2, m=2, prim_poly=(1, 1, 0, 1))


def test_arithmetic_examples():
    f = gf8()
    assert f.mul(1, 6) == f.one            # alpha * alpha^6 = 1
    assert f.add(f.alpha, f.one) == 3      # alpha + 1 = alpha^3
    for x in f.elements():
        assert f.add(x, f.neg(x)) == ZERO  # x + (-x) = 0


def test_inverse_of_zero_raises():
    f = gf8()
    with pytest.raises(ZeroDivisionError):
        f.inv(ZERO)


def test_out_of_range_element_rejected():
    f = gf8()
    with pytest.raises(ValueError):
        f.check(7)  # log must be < r-1
    with pytest.raises(ValueError):
        f.check(-2)


def test_trace_examples():
    f8 = gf8()
    assert f8.trace(f8.one) == f8.one  # GF(8)->GF(2): 1+1+1 = 1
    f16 = Field(FieldSpec(p=2, t=2, m=2, prim_poly=(1, 1, 0, 0, 1)))
    assert f16.trace(f16.one) == ZERO  # GF(16)->GF(4): 1+1 = 0
    f9 = Field(FieldSpec(p=3, t=1, m=2, prim_poly=(2, 2, 1)))
    assert f9.trace(f9.one) == f9.scalar(2)  # GF(9)->GF(3): 1+1 = 2


def test_delta_examples():
    reg = default_registry()
    for q, m in [(2, 3), (3, 2), (9, 2)]:
        assert reg.field(q, m).delta(ZERO) == 0
    assert reg.field(2, 5).delta(reg.field(2, 5).one) == 1  # m odd
    assert reg.field(2, 4).delta(reg.field(2, 4).one) == 0  # m even


def test_frobenius_additivity():
    reg = default_registry()
    rng = random.Random(11)
    for q, m in reg.pairs():
        f = reg.field(q, m)
        pairs = []
        if f.r <= 64:
            pairs = [(x, y) for x in f.elements() for y in f.elements()]
        else:
            elems = list(f.elements())
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(1000)]
        for x, y in pairs:
            assert f.pow(f.add(x, y), f.p) == f.add(f.pow(x, f.p), f.pow(y, f.p))


def test_trace_lands_in_subfield_and_is_frobenius_invariant():
    reg = default_registry()
    for q, m in reg.pairs():
        f = reg.field(q, m)
        if f.r > 256:
            continue
        for x in f.elements():
            tr = f.trace(x)
            assert f.in_subfield(tr)
            assert f.trace(f.pow(x, f.q)) == tr


def test_trace_is_gfq_linear():
    reg = default_registry()
    rng = random.Random(5)
    for q, m in [(2, 4), (3, 3), (4, 2), (9, 2), (8, 2), (5, 2)]:
        f = reg.field(q, m)
        elems = list(f.elements())
        for _ in range(200):
            c = rng.choice(f.subfield_logs())
            x, y = rng.choice(elems), rng.choice(elems)
            lhs = f.trace(f.add(f.mul(c, x), y))
            rhs = f.add(f.mul(c, f.trace(x)), f.trace(y))
            assert lhs == rhs


def test_trace_zero_count_is_r_over_q():
    reg = default_registry()
    for q, m in reg.pairs():
        f = reg.field(q, m)
        count = sum(1 for x in f.elements() if f.trace(x) == ZERO)
        assert count == f.r // f.q


def test_subfield_generator_order():
    reg = default_registry()
    for q, m in reg.pairs():
        f = reg.field(q, m)
        if f.q == 2 and f.m == 1:
            continue
        beta = f.subfield_step % (f.r - 1)
        if beta == 0:
            assert f.q == 2  # subfield {0, 1}
            continue
        assert (f.r - 1) // math.gcd(f.r - 1, beta) == f.q - 1


def test_parse_and_format_elements():
    reg = default_registry()
    f = reg.field(9, 2)
    assert f.parse_element("0") == ZERO
    assert f.parse_element("alpha^3") == 3
    assert f.parse_element("a^3") == 3
    assert f.parse_element("alpha") == 1
    assert f.parse_element("-1") == f.neg(f.one)
    assert f.parse_element("3/2") == f.div(f.scalar(3), f.scalar(2))
    assert f.format_element(ZERO) == "0"
    assert f.format_element(0) == "1"
    assert f.format_element(17) == "a^17"
    for bad in ("bogus", "a^x", "alpha^", "1/", "x/2"):
        with pytest.raises(ValueError, match="cannot parse"):
            f.parse_element(bad)


def test_registry_overrides_present():
    reg = default_registry()
    overridden = {(e.q, e.m) for e in reg.overrides()}
    assert overridden == {(8, 2), (9, 2)}
    # the swapped entries build fields of the right size
    assert reg.field(8, 2).r == 64
    assert reg.field(9, 2).r == 81


def test_empty_registry_variable_means_unset(monkeypatch):
    monkeypatch.setenv("DICKSON_REGISTRY", "")
    assert load_registry().source == "<packaged>"
    assert default_registry().field(2, 4).n == 15


def test_vec_tables_match_scalar_arithmetic():
    reg = default_registry()
    fields = [reg.field(q, m) for q, m in
              [(2, 1), (2, 4), (3, 3), (4, 2), (8, 2), (9, 2), (9, 1)]]
    fields.append(Field(FieldSpec(257, 1, 1, (254, 1))))  # digits up to 256
    for f in fields:
        vt = f.vec_tables()
        assert len(vt.trace) == f.n + 1 and vt.trace[ZERO] == ZERO
        assert vt.trace[:f.n].tolist() == [f.trace(x) for x in range(f.n)]
        assert vt.zech.tolist() == [f.add(f.one, x) for x in range(f.n)]


def _walk_powers(f):
    """Digit vectors of x^0..x^(n-1) mod the field's modulus, one
    multiplication by x at a time."""
    val, rows = [1] + [0] * (f.ext_deg - 1), []
    for _ in range(f.n):
        rows.append(val)
        lead = val[-1]
        val = [(d - lead * c) % f.p
               for d, c in zip([0] + val[:-1], f.prim_poly)]
    assert val == rows[0]  # x^n = 1
    return np.array(rows, dtype=np.int64)


def test_vec_tables_match_a_multiply_by_x_walk():
    reg = default_registry()
    fields = [reg.field(q, m) for q, m in sorted(reg.pairs())]
    fields += [Field(FieldSpec(257, 1, 1, (254, 1))),
               # x^16 + x^5 + x^3 + x^2 + 1
               Field(FieldSpec(2, 1, 16, (1, 0, 1, 1, 0, 1) + (0,) * 10
                               + (1,)))]
    for f in fields:
        vt = f.vec_tables()
        pows = _walk_powers(f)
        assert vt.exp_vec.tolist() == pows.tolist()
        log = {v: k for k, v in enumerate(map(tuple, pows.tolist()))}
        assert len(log) == f.n

        def logs(vecs):
            return [log.get(v, ZERO) for v in map(tuple, vecs.tolist())]

        one_plus = pows.copy()
        one_plus[:, 0] = (one_plus[:, 0] + 1) % f.p
        assert vt.zech.tolist() == logs(one_plus)
        conjugates = sum(pows[np.arange(f.n) * pow(f.q, i, f.n) % f.n]
                         for i in range(f.m)) % f.p
        assert vt.trace.tolist() == logs(conjugates) + [ZERO]


def test_codes_of_logs_rejects_values_outside_the_subfield():
    f = default_registry().field(4, 2)  # GF(4) = {0} + logs 0, 5, 10
    st = f.subfield_tables()
    assert st.codes_of_logs([ZERO, 0, 5, 10]).tolist() == [0, 1, 2, 3]
    for outside in ([0, 1], [-2], [f.n], [ZERO, f.n + 5]):
        with pytest.raises(ValueError):
            st.codes_of_logs(outside)


def test_subfield_tables_match_scalar_arithmetic():
    reg = default_registry()
    # every registry field, and the largest subfields uint8 codes hold
    fields = [reg.field(q, m) for q, m in sorted(reg.pairs())]
    fields += [Field(FieldSpec(2, 8, 1, (1, 0, 1, 1, 1, 0, 0, 0, 1))),
               Field(FieldSpec(3, 5, 1, (1, 2, 0, 0, 0, 1)))]
    for f in fields:
        q = f.q
        st = f.subfield_tables()
        logs = st.code_to_log.tolist()
        code = {x: c for c, x in enumerate(logs)}
        assert len(code) == q
        for i, x in enumerate(logs):
            assert logs[st.neg[i]] == f.neg(x)
            if i:
                assert logs[st.inv[i]] == f.inv(x)
            for j, y in enumerate(logs):
                assert logs[st.add[i, j]] == f.add(x, y)
                assert logs[st.sub[i, j]] == f.sub(x, y)
                assert logs[st.mul[i, j]] == f.mul(x, y)
        # digits rebuild each element from the beta-power basis
        beta = f.subfield_step
        for c, x in enumerate(logs):
            acc = ZERO
            for s, d in enumerate(st.digits[c].tolist()):
                for _ in range(d):
                    acc = f.add(acc, f.pow(beta, s))
            assert acc == x
        packed = st.digits.astype(int) @ (f.p ** np.arange(f.t))
        assert st.by_digits[packed].tolist() == list(range(q))
        assert sorted(packed.tolist()) == list(range(q))
        assert st.scalar_code(-1) == code[f.neg(f.one)]


def test_subfield_over_256_symbols_is_a_field_error():
    f = Field(FieldSpec(p=257, t=1, m=1, prim_poly=(254, 1)))
    assert f.q == 257
    with pytest.raises(FieldError, match="uint8"):
        f.subfield_tables()


@pytest.mark.parametrize("block", [1 << 20, 7])
def test_power_sums_match_scalar_sums(monkeypatch, block):
    # block 7 splits both the rows and the columns of the exponent grid
    # into many blocks
    monkeypatch.setattr(VecTables, "_BLOCK", block)
    reg = default_registry()
    rng = random.Random(17)
    for q, m in [(2, 8), (3, 3), (9, 2), (2, 1)]:
        f = reg.field(q, m)
        rows = [rng.randrange(-f.n + 1, f.n) for _ in range(9)]
        cols = [rng.randrange(f.n) for _ in range(12)]
        col_logs = [rng.randrange(f.n) for _ in cols]
        for sign in (1, -1):
            got = f.vec_tables().power_sums(rows, cols, col_logs, sign=sign)
            for r, value in zip(rows, got.tolist()):
                acc = ZERO
                for c, lg in zip(cols, col_logs):
                    acc = f.add(acc, (lg + r * c) % f.n)
                assert value == (acc if sign == 1 else f.neg(acc))


@pytest.mark.parametrize("spec", [
    FieldSpec(2, 8, 1, (1, 0, 1, 1, 1, 0, 0, 0, 1)),  # 7-bit lanes
    FieldSpec(3, 5, 1, (1, 2, 0, 0, 0, 1)),           # 12-bit lanes
])
def test_power_sums_do_not_overflow_a_lane(spec):
    # more copies of one term than a lane of b = 63 // deg bits holds
    f = Field(spec)
    copies = 2 ** (63 // f.ext_deg) + 1
    col, col_log = 3, 7
    rows = np.arange(f.n)
    got = f.vec_tables().power_sums(rows, [col] * copies, [col_log] * copies)
    times = f.scalar(copies)
    assert times != ZERO
    assert got.tolist() == [f.mul(times, (col_log + r * col) % f.n)
                            for r in range(f.n)]
