"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each criterion prints a PASS line on success (run with ``pytest -s`` to
see them).  Shared table reports are computed once per session.
"""

import random
import time

import numpy as np
import pytest

from dickson_codes.cyclic import (DistanceConfig, code_from_sequence,
                                  minimum_distance, weight_distribution)
from dickson_codes.dickson import (DicksonSpec, dickson_first,
                                   dickson_first_recurrence, dickson_second,
                                   dickson_second_recurrence)
from dickson_codes.galois import ZERO, Field, FieldSpec
from dickson_codes.lfsr import defining_sequence, minimal_poly_dft, minimal_poly_gcd
from dickson_codes.polyring import Poly
from dickson_codes.registry import default_registry
from dickson_codes.verify import (_STATEMENTS, FLAGGED_ANOMALY, MATCH,
                                  MATCH_WITH_ERRATUM, apply_errata,
                                  load_errata, load_table, run_table,
                                  sweep_field)

REG = default_registry()
# primitive polynomials over GF(2), constant term first, past the registry
_GF2_PRIMITIVE = {9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
                  10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
                  11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
                  12: (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)}


def _passline(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="session")
def reports():
    out = {}
    for table in ("D1", "D2", "D3", "D4", "D5", "D7", "E", "MORE"):
        t0 = time.perf_counter()
        out[table] = run_table(table)
        out[table, "seconds"] = time.perf_counter() - t0
    return out


def _statuses(report):
    return [r.status for r in report.rows]


def _row_by_params(report, n, k, d):
    for r in report.rows:
        if (r.computed_n, r.computed_k, r.computed_d) == (n, k, d):
            return r
    raise AssertionError(f"no row computed as [{n},{k},{d}]")


def test_criterion_1_table1(reports):
    rep = reports["D1"]
    assert len(rep.rows) == 19
    assert not rep.has_mismatch
    assert all(s in (MATCH, MATCH_WITH_ERRATUM) for s in _statuses(rep))
    # every row's computed (n, k, d) equals the errata-corrected row
    for r in rep.rows:
        assert (r.computed_n, r.computed_k, r.computed_d) \
            == (r.effective.n, r.effective.k, r.effective.d)
    # the n=255 erratum row
    r13 = rep.rows[12]
    assert r13.errata == ["D1-R13-N"]
    assert (r13.computed_n, r13.computed_k, r13.computed_d) == (255, 251, 2)
    # example checks from the criterion
    for params in [(7, 3, 4), (26, 23, 2), (80, 75, 3), (242, 236, 3)]:
        _row_by_params(rep, *params)
    # documented deviation: the printed [6,5,2] row needs a second erratum
    extra = {e for r in rep.rows for e in r.errata} - {"D1-R13-N"}
    assert extra == {"D1-R16-K", "D1-R16-D", "D1-R16-BD", "D1-R19-BD"}
    assert reports["D1", "seconds"] < 60
    _passline(1, f"table 1: 19/19 rows in {reports['D1', 'seconds']:.1f}s")


def test_criterion_2_table2(reports):
    rep = reports["D2"]
    assert len(rep.rows) == 13
    assert not rep.has_mismatch
    assert all(s in (MATCH, MATCH_WITH_ERRATUM) for s in _statuses(rep))
    for r in rep.rows:
        assert (r.computed_n, r.computed_k, r.computed_d) \
            == (r.effective.n, r.effective.k, r.effective.d)
    _row_by_params(rep, 8, 3, 5)    # a = 0
    _row_by_params(rep, 26, 19, 5)  # a = alpha^2
    assert reports["D2", "seconds"] < 60
    _passline(2, f"table 2: 13/13 rows in {reports['D2', 'seconds']:.1f}s")


def test_criterion_3_table3(reports):
    rep = reports["D3"]
    assert len(rep.rows) == 22
    assert not rep.has_mismatch
    for params in [(15, 7, 5), (31, 20, 6), (63, 50, 6), (127, 112, 6),
                   (15, 8, 6), (24, 17, 5)]:
        _row_by_params(rep, *params)
    assert reports["D3", "seconds"] < 300
    _passline(3, f"table 3: 22/22 rows in {reports['D3', 'seconds']:.1f}s")


def test_criterion_4_tables_4_5_7_8(reports):
    total = 0.0
    for table in ("D4", "D5", "E", "MORE"):
        rep = reports[table]
        assert not rep.has_mismatch, table
        assert all(s in (MATCH, MATCH_WITH_ERRATUM) for s in _statuses(rep)), table
        total += reports[table, "seconds"]
    # the m=8 rows of table 5 carry the n -> 255 errata
    d5 = reports["D5"]
    errata_ids = {e for r in d5.rows for e in r.errata}
    assert {"D5-R10-N", "D5-R11-N"} <= errata_ids
    assert total < 900
    _passline(4, f"tables 4,5,7,8: all rows reproduce in {total:.1f}s total")


def test_criterion_5_table6(reports):
    rep = reports["D7"]
    assert len(rep.rows) == 18
    assert not rep.has_mismatch
    anomalies = [r for r in rep.rows if r.status == FLAGGED_ANOMALY]
    assert len(anomalies) == 2
    for r in anomalies:
        assert r.row.n == 30 and r.computed_n == 31
        assert (r.computed_k, r.computed_d) == (r.row.k, r.row.d)
    consistent = [r for r in rep.rows if r.status == MATCH]
    assert len(consistent) == 16
    assert {r.computed_n for r in consistent} == {15, 24, 63, 80, 124}
    r24 = _row_by_params(rep, 24, 8, 13)
    assert r24.d_method == "exhaustive"  # 5^8 < 2^22 full enumeration
    _row_by_params(rep, 124, 96, 13)
    _passline(5, "table 6: 16 consistent rows match; two n=30 rows flagged")


def test_criterion_6_theorem_sweep():
    t0 = time.perf_counter()
    total, theorems = 0, set()
    for q, m in REG.pairs():
        F = REG.field(q, m)
        if F.n > 127 or F.n < 2:
            continue
        for h in {F.p, 2, 3, 4, 5}:
            results = sweep_field(F, "D", h)
            for a, rep in results:
                assert rep.generator_match and rep.dimension_match, \
                    (q, m, h, a, rep.theorem, rep.case)
                theorems.add(rep.theorem)
            total += len(results)
    assert total > 3000  # every regime instance, whole-field sweeps
    assert theorems == {s.theorem for s in _STATEMENTS}
    _passline(6, f"theorem sweep: {total} cases agree "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_7_method_cross_check(reports):
    errata = load_errata()
    checked = 0
    for table in ("D1", "D2", "D3", "D4", "D5", "D7", "E", "MORE"):
        for row in load_table(table):
            eff, _ = apply_errata(row, errata)
            F = REG.field(eff.q, eff.m)
            spec = DicksonSpec(kind=eff.kind, h=eff.order,
                               a=F.parse_element(eff.a),
                               offset=F.scalar(eff.offset) if eff.offset else ZERO)
            s = defining_sequence(F, spec)
            g1, g2 = minimal_poly_gcd(s), minimal_poly_dft(s)
            assert g1.poly == g2.poly and g1.linear_span == g2.linear_span
            checked += 1
    rng = random.Random(20240915)
    random_checked = 0
    for q, m in REG.pairs():
        F = REG.field(q, m)
        if F.n < 2:
            continue
        elems = [ZERO] + list(range(F.r - 1))
        for _ in range(200):
            spec = DicksonSpec(kind=rng.choice("DE"), h=rng.randrange(12),
                               a=rng.choice(elems),
                               offset=rng.choice([ZERO, F.neg(F.one)]))
            s = defining_sequence(F, spec)
            g1, g2 = minimal_poly_gcd(s), minimal_poly_dft(s)
            assert g1.poly == g2.poly and g1.linear_span == g2.linear_span
            random_checked += 1
    _passline(7, f"gcd = spectral on {checked} table rows and "
                 f"{random_checked} random sequences")


def test_criterion_8_dickson_identities():
    rng = random.Random(8)
    for q, m in REG.pairs():
        F = REG.field(q, m)
        elems = [ZERO] + list(range(F.r - 1))
        sample = elems if len(elems) <= 20 else rng.sample(elems, 20)
        for h in range(25):
            for a in sample:
                assert dickson_first(h, a, F) == dickson_first_recurrence(h, a, F)
                assert dickson_second(h, a, F) == dickson_second_recurrence(h, a, F)
        for u in range(1, 4):
            hp = F.p**u
            if hp > 27:
                continue
            for a in elems:
                assert dickson_first(hp, a, F) == Poly.monomial(F, hp)
        for h in range(1, 9):
            for a in sample[:6]:
                assert dickson_first(h * F.p, a, F) \
                    == dickson_first(h, a, F) ** F.p
    _passline(8, "closed form = recurrence (h <= 24), D_{p^u} = x^{p^u}, "
                 "D_{hp} = D_h^p on every registry field")


def test_criterion_9_distance_oracle(reports):
    errata = load_errata()
    pairs = 0
    for table in ("D1", "D2", "D3", "D4", "D5", "D7", "E", "MORE"):
        rep = reports[table]
        for r in rep.rows:
            assert r.bch_bound <= r.computed_d  # BCH <= d everywhere
            eff = r.effective
            F = REG.field(eff.q, eff.m)
            if eff.q ** r.computed_k > 1 << 16 or r.computed_k == 0:
                continue
            spec = DicksonSpec(kind=eff.kind, h=eff.order,
                               a=F.parse_element(eff.a),
                               offset=F.scalar(eff.offset) if eff.offset else ZERO)
            code = code_from_sequence(defining_sequence(F, spec))
            mitm = minimum_distance(
                code, DistanceConfig(isd_iterations=0, full_enum_limit=1))
            assert mitm.exact and mitm.value == r.computed_d, (table, r.row.index)
            pairs += 1
    assert pairs >= 10
    _passline(9, f"meet-in-the-middle = exhaustive on {pairs} small codes; "
                 "BCH bound respected on every row")


def test_criterion_10_proof_witnesses():
    # weight-2 codeword 2 + x^{(3^m-1)/2} for the order-4 map at a=1
    for m in (3, 4):
        F = REG.field(3, m)
        code = code_from_sequence(
            defining_sequence(F, DicksonSpec(kind="D", h=4, a=F.one)))
        st = F.subfield_tables()
        vec = np.zeros(F.n, dtype=np.uint8)
        vec[0] = st.scalar_code(2)
        vec[F.n // 2] = st.scalar_code(1)
        assert code.contains(vec)
        assert minimum_distance(code).value == 2
    # cubic root criterion for m = 2..12: x + x^2 + x^4 has a nonzero root
    # in GF(2^m) exactly when 3 | m
    for m in range(2, 13):
        F = (REG.field(2, m) if m <= 8 else
             Field(FieldSpec(p=2, t=1, m=m, prim_poly=_GF2_PRIMITIVE[m])))
        has_root = any(F.add(F.add(x, F.pow(x, 2)), F.pow(x, 4)) == ZERO
                       for x in range(F.n))
        assert has_root == (m % 3 == 0), m
    # [7,3,4] weight distribution
    F8 = REG.field(2, 3)
    code = code_from_sequence(
        defining_sequence(F8, DicksonSpec(kind="D", h=2, a=F8.one)))
    assert weight_distribution(code) == {0: 1, 4: 7}
    _passline(10, "weight-2 witnesses (m=3,4), cubic-root criterion "
                  "(m=2..12), [7,3,4] weights {0:1, 4:7}")
