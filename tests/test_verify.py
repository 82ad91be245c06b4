"""Predicted parameters, case comparison, errata, and table running."""

from dataclasses import replace

import pytest

from dickson_codes import verify
from dickson_codes.cyclic import (CyclicCode, DistanceConfig,
                                  bch_lower_bound, code_from_sequence,
                                  minimum_distance)
from dickson_codes.dickson import DicksonSpec
from dickson_codes.galois import ZERO, InternalError, VecTables
from dickson_codes.lfsr import defining_sequence, spectrum
from dickson_codes.polyring import Poly, minimal_poly_product
from dickson_codes.registry import default_registry
from dickson_codes.verify import (_STATEMENTS, FLAGGED_ANOMALY, MATCH,
                                  MATCH_WITH_ERRATUM, MISMATCH, UNRESOLVED,
                                  NoTheoremApplies, _sources_ok,
                                  apply_errata, compare, load_errata,
                                  load_table, predict, process_row,
                                  run_table, sweep_field)

REG = default_registry()


def test_predict_order3_binary_example():
    F = REG.field(2, 4)
    pred = predict(DicksonSpec(kind="D", h=3, a=F.one), F)
    assert pred.theorem == "order3-binary"
    assert pred.dimension == 7
    assert pred.d_constraint.describe() == "d >= 5"
    code = code_from_sequence(defining_sequence(F, DicksonSpec(kind="D", h=3, a=F.one)))
    assert pred.zeros == code.zeros


def test_predict_order2_example():
    F = REG.field(3, 2)
    pred = predict(DicksonSpec(kind="D", h=2, a=ZERO), F)
    assert pred.dimension == 3
    assert pred.d_constraint.describe() == "4 <= d <= 5"
    assert pred.d_constraint.satisfied_by(5)
    assert not pred.d_constraint.satisfied_by(6)


def test_predict_order4_ternary_a1_exact_two():
    for m in (3, 4):
        F = REG.field(3, m)
        pred = predict(DicksonSpec(kind="D", h=4, a=F.one), F)
        assert pred.theorem == "order4-ternary"
        assert pred.d_constraint.describe() == "d = 2"


def test_predict_out_of_regime():
    F = REG.field(2, 4)
    with pytest.raises(NoTheoremApplies):
        predict(DicksonSpec(kind="E", h=3, a=F.one), F)  # second kind
    with pytest.raises(NoTheoremApplies):
        predict(DicksonSpec(kind="D", h=7, a=F.one), F)  # order 7
    with pytest.raises(NoTheoremApplies):
        # q=2, m=4: the order-5 coset structure degenerates (l_5 = 2)
        predict(DicksonSpec(kind="D", h=5, a=F.one), F)
    with pytest.raises(NoTheoremApplies):
        # offset variants have no stated parameters
        predict(DicksonSpec(kind="D", h=2, a=F.one, offset=F.one), F)


def test_predict_rejects_logs_outside_the_field():
    # a = n would be read as alpha^n = 1, a = -7 as alpha^(n-7)
    F = REG.field(4, 3)
    for bad in (F.n, -7):
        for spec in (DicksonSpec(kind="D", h=3, a=bad),
                     DicksonSpec(kind="D", h=3, a=F.one, offset=bad)):
            with pytest.raises(ValueError, match="not an element log"):
                predict(spec, F)


def test_statement_regimes_are_disjoint():
    # at most one statement applies, so their order cannot change a
    # prediction
    subfields = {(e.spec.p, e.spec.t, e.q) for e in REG.entries.values()}
    for p, t, q in subfields:
        for h in range(9):
            hits = [s.theorem for s in _STATEMENTS if s.regime(p, t, q, h)]
            assert len(hits) <= 1, (p, t, q, h, hits)


def test_sources_ok_matches_its_definition():
    # sources nonzero mod n, in distinct cosets, each of size m; each coset
    # is walked j, jq, jq^2, ... until the walk returns to j
    def orbit(n, q, j):
        members = [j]
        while members[-1] * q % n != j:
            members.append(members[-1] * q % n)
        return members

    tuples = {s.sources or (h,) for s in _STATEMENTS for h in range(9)}
    for q, m in REG.pairs():
        F = REG.field(q, m)
        for sources in tuples:
            walks = [orbit(F.n, q, e % F.n) for e in sources]
            expected = (all(e % F.n for e in sources)
                        and len({min(w) for w in walks}) == len(walks)
                        and all(len(w) == m for w in walks))
            assert _sources_ok(F, sources) == expected, (q, m, sources)


def test_compare_flags_mismatch():
    F = REG.field(2, 4)
    pred = predict(DicksonSpec(kind="D", h=3, a=F.one), F)
    other = code_from_sequence(
        defining_sequence(F, DicksonSpec(kind="D", h=3, a=3)))
    rep = compare(pred, other)
    assert not rep.generator_match
    assert not rep.dimension_match
    assert not rep.all_green


def test_compare_distance_constraint():
    F = REG.field(2, 4)
    spec = DicksonSpec(kind="D", h=3, a=F.one)
    pred = predict(spec, F)
    code = code_from_sequence(defining_sequence(F, spec))
    dist = minimum_distance(code, DistanceConfig())
    rep = compare(pred, code, dist)
    assert rep.all_green and rep.d_ok is True


ZERO_SET_FIELDS = [(2, 4), (3, 3), (4, 2), (5, 2)]


def _predicted_cases(F):
    """(spec, prediction) for every a at each h whose regime and guard hold."""
    for h in range(9):
        try:
            predict(DicksonSpec(kind="D", h=h, a=ZERO), F)
        except NoTheoremApplies:  # the regime and its guard ignore a
            continue
        for a in F.elements():
            spec = DicksonSpec(kind="D", h=h, a=a)
            yield spec, predict(spec, F)


@pytest.mark.parametrize("q,m", ZERO_SET_FIELDS)
def test_predict_multiplies_no_polynomials(monkeypatch, q, m):
    F = REG.field(q, m)

    def no_product(*args):
        raise AssertionError("predict multiplied polynomials")

    monkeypatch.setattr(Poly, "__mul__", no_product)
    cases = list(_predicted_cases(F))
    assert len(cases) >= F.r  # at least one h with a regime
    for _, pred in cases:
        assert list(pred.zeros) == sorted(set(pred.zeros))
        assert pred.dimension == F.n - len(pred.zeros)


@pytest.mark.parametrize("q,m", ZERO_SET_FIELDS)
def test_generator_of_predicted_zeros_matches_exactly_on_equal_zeros(q, m):
    # the product of minimal polynomials is the polynomial oracle for the
    # zero-set comparison, within each case and across cases
    F = REG.field(q, m)
    preds, codes = {}, {}
    for spec, pred in _predicted_cases(F):
        code = code_from_sequence(defining_sequence(F, spec))
        assert pred.zeros == code.zeros
        preds[pred.zeros] = minimal_poly_product(F, pred.zeros)
        codes[code.zeros] = code
    assert len(codes) >= 2
    for zeros, g in preds.items():
        for code in codes.values():
            assert (g == code.g) == (zeros == code.zeros)


def test_compare_flags_equal_size_zero_sets_that_differ():
    F = REG.field(2, 4)
    spec = DicksonSpec(kind="D", h=3, a=F.one)
    pred = predict(spec, F)
    code = code_from_sequence(defining_sequence(F, spec))
    negated = tuple(sorted(-i % F.n for i in pred.zeros))
    assert negated != pred.zeros and len(negated) == len(pred.zeros)
    rep = compare(replace(pred, zeros=negated), code)
    assert not rep.generator_match and rep.dimension_match


def test_built_code_answers_from_its_zeros(monkeypatch):
    F = REG.field(2, 4)
    spec = DicksonSpec(kind="D", h=3, a=F.one)
    code = code_from_sequence(defining_sequence(F, spec))
    pred = predict(spec, F)

    def no_sums(*args, **kwargs):
        raise AssertionError("g evaluated again")

    monkeypatch.setattr(VecTables, "power_sums", no_sums)
    assert bch_lower_bound(code) == 5
    assert compare(pred, code).all_green


def test_sweep_field_agrees_everywhere():
    F = REG.field(2, 5)
    reports = sweep_field(F, "D", 3)
    assert len(reports) == 32  # every a in GF(32)
    assert all(r.generator_match and r.dimension_match for _, r in reports)


def _counting_builds(monkeypatch, first=None):
    """Patch verify.code_from_sequence to count its calls; `first`, when
    given, replaces the code of the first call."""
    calls = []

    def counting(s):
        calls.append(s)
        if first is not None and len(calls) == 1:
            return first
        return code_from_sequence(s)

    monkeypatch.setattr(verify, "code_from_sequence", counting)
    return calls


@pytest.mark.parametrize("q,m", [(2, 4), (2, 5), (3, 3), (4, 2), (5, 2),
                                 (7, 2), (9, 2)])
def test_sweep_field_builds_each_support_once(monkeypatch, q, m):
    F = REG.field(q, m)
    calls = _counting_builds(monkeypatch)
    swept = 0
    for h in sorted({F.p, 2, 3, 4, 5}):
        before = len(calls)
        reports = sweep_field(F, "D", h)
        expected, supports = [], set()
        for a in F.elements():
            spec = DicksonSpec(kind="D", h=h, a=a)
            try:
                pred = predict(spec, F)
            except NoTheoremApplies:
                continue
            s = defining_sequence(F, spec)
            supports.add(spectrum(s).support)
            expected.append((a, compare(pred, code_from_sequence(s))))
        assert reports == expected, (q, m, h)
        assert len(calls) - before == len(supports), (q, m, h)
        # nothing outlives the call: a second sweep builds every code again
        sweep_field(F, "D", h)
        assert len(calls) - before == 2 * len(supports), (q, m, h)
        swept += len(reports)
    assert len(calls) < 2 * swept  # fewer codes built than cases swept


def test_sweep_field_checks_every_shared_code(monkeypatch):
    F, h = REG.field(4, 2), 3
    cases = [defining_sequence(F, DicksonSpec(kind="D", h=h, a=a))
             for a in F.elements()]
    supports = [spectrum(s).support for s in cases]
    assert supports[0]  # S(x) != 0, so g = 1 cannot annihilate it
    repeat = supports.index(supports[0], 1)
    calls = _counting_builds(monkeypatch, first=CyclicCode(F, Poly.one(F)))
    made = []

    def recording(F, spec):
        made.append(spec.a)
        return defining_sequence(F, spec)

    monkeypatch.setattr(verify, "defining_sequence", recording)
    with pytest.raises(InternalError, match="does not annihilate"):
        sweep_field(F, "D", h)
    # every a of GF(16) is in regime: the sweep stops at the first case
    # that reuses the wrong code
    assert len(made) == repeat + 1
    assert len(calls) == len(set(supports[:repeat]))


def test_errata_loaded():
    errata = load_errata()
    ids = {e.ident for e in errata}
    assert {"D1-R13-N", "D1-R16-K", "D2-R12-A", "D5-R10-N", "MORE-R3-M",
            "MORE-R9-Q", "REGISTRY-SWAP", "STMT-ORDER3-SPAN",
            "STMT-ORDER5-Q4-EVEN"} <= ids
    for e in errata:
        assert e.justification


def test_apply_errata():
    rows = load_table("D1")
    errata = load_errata()
    eff, applied = apply_errata(rows[12], errata)  # row 13: printed n=225
    assert rows[12].n == 225 and eff.n == 255
    assert applied == ["D1-R13-N"]
    eff16, applied16 = apply_errata(rows[15], errata)
    assert (eff16.k, eff16.d) == (4, 3)
    assert set(applied16) == {"D1-R16-K", "D1-R16-D", "D1-R16-BD"}


def test_load_table_counts():
    assert len(load_table("D1")) == 19
    assert len(load_table("D2")) == 13
    assert len(load_table("D3")) == 22
    assert len(load_table("D7")) == 18
    assert len(load_table("E")) == 6
    assert len(load_table("MORE")) == 9
    with pytest.raises(KeyError):
        load_table("D9")


def test_process_row_match():
    rows = load_table("D1")
    rep = process_row(rows[0], REG, load_errata())
    assert rep.status == MATCH
    assert (rep.computed_n, rep.computed_k, rep.computed_d) == (7, 3, 4)
    assert rep.theorem_case is not None and rep.theorem_case.all_green
    assert rep.bd_consistent


def test_process_row_anomaly():
    rows = load_table("D7")
    rep = process_row(rows[0], REG, load_errata())  # printed n=30
    assert rep.status == FLAGGED_ANOMALY
    assert rep.computed_n == 31
    assert (rep.computed_k, rep.computed_d) == (10, 12)


def test_process_row_mismatch_detected():
    # sabotage a printed row; the runner must flag it
    from dataclasses import replace

    rows = load_table("D2")
    bad = replace(rows[0], k=rows[0].k + 1)
    rep = process_row(bad, REG, load_errata())
    assert rep.status == MISMATCH


def test_run_table_d2_report_shapes():
    report = run_table("D2")
    assert not report.has_mismatch
    counts = report.counts()
    assert counts[MATCH] == 11 and counts[MATCH_WITH_ERRATUM] == 2
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("table,row,n,k,d")
    assert len(csv_text.splitlines()) == 14
    json_text = report.to_json()
    assert '"status": "MATCH"' in json_text


def test_row_line_marks_an_inexact_distance_as_a_bound():
    report = run_table("D1", cfg=DistanceConfig(w_max=1))
    inexact = [r for r in report.rows if not r.d_exact]
    assert [r.row.index for r in inexact] == [12, 19]
    for r in report.rows:
        assert (">=" in r.line()) == (not r.d_exact), r.line()
    assert f"[63,59,>={inexact[0].computed_d}]" in inexact[0].line()


def test_shallow_search_is_unresolved_unless_it_contradicts(monkeypatch):
    # w_max = 1 leaves D1 rows 12 and 19 at d >= 2 against printed d = 3
    from dataclasses import replace

    shallow = DistanceConfig(w_max=1)
    report = run_table("D1", cfg=shallow)
    assert [r.row.index for r in report.rows if r.status == UNRESOLVED] == [
        12, 19]
    assert not report.has_mismatch

    found = []
    compute = verify.minimum_distance

    def recording(code, cfg=None):
        found.append(compute(code, cfg))
        return found[-1]

    monkeypatch.setattr(verify, "minimum_distance", recording)
    row = load_table("D1")[11]
    assert process_row(row, REG, load_errata(), shallow).status == UNRESOLVED
    (dist,) = found
    assert not dist.exact and dist.value == 2 and dist.witness is not None
    heavy = len(dist.witness) - dist.witness.count(0)
    assert dist.value <= row.d <= heavy
    # a proven bound above the printed d, or a verified witness lighter
    # than it, contradicts the paper
    for d in (dist.value - 1, heavy + 1):
        assert process_row(replace(row, d=d), REG, load_errata(),
                           shallow).status == MISMATCH
