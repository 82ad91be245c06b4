"""Executable case analysis of the claimed code parameters, plus
reproduction of the printed code tables.

``predict`` encodes each statement's case split literally: the algebraic
condition on the parameter a selects the stated product of (x-1)^delta
and minimal polynomials, the dimension is the complement of its degree,
and a distance constraint (exact value, range, or lower bound) comes from
the statement's distance table.  Documented resolutions of inconsistent
delta-arguments (see data/errata.csv) are baked in.

Regime guards are computational: a handler applies only when its source
exponents are nonzero mod n, lie in pairwise distinct q-cyclotomic
cosets, and each coset has full size m.  These are exactly the structural
facts the statements rely on, so the guard extends a regime to any (q, m)
where its derivation is valid and withdraws it where it is not; the
full-field sweep is the arbiter.

``run_table`` rebuilds every printed row through the generic pipeline
(sequence -> generator -> distance), applies the shipped errata, and
reports MATCH / MATCH-WITH-ERRATUM / FLAGGED-ANOMALY / MISMATCH per row.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources

from .cyclic import (CyclicCode, DistanceConfig, DistanceResult,
                     bch_lower_bound, code_from_sequence, minimum_distance)
from .dickson import DicksonSpec
from .galois import Field, ZERO
from .lfsr import defining_sequence
from .polyring import Poly, cyclotomic_coset, minimal_polynomial
from .registry import Registry, UnknownEntryError, default_registry

TABLE_IDS = ("D1", "D2", "D3", "D4", "D5", "D7", "E", "MORE")


class NoTheoremApplies(ValueError):
    """No implemented statement covers this (kind, order, q, m) regime."""


# -- distance constraints ------------------------------------------------------


@dataclass(frozen=True)
class DConstraint:
    kind: str  # 'exact' | 'range' | 'lower'
    lo: int
    hi: int | None = None

    def satisfied_by(self, d: int) -> bool:
        if self.kind == "exact":
            return d == self.lo
        if self.kind == "range":
            return self.lo <= d <= (self.hi if self.hi is not None else d)
        return d >= self.lo

    def describe(self) -> str:
        if self.kind == "exact":
            return f"d = {self.lo}"
        if self.kind == "range":
            return f"{self.lo} <= d <= {self.hi}"
        return f"d >= {self.lo}"


def exact(v: int) -> DConstraint:
    return DConstraint("exact", v)


def rng(lo: int, hi: int) -> DConstraint:
    return DConstraint("range", lo, hi)


def lower(v: int) -> DConstraint:
    return DConstraint("lower", v)


@dataclass(frozen=True)
class PredictedCode:
    theorem: str
    case: str
    generator: Poly
    dimension: int
    d_constraint: DConstraint


# -- predicted parameters ------------------------------------------------------


def _sources_ok(F: Field, exponents) -> bool:
    """Regime guard: sources nonzero mod n, distinct cosets, full size m."""
    n = F.n
    if n < 2:
        return False
    leaders = set()
    for e in exponents:
        e %= n
        if e == 0:
            return False
        c = cyclotomic_coset(n, F.q, e)
        if c.size != F.m or c.leader in leaders:
            return False
        leaders.add(c.leader)
    return True


def _assemble(F: Field, delta_arg: int, exponents) -> tuple[Poly, int]:
    """(x-1)^delta(arg) * prod of minimal polynomials of alpha^{-e}."""
    delta = F.delta(delta_arg)
    g = Poly.one(F)
    if delta:
        g = g * minimal_polynomial(F, F.one)  # x - 1
    seen = set()
    for e in exponents:
        a = (-e) % F.n
        leader = cyclotomic_coset(F.n, F.q, a).leader
        if leader in seen:
            continue
        seen.add(leader)
        g = g * minimal_polynomial(F, a)
    return g.monic(), delta


def _is_p_power(h: int, p: int) -> bool:
    if h < 1:
        return False
    while h % p == 0:
        h //= p
    return h == 1


def _poly_in_a(F: Field, a: int, coeffs: list[int]) -> int:
    """Evaluate an integer-coefficient polynomial at a (constant first)."""
    acc = ZERO
    for i, c in enumerate(coeffs):
        term = F.mul(F.scalar(c), F.pow(a, i)) if i else F.scalar(c)
        acc = F.add(acc, term)
    return acc


def predict(spec: DicksonSpec, F: Field) -> PredictedCode:
    """Predicted generator, dimension and distance constraint.

    Raises NoTheoremApplies outside the implemented first-kind regimes
    (order p^u, 2, 3, 4, 5 with the stated characteristic splits).
    """
    if spec.kind != "D" or spec.offset != ZERO:
        raise NoTheoremApplies("no theorem applies; use the generic pipeline")
    p, t, q, h, a = F.p, F.t, F.q, spec.h, spec.a

    if _is_p_power(h, p):
        return _predict_trace_power(F, spec)
    if h == 2 and p > 2:
        return _predict_order2(F, spec)
    if h == 3 and q == 2:
        return _predict_order3_binary(F, spec)
    if h == 3 and (p >= 5 or (p == 2 and t >= 2)):
        return _predict_order3_general(F, spec)
    if h == 4 and q == 3:
        return _predict_order4_ternary(F, spec)
    if h == 4 and (p >= 5 or (p == 3 and t >= 2)):
        return _predict_order4_general(F, spec)
    if h == 5 and q == 2:
        return _predict_order5_binary(F, spec)
    if h == 5 and q == 4:
        return _predict_order5_quaternary(F, spec)
    if h == 5 and p == 2 and t >= 3:
        return _predict_order5_char2(F, spec)
    if h == 5 and q == 3:
        return _predict_order5_ternary(F, spec)
    if h == 5 and p == 3 and t >= 2:
        return _predict_order5_char3(F, spec)
    if h == 5 and p >= 7:
        return _predict_order5_large(F, spec)
    raise NoTheoremApplies("no theorem applies; use the generic pipeline")


def _guarded(F: Field, sources) -> None:
    if not _sources_ok(F, sources):
        raise NoTheoremApplies("coset structure outside the stated regime")


def _finish(F: Field, theorem: str, case: str, delta_arg: int,
            exponents, dcon: DConstraint) -> PredictedCode:
    g, _ = _assemble(F, delta_arg, exponents)
    return PredictedCode(theorem=theorem, case=case, generator=g,
                         dimension=F.n - g.degree, d_constraint=dcon)


def _predict_trace_power(F: Field, spec: DicksonSpec) -> PredictedCode:
    h = spec.h
    _guarded(F, [h])
    delta = F.delta(F.one)
    if F.q == 2:
        dcon = exact(4) if delta else exact(3)
    else:
        dcon = exact(3) if delta else exact(2)
    return _finish(F, "prime-power", f"h={h}, delta(1)={delta}", F.one, [h],
                   dcon=dcon)


def _predict_order2(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2])
    arg = _poly_in_a(F, spec.a, [1, -2])  # 1 - 2a
    delta = F.delta(arg)
    if F.q == 3:
        dcon = rng(4, 5) if delta else exact(4)
    else:
        dcon = rng(3, 4) if delta else exact(3)
    return _finish(F, "order2", f"delta(1-2a)={delta}", arg, [1, 2],
                   dcon=dcon)


def _predict_order3_binary(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 3])
    a = spec.a
    arg = _poly_in_a(F, a, [1, 1])  # 1 + a
    delta = F.delta(arg)
    if a == ZERO:
        dcon = exact(4) if delta else exact(2)
        return _finish(F, "order3-binary", f"a=0, delta(1)={delta}", arg, [3],
                       dcon=dcon)
    dcon = lower(6) if delta else lower(5)
    return _finish(F, "order3-binary", f"a!=0, delta(1+a)={delta}", arg, [1, 3],
                   dcon=dcon)


def _predict_order3_general(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 3])
    a = spec.a
    arg = _poly_in_a(F, a, [1, -3])  # 1 - 3a
    delta = F.delta(arg)
    if a == F.one:
        return _finish(F, "order3-general", "a=1", arg, [2, 3], dcon=lower(3))
    base = 4 + delta + (1 if F.q == 4 else 0)
    return _finish(F, "order3-general", f"a!=1, delta(1-3a)={delta}", arg,
                   [1, 2, 3], dcon=lower(base))


def _predict_order4_ternary(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 4])
    a = spec.a
    arg = _poly_in_a(F, a, [1, -1, -1])  # 1 - a - a^2
    delta = F.delta(arg)
    if a == F.one:
        return _finish(F, "order4-ternary", "a=1", arg, [2, 4], dcon=exact(2))
    if a == ZERO:
        dcon = exact(3) if F.m % 6 == 0 else lower(4)
        return _finish(F, "order4-ternary", f"a=0, m mod 6={F.m % 6}", arg, [1, 4],
                       dcon=dcon)
    return _finish(F, "order4-ternary", f"a(a-1)!=0, delta={delta}", arg,
                   [1, 2, 4], dcon=lower(5 + delta))


def _predict_order4_general(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 3, 4])
    a = spec.a
    arg = _poly_in_a(F, a, [1, -4, 2])  # 1 - 4a + 2a^2
    delta = F.delta(arg)
    three_halves = F.div(F.scalar(3), F.scalar(2))
    one_half = F.div(F.one, F.scalar(2))
    if a == three_halves:
        return _finish(F, "order4-general", "a=3/2", arg, [1, 3, 4], dcon=lower(3))
    if a == one_half:
        return _finish(F, "order4-general", "a=1/2", arg, [2, 3, 4], dcon=lower(4))
    return _finish(F, "order4-general", f"a generic, delta={delta}", arg,
                   [1, 2, 3, 4], dcon=lower(5 + delta))


def _gcd5_case(F: Field, delta: int) -> DConstraint:
    # the delta=1 "even-weight subcode" step is only valid over GF(2),
    # where sum-zero coordinates force even weight (see STMT-ORDER5-Q4-EVEN)
    if delta:
        return exact(4) if F.q == 2 else rng(3, 4)
    if math.gcd(5, F.n) == 5:
        return exact(2)
    return exact(3)


def _predict_order5_binary(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 3, 5])
    a = spec.a
    arg = _poly_in_a(F, a, [1, 1, 1])  # 1 + a + a^2; Tr equals Tr(1) here
    delta = F.delta(arg)
    if a == ZERO:
        return _finish(F, "order5-binary", f"a=0, delta(1)={delta}", arg, [5],
                       dcon=_gcd5_case(F, delta))
    if _poly_in_a(F, a, [1, 1, 0, 1]) == ZERO:  # 1 + a + a^3 = 0
        return _finish(F, "order5-binary", f"1+a+a^3=0, delta(1)={delta}", arg,
                       [3, 5], dcon=lower(3 + delta))
    return _finish(F, "order5-binary", f"a+a^2+a^4!=0, delta(1)={delta}", arg,
                   [1, 3, 5], dcon=lower(7 + delta))


def _predict_order5_quaternary(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 3, 5])
    a = spec.a
    arg = _poly_in_a(F, a, [1, 1, 1])  # 1 + a + a^2
    delta = F.delta(arg)
    if a == ZERO:
        return _finish(F, "order5-quaternary", f"a=0, delta(1)={delta}", arg, [5],
                       dcon=_gcd5_case(F, delta))
    if a == F.one:
        # BCH from zeros alpha^2, alpha^3 only; the printed delta(1)=1
        # strengthening is unsound over GF(4) (STMT-ORDER5-Q4-EVEN)
        return _finish(F, "order5-quaternary", f"a=1, delta(1)={delta}", arg,
                       [2, 3, 5], dcon=lower(3))
    return _finish(F, "order5-quaternary", f"a+a^2!=0, delta={delta}", arg,
                   [1, 2, 3, 5], dcon=lower(6 + delta))


def _predict_order5_char2(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 3, 4, 5])
    a = spec.a
    arg = _poly_in_a(F, a, [1, 1, 1])
    delta = F.delta(arg)
    if a == ZERO:
        return _finish(F, "order5-char2", f"a=0, delta(1)={delta}", arg,
                       [1, 4, 5], dcon=lower(3 + delta))
    if arg == ZERO:  # 1 + a + a^2 = 0
        return _finish(F, "order5-char2", "1+a+a^2=0", arg, [2, 3, 4, 5],
                       dcon=lower(5))
    return _finish(F, "order5-char2", f"a+a^2+a^3!=0, delta={delta}", arg,
                   [1, 2, 3, 4, 5], dcon=lower(6 + delta))


def _predict_order5_ternary(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 4, 5])
    a = spec.a
    arg = _poly_in_a(F, a, [1, 1, 2])  # 1 + a + 2a^2
    delta = F.delta(arg)
    sixth = _poly_in_a(F, a, [0, 1, 0, 0, 0, 0, -1])  # a - a^6
    if sixth == ZERO:
        return _finish(F, "order5-ternary", f"a-a^6=0, delta={delta}", arg,
                       [2, 4, 5], dcon=lower(4))
    return _finish(F, "order5-ternary", f"a-a^6!=0, delta={delta}", arg,
                   [1, 2, 4, 5], dcon=lower(7 + delta))


def _predict_order5_char3(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 3, 4, 5])
    a = spec.a
    arg = _poly_in_a(F, a, [1, 1, 2])  # 1 + a + 2a^2
    delta = F.delta(arg)
    if _poly_in_a(F, a, [1, 1]) == ZERO:  # a = -1
        return _finish(F, "order5-char3", f"a=-1, delta(1)={delta}", arg,
                       [1, 2, 4, 5], dcon=lower(3 + delta))
    if _poly_in_a(F, a, [1, 0, 1]) == ZERO:  # a^2 = -1
        # zeros alpha^2..alpha^5 give d >= 5; alpha^0 does not extend the
        # run (STMT-ORDER5-CHAR3-D)
        return _finish(F, "order5-char3", f"a^2=-1, delta(a-1)={delta}", arg,
                       [2, 3, 4, 5], dcon=lower(5))
    return _finish(F, "order5-char3", f"(a+1)(a^2+1)!=0, delta={delta}", arg,
                   [1, 2, 3, 4, 5], dcon=lower(6 + delta))


def _predict_order5_large(F: Field, spec: DicksonSpec) -> PredictedCode:
    _guarded(F, [1, 2, 3, 4, 5])
    a = spec.a
    arg = _poly_in_a(F, a, [1, -5, 5])  # 1 - 5a + 5a^2
    delta = F.delta(arg)
    if a == F.scalar(2):
        return _finish(F, "order5-large-char", f"a=2, delta={delta}", arg,
                       [1, 2, 4, 5], dcon=lower(3 + delta))
    if a == F.div(F.scalar(2), F.scalar(3)):
        # runs {3,4,5} and {0,1}: alpha^0 does not extend (STMT-ORDER5-LARGE-D)
        return _finish(F, "order5-large-char", f"a=2/3, delta={delta}", arg,
                       [1, 3, 4, 5], dcon=lower(4))
    if _poly_in_a(F, a, [1, -3, 1]) == ZERO:  # a^2 - 3a + 1 = 0
        return _finish(F, "order5-large-char", f"a^2-3a+1=0, delta={delta}", arg,
                       [2, 3, 4, 5], dcon=lower(5))
    return _finish(F, "order5-large-char", f"a generic, delta={delta}", arg,
                   [1, 2, 3, 4, 5], dcon=lower(6 + delta))


# -- comparison ----------------------------------------------------------------


@dataclass(frozen=True)
class CaseReport:
    theorem: str
    case: str
    generator_match: bool
    dimension_match: bool
    predicted_dimension: int
    actual_dimension: int
    d_ok: bool | None
    d_constraint: str

    @property
    def all_green(self) -> bool:
        return (self.generator_match and self.dimension_match
                and self.d_ok is not False)


def compare(pred: PredictedCode, actual: CyclicCode,
            distance: DistanceResult | None = None) -> CaseReport:
    d_ok = None
    if distance is not None and distance.exact:
        d_ok = pred.d_constraint.satisfied_by(distance.value)
    return CaseReport(
        theorem=pred.theorem,
        case=pred.case,
        generator_match=pred.generator == actual.g,
        dimension_match=pred.dimension == actual.k,
        predicted_dimension=pred.dimension,
        actual_dimension=actual.k,
        d_ok=d_ok,
        d_constraint=pred.d_constraint.describe(),
    )


def sweep_field(F: Field, kind: str, h: int,
                offset: int = ZERO) -> list[tuple[int, CaseReport]]:
    """Compare predicted vs pipeline generators for every a in GF(q^m)."""
    out = []
    for a in F.elements():
        spec = DicksonSpec(kind=kind, h=h, a=a, offset=offset)
        try:
            pred = predict(spec, F)
        except NoTheoremApplies:
            continue
        code = code_from_sequence(defining_sequence(F, spec))
        out.append((a, compare(pred, code)))
    return out


# -- table data ----------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    table: str
    index: int
    n: int
    k: int
    d: int
    m: int
    q: int
    a: str
    bd: int
    opt: str
    thm: str
    db: str
    kind: str
    order: int
    offset: int


@dataclass(frozen=True)
class Erratum:
    ident: str
    table: str
    row: int | None
    field: str
    printed: str
    corrected: str
    justification: str


def load_errata() -> list[Erratum]:
    text = (resources.files("dickson_codes.data") / "errata.csv").read_text("utf-8")
    out = []
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    for rec in csv.DictReader(lines):
        out.append(Erratum(
            ident=rec["id"], table=rec["table"],
            row=int(rec["row"]) if rec["row"] else None,
            field=rec["field"], printed=rec["printed"],
            corrected=rec["corrected"], justification=rec["justification"]))
    return out


def load_table(table_id: str) -> list[TableRow]:
    if table_id not in TABLE_IDS:
        raise UnknownEntryError(
            f"unknown table id {table_id!r}; one of {TABLE_IDS}")
    text = (resources.files("dickson_codes.data")
            / f"tables/table_{table_id}.csv").read_text("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        rows.append(TableRow(
            table=table_id, index=int(rec["row"]), n=int(rec["n"]),
            k=int(rec["k"]), d=int(rec["d"]), m=int(rec["m"]), q=int(rec["q"]),
            a=rec["a"], bd=int(rec["bd"]), opt=rec["opt"], thm=rec["thm"],
            db=rec["db"], kind=rec["kind"], order=int(rec["order"]),
            offset=int(rec["offset"])))
    return rows


def apply_errata(row: TableRow,
                 errata: list[Erratum]) -> tuple[TableRow, list[str]]:
    applied = []
    eff = row
    for e in errata:
        if e.table != row.table or e.row != row.index:
            continue
        if e.field in ("n", "k", "d", "m", "q", "bd"):
            eff = replace(eff, **{e.field: int(e.corrected)})
        elif e.field == "a":
            eff = replace(eff, a=e.corrected)
        applied.append(e.ident)
    return eff, applied


# -- table running -------------------------------------------------------------

MATCH = "MATCH"
MATCH_WITH_ERRATUM = "MATCH-WITH-ERRATUM"
FLAGGED_ANOMALY = "FLAGGED-ANOMALY"
MISMATCH = "MISMATCH"


@dataclass
class RowReport:
    row: TableRow
    effective: TableRow
    errata: list[str]
    computed_n: int
    computed_k: int
    computed_d: int
    d_exact: bool
    d_method: str
    bch_bound: int
    status: str
    bd_consistent: bool
    theorem_case: CaseReport | None
    runtime_ms: float

    def line(self) -> str:
        printed = f"[{self.row.n},{self.row.k},{self.row.d}]"
        got = f"[{self.computed_n},{self.computed_k},{self.computed_d}]"
        extra = f" errata={','.join(self.errata)}" if self.errata else ""
        return (f"{self.row.table} row {self.row.index:>2}: printed {printed:>14} "
                f"computed {got:>14} {self.status}{extra}")


@dataclass
class TableReport:
    table: str
    rows: list[RowReport]

    @property
    def has_mismatch(self) -> bool:
        return any(r.status == MISMATCH for r in self.rows)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_json(self) -> str:
        payload = []
        for r in self.rows:
            payload.append({
                "table": r.row.table, "row": r.row.index,
                "printed": {"n": r.row.n, "k": r.row.k, "d": r.row.d},
                "computed": {"n": r.computed_n, "k": r.computed_k,
                             "d": r.computed_d, "exact": r.d_exact},
                "m": r.effective.m, "q": r.effective.q, "a": r.effective.a,
                "bch_bound": r.bch_bound, "d_method": r.d_method,
                "bd": r.effective.bd, "bd_consistent": r.bd_consistent,
                "status": r.status, "errata": r.errata,
                "runtime_ms": round(r.runtime_ms, 1),
            })
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        lines = ["table,row,n,k,d,m,q,a,bd,opt,status,computed_n,computed_k,"
                 "computed_d,d_method,bch_bound,errata"]
        for r in self.rows:
            lines.append(
                f"{r.row.table},{r.row.index},{r.row.n},{r.row.k},{r.row.d},"
                f"{r.row.m},{r.row.q},{r.row.a},{r.row.bd},{r.row.opt},"
                f"{r.status},{r.computed_n},{r.computed_k},{r.computed_d},"
                f"{r.d_method},{r.bch_bound},{';'.join(r.errata)}")
        return "\n".join(lines) + "\n"


def table_distance_config(table_id: str) -> DistanceConfig:
    """Per-table search depth: D7 carries the deep rows, the rest cap at 8."""
    if table_id == "D7":
        return DistanceConfig(w_max=13)
    return DistanceConfig(w_max=8)


def process_row(row: TableRow, registry: Registry,
                errata: list[Erratum],
                cfg: DistanceConfig | None = None) -> RowReport:
    t0 = time.perf_counter()
    eff, applied = apply_errata(row, errata)
    cfg = cfg or table_distance_config(row.table)
    F = registry.field(eff.q, eff.m)
    a = F.parse_element(eff.a)
    offset = F.scalar(eff.offset) if eff.offset else ZERO
    spec = DicksonSpec(kind=eff.kind, h=eff.order, a=a, offset=offset)
    code = code_from_sequence(defining_sequence(F, spec))
    dist = minimum_distance(code, cfg)

    case_report = None
    try:
        pred = predict(spec, F)
        case_report = compare(pred, code, dist)
    except NoTheoremApplies:
        pass

    anomaly = eff.n != F.n
    params_match = (eff.n == F.n and eff.k == code.k
                    and dist.exact and eff.d == dist.value)
    if anomaly:
        status = FLAGGED_ANOMALY
    elif params_match:
        status = MATCH_WITH_ERRATUM if applied else MATCH
    else:
        status = MISMATCH
    bd_ok = (not dist.exact) or dist.value <= eff.bd
    return RowReport(
        row=row, effective=eff, errata=applied,
        computed_n=F.n, computed_k=code.k, computed_d=dist.value,
        d_exact=dist.exact, d_method=dist.method, bch_bound=dist.bch_bound,
        status=status, bd_consistent=bd_ok, theorem_case=case_report,
        runtime_ms=(time.perf_counter() - t0) * 1000.0)


def run_table(table_id: str, registry: Registry | None = None,
              cfg: DistanceConfig | None = None,
              workers: int = 1) -> TableReport:
    registry = registry or default_registry()
    errata = load_errata()
    rows = load_table(table_id)
    cfg = cfg or table_distance_config(table_id)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(
                lambda r: process_row(r, registry, errata, cfg), rows))
    else:
        reports = [process_row(r, registry, errata, cfg) for r in rows]
    return TableReport(table=table_id, rows=reports)
