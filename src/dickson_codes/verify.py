"""Executable case analysis of the claimed code parameters, plus
reproduction of the printed code tables.

``predict`` reads one table, ``_STATEMENTS``: it takes the statement
whose (p, t, q, h) regime holds, checks its guard, evaluates delta once,
and runs the statement's literal case split, in which the condition on
the parameter a selects the zeros of the stated generator (x-1)^delta *
prod_e M_{alpha^-e} and a distance constraint (exact value, range, or
lower bound); the dimension is n minus the number of zeros.  x^n - 1 is
squarefree (gcd(n, q) = 1), so equal zero sets mean equal generators.
Documented resolutions of inconsistent delta-arguments (see
data/errata.csv) are baked in.

Regime guards are computational: a statement applies only when its source
exponents are nonzero mod n, lie in pairwise distinct q-cyclotomic
cosets, and each coset has full size m.  These are exactly the structural
facts the statements rely on, so the guard extends a regime to any (q, m)
where its derivation is valid and withdraws it where it is not; the
full-field sweep is the arbiter.

``run_table`` rebuilds every printed row through the generic pipeline
(sequence -> generator -> distance), applies the shipped errata, and
reports MATCH / MATCH-WITH-ERRATUM / FLAGGED-ANOMALY / UNRESOLVED /
MISMATCH per row.  UNRESOLVED: n and k agree and the distance search
stopped short, with the proven bound at most the printed d and any
witness at least as heavy as it, so nothing contradicts the paper.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import _codes
from .cyclic import (CyclicCode, DistanceConfig, DistanceResult,
                     bch_lower_bound, code_from_sequence, minimum_distance)
from .dickson import DicksonSpec
from .galois import Field, InternalError, ZERO
from .lfsr import defining_sequence, spectrum
from .polyring import Poly, coset_table
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
    zeros: tuple[int, ...]  # {i : g(alpha^i) = 0} of the stated g, sorted
    dimension: int
    d_constraint: DConstraint


# -- predicted parameters ------------------------------------------------------


def _sources_ok(F: Field, exponents) -> bool:
    """Regime guard: sources nonzero mod n, distinct cosets, full size m."""
    table = coset_table(F.n, F.q)
    residues = [e % F.n for e in exponents]
    cosets = table.index[residues]
    return (0 not in residues and len(set(cosets.tolist())) == len(cosets)
            and bool((table.sizes[cosets] == F.m).all()))


def _is_p_power(h: int, p: int) -> bool:
    if h < 1:
        return False
    while h % p == 0:
        h //= p
    return h == 1


class _Statement(NamedTuple):
    """One statement: the (p, t, q, h) regime it covers, its source
    exponents (None: h itself), the argument of delta as the integer
    coefficients of a polynomial in a (constant first), and its case split
    (F, h, a, delta) -> (case label, exponents e, distance constraint).
    The generator is (x-1)^delta * prod_e M_{alpha^-e}."""

    theorem: str
    regime: Callable[[int, int, int, int], bool]
    sources: tuple[int, ...] | None
    delta_arg: tuple[int, ...]
    cases: Callable[[Field, int, int, int], tuple[str, list[int], DConstraint]]


def _prime_power(F: Field, h: int, a: int, delta: int):
    if F.q == 2:
        dcon = exact(4) if delta else exact(3)
    else:
        dcon = exact(3) if delta else exact(2)
    return f"h={h}, delta(1)={delta}", [h], dcon


def _order2(F: Field, h: int, a: int, delta: int):
    if F.q == 3:
        dcon = rng(4, 5) if delta else exact(4)
    else:
        dcon = rng(3, 4) if delta else exact(3)
    return f"delta(1-2a)={delta}", [1, 2], dcon


def _order3_binary(F: Field, h: int, a: int, delta: int):
    if a == ZERO:
        return f"a=0, delta(1)={delta}", [3], exact(4) if delta else exact(2)
    return (f"a!=0, delta(1+a)={delta}", [1, 3],
            lower(6) if delta else lower(5))


def _order3_general(F: Field, h: int, a: int, delta: int):
    if a == F.one:
        return "a=1", [2, 3], lower(3)
    base = 4 + delta + (1 if F.q == 4 else 0)
    return f"a!=1, delta(1-3a)={delta}", [1, 2, 3], lower(base)


def _order4_ternary(F: Field, h: int, a: int, delta: int):
    if a == F.one:
        return "a=1", [2, 4], exact(2)
    if a == ZERO:
        dcon = exact(3) if F.m % 6 == 0 else lower(4)
        return f"a=0, m mod 6={F.m % 6}", [1, 4], dcon
    return f"a(a-1)!=0, delta={delta}", [1, 2, 4], lower(5 + delta)


def _order4_general(F: Field, h: int, a: int, delta: int):
    if a == F.div(F.scalar(3), F.scalar(2)):
        return "a=3/2", [1, 3, 4], lower(3)
    if a == F.div(F.one, F.scalar(2)):
        return "a=1/2", [2, 3, 4], lower(4)
    return f"a generic, delta={delta}", [1, 2, 3, 4], lower(5 + delta)


def _gcd5_case(F: Field, delta: int) -> DConstraint:
    # the delta=1 "even-weight subcode" step is only valid over GF(2),
    # where sum-zero coordinates force even weight (see STMT-ORDER5-Q4-EVEN)
    if delta:
        return exact(4) if F.q == 2 else rng(3, 4)
    if math.gcd(5, F.n) == 5:
        return exact(2)
    return exact(3)


def _order5_binary(F: Field, h: int, a: int, delta: int):
    if a == ZERO:
        return f"a=0, delta(1)={delta}", [5], _gcd5_case(F, delta)
    if Poly.from_ints(F, [1, 1, 0, 1])(a) == ZERO:  # 1 + a + a^3 = 0
        return f"1+a+a^3=0, delta(1)={delta}", [3, 5], lower(3 + delta)
    return (f"a+a^2+a^4!=0, delta(1)={delta}", [1, 3, 5],
            lower(7 + delta))


def _order5_quaternary(F: Field, h: int, a: int, delta: int):
    if a == ZERO:
        return f"a=0, delta(1)={delta}", [5], _gcd5_case(F, delta)
    if a == F.one:
        # BCH from zeros alpha^2, alpha^3 only; the printed delta(1)=1
        # strengthening is unsound over GF(4) (STMT-ORDER5-Q4-EVEN)
        return f"a=1, delta(1)={delta}", [2, 3, 5], lower(3)
    return f"a+a^2!=0, delta={delta}", [1, 2, 3, 5], lower(6 + delta)


def _order5_char2(F: Field, h: int, a: int, delta: int):
    if a == ZERO:
        return f"a=0, delta(1)={delta}", [1, 4, 5], lower(3 + delta)
    if Poly.from_ints(F, [1, 1, 1])(a) == ZERO:  # 1 + a + a^2 = 0
        return "1+a+a^2=0", [2, 3, 4, 5], lower(5)
    return f"a+a^2+a^3!=0, delta={delta}", [1, 2, 3, 4, 5], lower(6 + delta)


def _order5_ternary(F: Field, h: int, a: int, delta: int):
    if Poly.from_ints(F, [0, 1, 0, 0, 0, 0, -1])(a) == ZERO:  # a - a^6 = 0
        return f"a-a^6=0, delta={delta}", [2, 4, 5], lower(4)
    return f"a-a^6!=0, delta={delta}", [1, 2, 4, 5], lower(7 + delta)


def _order5_char3(F: Field, h: int, a: int, delta: int):
    if Poly.from_ints(F, [1, 1])(a) == ZERO:  # a = -1
        return f"a=-1, delta(1)={delta}", [1, 2, 4, 5], lower(3 + delta)
    if Poly.from_ints(F, [1, 0, 1])(a) == ZERO:  # a^2 = -1
        # zeros alpha^2..alpha^5 give d >= 5; alpha^0 does not extend the
        # run (STMT-ORDER5-CHAR3-D)
        return f"a^2=-1, delta(a-1)={delta}", [2, 3, 4, 5], lower(5)
    return (f"(a+1)(a^2+1)!=0, delta={delta}", [1, 2, 3, 4, 5],
            lower(6 + delta))


def _order5_large(F: Field, h: int, a: int, delta: int):
    if a == F.scalar(2):
        return f"a=2, delta={delta}", [1, 2, 4, 5], lower(3 + delta)
    if a == F.div(F.scalar(2), F.scalar(3)):
        # runs {3,4,5} and {0,1}: alpha^0 does not extend (STMT-ORDER5-LARGE-D)
        return f"a=2/3, delta={delta}", [1, 3, 4, 5], lower(4)
    if Poly.from_ints(F, [1, -3, 1])(a) == ZERO:  # a^2 - 3a + 1 = 0
        return f"a^2-3a+1=0, delta={delta}", [2, 3, 4, 5], lower(5)
    return f"a generic, delta={delta}", [1, 2, 3, 4, 5], lower(6 + delta)


#: One entry per statement; the regimes are pairwise disjoint.
_STATEMENTS = (
    _Statement("prime-power", lambda p, t, q, h: _is_p_power(h, p),
               None, (1,), _prime_power),
    _Statement("order2", lambda p, t, q, h: h == 2 and p > 2,
               (1, 2), (1, -2), _order2),
    _Statement("order3-binary", lambda p, t, q, h: h == 3 and q == 2,
               (1, 3), (1, 1), _order3_binary),
    _Statement("order3-general",
               lambda p, t, q, h: h == 3 and (p >= 5 or (p == 2 and t >= 2)),
               (1, 2, 3), (1, -3), _order3_general),
    _Statement("order4-ternary", lambda p, t, q, h: h == 4 and q == 3,
               (1, 2, 4), (1, -1, -1), _order4_ternary),
    _Statement("order4-general",
               lambda p, t, q, h: h == 4 and (p >= 5 or (p == 3 and t >= 2)),
               (1, 2, 3, 4), (1, -4, 2), _order4_general),
    _Statement("order5-binary", lambda p, t, q, h: h == 5 and q == 2,
               (1, 3, 5), (1, 1, 1), _order5_binary),  # Tr(1+a+a^2) = Tr(1)
    _Statement("order5-quaternary", lambda p, t, q, h: h == 5 and q == 4,
               (1, 2, 3, 5), (1, 1, 1), _order5_quaternary),
    _Statement("order5-char2",
               lambda p, t, q, h: h == 5 and p == 2 and t >= 3,
               (1, 2, 3, 4, 5), (1, 1, 1), _order5_char2),
    _Statement("order5-ternary", lambda p, t, q, h: h == 5 and q == 3,
               (1, 2, 4, 5), (1, 1, 2), _order5_ternary),
    _Statement("order5-char3",
               lambda p, t, q, h: h == 5 and p == 3 and t >= 2,
               (1, 2, 3, 4, 5), (1, 1, 2), _order5_char3),
    _Statement("order5-large-char", lambda p, t, q, h: h == 5 and p >= 7,
               (1, 2, 3, 4, 5), (1, -5, 5), _order5_large),
)


def predict(spec: DicksonSpec, F: Field) -> PredictedCode:
    """Predicted zero set of the generator, dimension and distance
    constraint.

    Raises ValueError when a or the offset is not an element of F, and
    NoTheoremApplies outside the implemented first-kind regimes (order
    p^u, 2, 3, 4, 5 with the stated characteristic splits).
    """
    a, offset, h = F.check(spec.a), F.check(spec.offset), spec.h
    stmt = next((s for s in _STATEMENTS if s.regime(F.p, F.t, F.q, h)), None)
    if spec.kind != "D" or offset != ZERO or stmt is None:
        raise NoTheoremApplies("no theorem applies; use the generic pipeline")
    if not _sources_ok(F, stmt.sources or (h,)):
        raise NoTheoremApplies("coset structure outside the stated regime")
    delta = F.delta(Poly.from_ints(F, stmt.delta_arg)(a))
    case, exponents, dcon = stmt.cases(F, h, a, delta)
    # alpha^0 = 1 is the root of x - 1; M_{alpha^-e} vanishes on -e's coset
    table = coset_table(F.n, F.q)
    named = np.zeros(len(table.leaders), dtype=bool)
    named[table.index[[0] * delta + [-e % F.n for e in exponents]]] = True
    zeros = np.flatnonzero(named[table.index])
    return PredictedCode(theorem=stmt.theorem, case=case,
                         zeros=tuple(zeros.tolist()),
                         dimension=F.n - len(zeros), d_constraint=dcon)


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
        generator_match=pred.zeros == actual.zeros,
        dimension_match=pred.dimension == actual.k,
        predicted_dimension=pred.dimension,
        actual_dimension=actual.k,
        d_ok=d_ok,
        d_constraint=pred.d_constraint.describe(),
    )


def sweep_field(F: Field, kind: str, h: int) -> list[tuple[int, CaseReport]]:
    """Compare predicted vs pipeline zero sets for every a in GF(q^m).

    Every case runs ``predict``, ``defining_sequence``, ``spectrum`` (whose
    reconstruction check proves the support I) and ``compare``.  The code
    depends only on I (Blahut's theorem), so only the first case of each I
    runs ``code_from_sequence``; a later case with the same I reuses that
    code after checking S(x) g(x) = 0 mod x^n - 1.  With every c_i, i in I,
    nonzero, that proves g is the case's own minimal polynomial.  The
    shared codes live only for this call.
    """
    st = F.subfield_tables()
    codes: dict[tuple[int, ...], CyclicCode] = {}
    out = []
    for a in F.elements():
        spec = DicksonSpec(kind=kind, h=h, a=a)
        try:
            pred = predict(spec, F)
        except NoTheoremApplies:
            continue
        s = defining_sequence(F, spec)
        support = spectrum(s).support
        code = codes.get(support)
        if code is None:
            code = codes[support] = code_from_sequence(s)
        elif not _codes.cyclic_product_is_zero(s.codes, code.g_codes, st):
            raise InternalError("shared generator does not annihilate the "
                                "sequence of its spectral support")
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
UNRESOLVED = "UNRESOLVED"
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
        d = self.computed_d if self.d_exact else f">={self.computed_d}"
        got = f"[{self.computed_n},{self.computed_k},{d}]"
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
    """The distance settings of a table's rows: the defaults, for every
    table (their w_max of 13 is what D7's deep rows need)."""
    return DistanceConfig()


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

    if eff.n != F.n:
        status = FLAGGED_ANOMALY
    elif eff.k == code.k and dist.exact and eff.d == dist.value:
        status = MATCH_WITH_ERRATUM if applied else MATCH
    elif (eff.k == code.k and not dist.exact and dist.value <= eff.d
          and (dist.witness is None
               or eff.d <= len(dist.witness) - dist.witness.count(0))):
        status = UNRESOLVED
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
              cfg: DistanceConfig | None = None) -> TableReport:
    registry = registry or default_registry()
    errata = load_errata()
    cfg = cfg or table_distance_config(table_id)
    reports = [process_row(r, registry, errata, cfg)
               for r in load_table(table_id)]
    return TableReport(table=table_id, rows=reports)
