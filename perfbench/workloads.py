"""The benchmark's three workloads: inputs from the seed, one public call per
unit of work, and the check of every output.

* ``tables``: every row of the eight tables through ``verify.process_row``
  with its table's ``table_distance_config``; the seed shuffles row order.
  Checked against the golden record: (n, k, d, exact, status) per row.
* ``sweep``: ``verify.sweep_field(F, "D", h)`` for every registry field with
  2 <= n <= 127 and h in {p, 2, 3, 4, 5}; the seed shuffles call order.
  Each case must agree with its predicted generator and dimension, and the
  case count per call must equal the golden record.
* ``mitm``: certification-only distances (no witness search, no full
  enumeration) on random cyclic codes drawn by the seed, stratified by the
  computed MITM key count.  The oracle d comes from exhaustive enumeration
  at generation time, outside every timed interval.

An item is one case of the table, sweep or draw.  A sweep_field call covers
all cases of one (field, h); each case is timed from the end of the previous
one, read off a timestamp taken as ``verify.compare`` returns.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass

from dickson_codes import cyclic, polyring, verify
from dickson_codes.registry import Registry

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
POPULATION = os.path.join(HERE, "mitm_population.json")

#: Distance settings of the mitm workload: every d is certified by MITM
#: levels alone.
MITM_CONFIG = cyclic.DistanceConfig(isd_iterations=0, full_enum_limit=1)

SWEEP_ORDERS = (2, 3, 4, 5)


@dataclass
class Outcome:
    """Result of one unit of work: ``count`` items, of which ``failed``
    failed and ``exact`` have an exact result."""

    count: int
    failed: int
    exact: int
    times_ms: list[float] | None = None


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- tables ------------------------------------------------------------------


class Tables:
    name = "tables"
    #: Thirteen rows take 1 to 22 s each, most of the time of all rows; the
    #: other rows, the median and the 90th percentile among them, take
    #: under 0.45 s, and only those run again.  The cut-off sits in the gap.
    runs = 3
    repeat_max_s = 0.7

    def __init__(self, reg: Registry, golden: dict):
        self.reg = reg
        self.golden = golden["tables"]
        self.errata = verify.load_errata()
        self.rows = [row for tid in verify.TABLE_IDS
                     for row in verify.load_table(tid)]

    def field_pairs(self) -> list[tuple[int, int]]:
        pairs = set()
        for row in self.rows:
            eff, _ = verify.apply_errata(row, self.errata)
            pairs.add((eff.q, eff.m))
        return sorted(pairs)

    def units(self, seed: int) -> list:
        units = [(row, verify.table_distance_config(row.table))
                 for row in self.rows]
        random.Random(seed).shuffle(units)
        return units

    def size(self, unit) -> int:
        return 1

    def key(self, unit) -> str:
        return f"{unit[0].table}/{unit[0].index}"

    def run(self, unit) -> Outcome:
        row, cfg = unit
        rep = verify.process_row(row, self.reg, self.errata, cfg)
        got = [rep.computed_n, rep.computed_k, rep.computed_d, rep.d_exact,
               rep.status]
        case = rep.theorem_case
        ok = (rep.status != verify.MISMATCH
              and (case is None
                   or (case.generator_match and case.dimension_match))
              and got == self.golden.get(self.key(unit)))
        return Outcome(1, 0 if ok else 1, 1 if rep.d_exact else 0)


# -- sweep -------------------------------------------------------------------


class Sweep:
    name = "sweep"
    runs = 3
    repeat_max_s = None

    def __init__(self, reg: Registry, golden: dict):
        self.reg = reg
        self.golden = golden["sweep"]

    def field_pairs(self) -> list[tuple[int, int]]:
        return [(q, m) for q, m in self.reg.pairs()
                if 2 <= self.reg.entries[q, m].spec.r - 1 <= 127]

    def units(self, seed: int) -> list:
        fields = [self.reg.field(q, m) for q, m in self.field_pairs()]
        units = [(F, h) for F in fields
                 for h in sorted({F.p, *SWEEP_ORDERS})]
        random.Random(seed).shuffle(units)
        return units

    def size(self, unit) -> int:
        return self.golden.get(self.key(unit), 1)

    def key(self, unit) -> str:
        F, h = unit
        return f"{F.q},{F.m},{h}"

    def run(self, unit) -> Outcome:
        F, h = unit
        compare = verify.compare
        stamps = [time.perf_counter()]

        def stamped(*args, **kwargs):
            report = compare(*args, **kwargs)
            stamps.append(time.perf_counter())
            return report

        verify.compare = stamped
        try:
            results = verify.sweep_field(F, "D", h)
        finally:
            verify.compare = compare
        expected = self.size(unit)
        bad = sum(1 for _, rep in results
                  if not (rep.generator_match and rep.dimension_match))
        count = max(len(results), expected)
        failed = bad if len(results) == expected else count
        times = None
        if len(stamps) == len(results) + 1:
            times = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]
        return Outcome(count, failed, len(results), times)


# -- mitm --------------------------------------------------------------------


@dataclass
class MitmCase:
    label: str
    code: cyclic.CyclicCode
    oracle_d: int
    recorded_d: int


class Mitm:
    name = "mitm"
    #: A few codes take most of the time and their times vary by 15% from
    #: run to run, so each code's time is its median over three runs.
    runs = 3
    repeat_max_s = None

    def __init__(self, reg: Registry, population: dict):
        self.reg = reg
        self.population = population

    def field_pairs(self) -> list[tuple[int, int]]:
        return sorted({(c["q"], c["m"]) for c in self.population["codes"]})

    def draw(self, seed: int) -> list[dict]:
        """The population entries drawn by the seed, in shuffled order.

        Codes sharing q, n, k, d, BCH bound and the number of minimum-weight
        codewords form a class with one computed key count and one computed
        candidate-hit count.  Each band of key counts contributes a fixed
        number of classes, spread evenly over the band's classes ordered by
        candidate hits, so the verification-bound ones stay in; the seed
        picks one member code of each class.  So every seed draws other
        codes with the same spread of computed work.  Depends on the seed
        and the population file only.
        """
        classes: dict[tuple, list[dict]] = {}
        for c in self.population["codes"]:
            sig = (c["q"], c["n"], c["k"], c["d"], c["bch"], c["a_d"])
            classes.setdefault(sig, []).append(c)
        rng = random.Random(seed)
        chosen = []
        for lo, hi, quota in self.population["bands"]:
            band = sorted(
                (sig for sig, members in classes.items()
                 if lo <= members[0]["keys"] < hi),
                key=lambda sig: (classes[sig][0]["hits"],
                                 classes[sig][0]["keys"], sig))
            quota = len(band) if quota is None else min(quota, len(band))
            for i in range(quota):
                sig = band[(i + 1) * len(band) // quota - 1]
                chosen.append(rng.choice(classes[sig]))
        rng.shuffle(chosen)
        return chosen

    def units(self, seed: int) -> list[MitmCase]:
        factors = {}
        cases = []
        for entry in self.draw(seed):
            F = self.reg.field(entry["q"], entry["m"])
            if (F.q, F.m) not in factors:
                factors[F.q, F.m] = {
                    coset.leader: poly
                    for coset, poly in polyring.factor_xn_minus_1(F.n, F)}
            g = polyring.Poly.one(F)
            for leader in entry["roots"]:
                g = g * factors[F.q, F.m][leader]
            code = cyclic.CyclicCode(F, g.monic())
            weights = cyclic.weight_distribution(code)
            oracle = min(w for w in weights if w > 0)
            label = (f"q={F.q} n={F.n} roots={entry['roots']} "
                     f"[{code.n},{code.k},{oracle}]")
            cases.append(MitmCase(label, code, oracle, entry["d"]))
        return cases

    def size(self, unit) -> int:
        return 1

    def key(self, unit: MitmCase) -> str:
        return unit.label

    def run(self, unit: MitmCase) -> Outcome:
        res = cyclic.minimum_distance(unit.code, MITM_CONFIG)
        ok = (res.exact and res.value == unit.oracle_d
              and unit.oracle_d == unit.recorded_d)
        return Outcome(1, 0 if ok else 1, 1 if res.exact else 0)


def make(name: str, reg: Registry):
    if name == "tables":
        return Tables(reg, load_json(GOLDEN))
    if name == "sweep":
        return Sweep(reg, load_json(GOLDEN))
    if name == "mitm":
        return Mitm(reg, load_json(POPULATION))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tables", "sweep", "mitm")
