"""Regenerate the benchmark's recorded inputs and expected outputs.

    python3 perfbench/records.py golden       # writes perfbench/golden.json
    python3 perfbench/records.py population   # writes perfbench/mitm_population.json

Run from the root of the repository.  ``golden`` records, for every table
row, the computed (n, k, d, exact, status), and for every sweep call its
case count; d_method and the witness are left out because either may change
while d and exactness do not.  Regenerate it only for a change that is meant
to alter those results.

``population`` enumerates the random-code population of the mitm workload:
every cyclic code over a registry field with q in {2,3,4,5,7,8,9} and
3 <= n <= 31 whose generator is a product of q-cyclotomic coset factors of
x^n - 1, with q^k <= 2^16 (so exhaustive enumeration is the oracle), d <= the
default w_max and every MITM level within the default side limit.  Each code
carries its computed MITM key count and candidate-hit count; the bands
stratify the draw by key count.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from dickson_codes import cyclic, polyring, verify  # noqa: E402
from dickson_codes.registry import default_registry  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MITM_QS = (2, 3, 4, 5, 7, 8, 9)
MITM_MAX_N = 31
MITM_MAX_CODEWORDS = 1 << 16

#: (lowest keys, highest keys exclusive, classes drawn or None for all); see
#: workloads.Mitm.draw.
MITM_BANDS = ((4, 1 << 12, None), (1 << 12, 1 << 15, 20),
              (1 << 15, 1 << 18, 4))


def candidate_hits(n: int, q: int, d: int, bch: int, a_d: int) -> int:
    """Computed syndrome matches the MITM levels bch..d must verify.

    Every split of a minimum-weight codeword (up to scaling) into its A and
    B halves matches once; at each even level w, every B support also
    matches the A entry with the same support and negated coefficients.
    """
    genuine = a_d // (q - 1) * math.comb(d, d // 2)
    cancelling = sum(math.comb(n, w // 2) * (q - 1) ** (w // 2 - 1)
                     for w in range(bch, d + 1) if w % 2 == 0)
    return genuine + cancelling


def write_golden(path: str) -> None:
    reg = default_registry()
    tables = workloads.Tables(reg, {"tables": {}})
    golden_tables = {}
    for unit in tables.units(0):
        row, cfg = unit
        rep = verify.process_row(row, reg, tables.errata, cfg)
        golden_tables[tables.key(unit)] = [
            rep.computed_n, rep.computed_k, rep.computed_d, rep.d_exact,
            rep.status]
    sweep = workloads.Sweep(reg, {"sweep": {}})
    golden_sweep = {}
    for unit in sweep.units(0):
        F, h = unit
        results = verify.sweep_field(F, "D", h)
        if not all(r.generator_match and r.dimension_match
                   for _, r in results):
            raise SystemExit(f"sweep disagreement at {sweep.key(unit)}")
        golden_sweep[sweep.key(unit)] = len(results)
    record = {"tables": dict(sorted(golden_tables.items())),
              "sweep": dict(sorted(golden_sweep.items()))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def _coset_unions(sizes: list[int], kmax: int):
    """Index sets of cosets left out of the roots (the nonzeros), with total
    size k in 1..kmax."""

    def rec(start, chosen, k):
        if k >= 1:
            yield list(chosen), k
        for i in range(start, len(sizes)):
            if k + sizes[i] <= kmax:
                chosen.append(i)
                yield from rec(i + 1, chosen, k + sizes[i])
                chosen.pop()

    yield from rec(0, [], 0)


def write_population(path: str) -> None:
    reg = default_registry()
    cfg = cyclic.DistanceConfig()
    hi = MITM_BANDS[-1][1]
    codes = []
    for q, m in reg.pairs():
        F = reg.field(q, m)
        if q not in MITM_QS or not 3 <= F.n <= MITM_MAX_N:
            continue
        factors = polyring.factor_xn_minus_1(F.n, F)
        kmax = int(math.log(MITM_MAX_CODEWORDS, q) + 1e-9)
        for nonzeros, k in _coset_unions([c.size for c, _ in factors], kmax):
            if k == F.n:
                continue
            roots = [i for i in range(len(factors)) if i not in nonzeros]
            g = polyring.Poly.one(F)
            for i in roots:
                g = g * factors[i][1]
            code = cyclic.CyclicCode(F, g.monic())
            weights = cyclic.weight_distribution(code)
            d = min(w for w in weights if w > 0)
            bch = cyclic.bch_lower_bound(code)
            if d > cfg.w_max:
                continue
            levels = range(bch, d + 1)
            if any(max(tracing.mitm_sides(F.n, q, w)) > cfg.mitm_side_limit
                   for w in levels):
                continue
            keys = sum(tracing.mitm_level_keys(F.n, q, w) for w in levels)
            if keys >= hi:
                continue
            codes.append({
                "q": q, "m": m, "n": F.n, "k": k, "d": d, "bch": bch,
                "a_d": weights[d], "keys": keys,
                "hits": candidate_hits(F.n, q, d, bch, weights[d]),
                "roots": [factors[i][0].leader for i in roots]})
    record = {"bands": [list(b) for b in MITM_BANDS], "codes": codes}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"bands": ' + json.dumps(record["bands"]) + ',\n "codes": [\n')
        fh.write(",\n".join("  " + json.dumps(c) for c in codes))
        fh.write("\n ]}\n")


def main(argv: list[str]) -> int:
    if argv == ["golden"]:
        write_golden(workloads.GOLDEN)
    elif argv == ["population"]:
        write_population(workloads.POPULATION)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
