"""Print the computed results of dickson_codes as JSON lines, one object
per table row, per distinct code and per sweep case, with no timings.

The package is imported from ``PYTHONPATH``, so two source trees can be
compared result for result with one ``diff``:

    PYTHONPATH=old/src python3 tools/snapshot.py > old.jsonl
    PYTHONPATH=src python3 tools/snapshot.py > new.jsonl
    diff old.jsonl new.jsonl

Name sections to print only those, in the order given (default: all
three, in this order):

rows
    Every row of the eight tables: the computed n, k, d, exactness,
    status, distance method, witness and certified lower bound.  Each row
    runs through ``verify.process_row`` with its table's distance
    settings, exactly as ``dickson-codes table`` does.  The row report
    carries no witness, so the ``DistanceResult`` is read off
    ``verify.minimum_distance`` as the row calls it.
codes
    Every distinct first-kind Dickson code: its field, the first (h, a)
    that defines it, and the computed n, k, d, exactness, distance method,
    certified lower bound and witness.  The codes are those of D_h(x, a)
    for every registry field with 2 <= n <= 255, every h in 2..7 and
    every a in the field, keeping those with 0 < k < n, deduplicated
    within each field in the order (h, a) is walked.  A case whose
    spectral support I was already seen in its field is skipped before
    its code is built: g is the product of (x - alpha^-i) over i in I, so
    I and g determine each other.  Each distance is
    ``cyclic.minimum_distance`` with the default ``DistanceConfig``.
sweep
    Every case of the whole-field theorem sweep: the theorem and case that
    apply, whether the predicted generator and dimension match the
    pipeline's, and both dimensions.  The cases are those of the
    acceptance sweep and the ``sweep`` benchmark: every registry field
    with 2 <= n <= 127, h in {p, 2, 3, 4, 5}, and every a in the field,
    each through ``verify.sweep_field``.
"""

from __future__ import annotations

import json
import sys

from dickson_codes import verify
from dickson_codes.cyclic import code_from_sequence, minimum_distance
from dickson_codes.dickson import DicksonSpec
from dickson_codes.lfsr import defining_sequence, spectrum
from dickson_codes.registry import default_registry


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _witness(dist):
    return None if dist.witness is None else list(dist.witness)


def rows(registry) -> None:
    errata = verify.load_errata()
    results = []
    compute = verify.minimum_distance

    def recording(code, cfg=None):
        result = compute(code, cfg)
        results.append(result)
        return result

    verify.minimum_distance = recording
    try:
        for table_id in verify.TABLE_IDS:
            for row in verify.load_table(table_id):
                results.clear()
                rep = verify.process_row(row, registry, errata)
                (dist,) = results
                _emit({
                    "table": table_id, "row": row.index,
                    "n": rep.computed_n, "k": rep.computed_k,
                    "d": rep.computed_d, "exact": rep.d_exact,
                    "status": rep.status, "method": dist.method,
                    "witness": _witness(dist),
                    "certified_lower": dist.certified_lower,
                })
    finally:
        verify.minimum_distance = compute


def codes(registry) -> None:
    for q, m in sorted(registry.pairs()):
        F = registry.field(q, m)
        if not 2 <= F.n <= 255:
            continue
        seen = set()
        for h in range(2, 8):
            for a in F.elements():
                s = defining_sequence(F, DicksonSpec(kind="D", h=h, a=a))
                support = spectrum(s).support
                if support in seen:
                    continue
                seen.add(support)
                code = code_from_sequence(s)
                if not 0 < code.k < code.n:
                    continue
                dist = minimum_distance(code)
                _emit({
                    "q": q, "m": m, "h": h, "a": F.format_element(a),
                    "n": code.n, "k": code.k, "d": dist.value,
                    "exact": dist.exact, "method": dist.method,
                    "certified_lower": dist.certified_lower,
                    "witness": _witness(dist),
                })


def sweep(registry) -> None:
    for q, m in sorted(registry.pairs()):
        F = registry.field(q, m)
        if not 2 <= F.n <= 127:
            continue
        for h in sorted({F.p, 2, 3, 4, 5}):
            for a, rep in verify.sweep_field(F, "D", h):
                _emit({
                    "q": q, "m": m, "h": h, "a": F.format_element(a),
                    "theorem": rep.theorem, "case": rep.case,
                    "generator_match": rep.generator_match,
                    "dimension_match": rep.dimension_match,
                    "predicted_dimension": rep.predicted_dimension,
                    "actual_dimension": rep.actual_dimension,
                })


SECTIONS = {"rows": rows, "codes": codes, "sweep": sweep}


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in SECTIONS]
    if unknown:
        print(f"error: unknown section {unknown[0]!r}; choose from "
              f"{', '.join(SECTIONS)}", file=sys.stderr)
        return 2
    registry = default_registry()
    for name in argv or SECTIONS:
        SECTIONS[name](registry)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
