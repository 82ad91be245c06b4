"""Print one JSON object per case of the whole-field theorem sweep: the
theorem and case that apply, whether the predicted generator and
dimension match the pipeline's, and both dimensions.

The package is imported from ``PYTHONPATH``, so two source trees can be
compared case for case with one ``diff``:

    PYTHONPATH=old/src python3 tools/sweep_snapshot.py > old.jsonl
    PYTHONPATH=src python3 tools/sweep_snapshot.py > new.jsonl
    diff old.jsonl new.jsonl

The cases are those of the acceptance sweep and the ``sweep`` benchmark:
every registry field with 2 <= n <= 127, h in {p, 2, 3, 4, 5}, and every
a in the field, each through ``verify.sweep_field``.
"""

from __future__ import annotations

import json
import sys

from dickson_codes import verify
from dickson_codes.registry import default_registry


def main(argv: list[str]) -> int:
    registry = default_registry()
    for q, m in sorted(registry.pairs()):
        F = registry.field(q, m)
        if not 2 <= F.n <= 127:
            continue
        for h in sorted({F.p, 2, 3, 4, 5}):
            for a, rep in verify.sweep_field(F, "D", h):
                print(json.dumps({
                    "q": q, "m": m, "h": h, "a": F.format_element(a),
                    "theorem": rep.theorem, "case": rep.case,
                    "generator_match": rep.generator_match,
                    "dimension_match": rep.dimension_match,
                    "predicted_dimension": rep.predicted_dimension,
                    "actual_dimension": rep.actual_dimension,
                }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
