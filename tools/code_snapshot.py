"""Print one JSON object per distinct first-kind Dickson code: its field,
the first (h, a) that defines it, and the computed n, k, d, exactness,
distance method, certified lower bound and witness.

The package is imported from ``PYTHONPATH``, so two source trees can be
compared code for code with one ``diff``:

    PYTHONPATH=old/src python3 tools/code_snapshot.py > old.jsonl
    PYTHONPATH=src python3 tools/code_snapshot.py > new.jsonl
    diff old.jsonl new.jsonl

The codes are those of D_h(x, a) for every registry field with
2 <= n <= 255, every h in 2..7 and every a in the field, keeping those with
0 < k < n.  Codes are deduplicated by generator within each field, in the
order (h, a) is walked.  Each distance is ``cyclic.minimum_distance`` with
the default ``DistanceConfig``.  No timings are printed.
"""

from __future__ import annotations

import json
import sys

from dickson_codes.cyclic import code_from_sequence, minimum_distance
from dickson_codes.dickson import DicksonSpec
from dickson_codes.lfsr import defining_sequence
from dickson_codes.registry import default_registry


def main(argv: list[str]) -> int:
    registry = default_registry()
    for q, m in sorted(registry.pairs()):
        F = registry.field(q, m)
        if not 2 <= F.n <= 255:
            continue
        seen = set()
        for h in range(2, 8):
            for a in F.elements():
                spec = DicksonSpec(kind="D", h=h, a=a)
                code = code_from_sequence(defining_sequence(F, spec))
                generator = code.g.text()
                if not 0 < code.k < code.n or generator in seen:
                    continue
                seen.add(generator)
                dist = minimum_distance(code)
                print(json.dumps({
                    "q": q, "m": m, "h": h, "a": F.format_element(a),
                    "n": code.n, "k": code.k, "d": dist.value,
                    "exact": dist.exact, "method": dist.method,
                    "certified_lower": dist.certified_lower,
                    "witness": (None if dist.witness is None
                                else list(dist.witness)),
                }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
