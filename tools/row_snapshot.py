"""Print one JSON object per table row: the computed n, k, d, exactness,
status, distance method, witness and certified lower bound.

The package is imported from ``PYTHONPATH``, so two source trees can be
compared row for row with one ``diff``:

    PYTHONPATH=old/src python3 tools/row_snapshot.py > old.jsonl
    PYTHONPATH=src python3 tools/row_snapshot.py > new.jsonl
    diff old.jsonl new.jsonl

Each row runs through ``verify.process_row`` with its table's distance
settings, exactly as ``dickson-codes table`` does.  The row report carries
no witness, so the ``DistanceResult`` is read off ``verify.minimum_distance``
as the row calls it.  Pass table ids as arguments to snapshot only those
tables (default: all eight).
"""

from __future__ import annotations

import json
import sys

from dickson_codes import verify
from dickson_codes.registry import default_registry


def main(argv: list[str]) -> int:
    table_ids = argv or list(verify.TABLE_IDS)
    registry = default_registry()
    errata = verify.load_errata()
    results = []
    compute = verify.minimum_distance

    def recording(code, cfg=None):
        result = compute(code, cfg)
        results.append(result)
        return result

    verify.minimum_distance = recording
    try:
        for table_id in table_ids:
            for row in verify.load_table(table_id):
                results.clear()
                rep = verify.process_row(row, registry, errata)
                (dist,) = results
                print(json.dumps({
                    "table": table_id, "row": row.index,
                    "n": rep.computed_n, "k": rep.computed_k,
                    "d": rep.computed_d, "exact": rep.d_exact,
                    "status": rep.status, "method": dist.method,
                    "witness": (None if dist.witness is None
                                else list(dist.witness)),
                    "certified_lower": dist.certified_lower,
                }), flush=True)
    finally:
        verify.minimum_distance = compute
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
