"""The repository's command-line tools, run as a user runs them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dickson_codes import verify
from dickson_codes.cyclic import (DistanceConfig, _mitm_sides,
                                  _smallest_shift, bch_lower_bound,
                                  code_from_sequence)
from dickson_codes.dickson import DicksonSpec
from dickson_codes.galois import ZERO
from dickson_codes.lfsr import defining_sequence
from dickson_codes.registry import default_registry

ROOT = Path(__file__).resolve().parents[1]


def _snapshot(*sections):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "snapshot.py"), *sections],
        capture_output=True, text=True, env=env, check=False)


def _table_codes():
    """Each table row's code, built as ``verify.process_row`` builds it."""
    registry, errata = default_registry(), verify.load_errata()
    for table_id in verify.TABLE_IDS:
        for row in verify.load_table(table_id):
            eff, _ = verify.apply_errata(row, errata)
            F = registry.field(eff.q, eff.m)
            offset = F.scalar(eff.offset) if eff.offset else ZERO
            spec = DicksonSpec(kind=eff.kind, h=eff.order,
                               a=F.parse_element(eff.a), offset=offset)
            yield (table_id, row.index), code_from_sequence(
                defining_sequence(F, spec))


def test_snapshot_rows_carry_normal_form_witnesses():
    proc = _snapshot("rows")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 141
    for rec, (key, code) in zip(records, _table_codes(), strict=True):
        assert (rec["table"], rec["row"]) == key
        assert rec["exact"] and rec["certified_lower"] == rec["d"], key
        word = np.array(rec["witness"], dtype=np.uint8)
        assert np.count_nonzero(word) == rec["d"] and code.contains(word), key
        st = code.field.subfield_tables()
        assert _smallest_shift(word[None], st) == tuple(rec["witness"]), key
        if code.q**code.k <= DistanceConfig().full_enum_limit:
            # MITM exactly where the levels from the BCH bound to d hold
            # fewer keys than the q^(k-2) words the pinned walk visits
            keys = sum(sum(_mitm_sides(code.n, code.q, w))
                       for w in range(bch_lower_bound(code), rec["d"] + 1))
            fits = keys < code.q ** max(code.k - 2, 0)
            assert rec["method"] == ("mitm" if fits else "exhaustive"), key


def test_snapshot_unknown_section_exits_2():
    proc = _snapshot("rows", "nonsense")
    assert proc.returncode == 2
    assert "unknown section 'nonsense'" in proc.stderr and not proc.stdout


def test_snapshot_sweep_agrees_on_every_case():
    proc = _snapshot("sweep")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 3284
    for rec in records:
        assert rec["generator_match"] and rec["dimension_match"], rec
        assert rec["predicted_dimension"] == rec["actual_dimension"], rec
    assert ({rec["theorem"] for rec in records}
            == {s.theorem for s in verify._STATEMENTS})


def test_package_has_no_bare_assert():
    # guard checks raise: ``python -O`` strips every assert statement
    found = []
    for path in sorted((ROOT / "src" / "dickson_codes").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
