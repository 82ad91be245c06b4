"""The package's public surface and the entry points the benchmark wraps."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import dickson_codes
from dickson_codes import cyclic, galois, lfsr, polyring

#: Retired helpers, each with the module that defined it.
REMOVED = ((cyclic, "even_like_subcode"), (polyring, "reciprocal"),
           (polyring, "coset_leaders"), (galois, "find_primitive_poly"),
           (galois, "artin_cubic_has_nonzero_root"), (lfsr, "sequence_poly"),
           (galois, "LogTables"))


ROOT = Path(__file__).resolve().parents[1]


def _tracing_module():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_names_resolve_once():
    names = dickson_codes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(dickson_codes, name), name


def test_removed_helpers_are_gone():
    for module, name in REMOVED:
        assert name not in dickson_codes.__all__
        assert not hasattr(dickson_codes, name), name
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_traced_entry_points_exist():
    # the tracer wraps owner.__dict__[attr] and skips a missing one
    for _, owner, attr in _tracing_module().ENTRY_POINTS:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_setup_probe_builds_fields():
    # the benchmark's set-up probe calls Field.subfield_tables and
    # Field.vec_tables in a fresh interpreter and prints the seconds
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         str(ROOT / "src"), "2,4 4,4 9,2"],
        capture_output=True, text=True, check=True, timeout=120)
    assert float(out.stdout) > 0
