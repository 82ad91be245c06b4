"""The package's public surface and the entry points the benchmark wraps."""

import importlib.util
from pathlib import Path

import dickson_codes
from dickson_codes import cyclic, galois, lfsr, polyring

#: Retired helpers, each with the module that defined it.
REMOVED = ((cyclic, "even_like_subcode"), (polyring, "reciprocal"),
           (polyring, "coset_leaders"), (galois, "find_primitive_poly"),
           (galois, "artin_cubic_has_nonzero_root"), (lfsr, "sequence_poly"))


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
