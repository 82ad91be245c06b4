"""Command-line front end.

Subcommands: field, dickson, sequence, code, table, sweep.  Exit status 0
on success, 1 on a verification mismatch, 2 on usage errors.  The
registry path can be overridden with --registry or the DICKSON_REGISTRY
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .cyclic import (DistanceConfig, DistanceResult, bch_lower_bound,
                     code_from_sequence, minimum_distance)
from .dickson import DicksonSpec, dickson_poly, shift_by_one
from .galois import FieldError, ZERO, poly_str
from .lfsr import defining_sequence, minimal_poly_dft, minimal_poly_gcd
from .registry import RegistryError, UnknownEntryError, load_registry
from .verify import (NoTheoremApplies, TABLE_IDS, predict, run_table,
                     sweep_field, table_distance_config)


class UsageError(Exception):
    pass


def _field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="subfield size q")
    p.add_argument("--m", type=int, required=True, help="extension degree m")
    p.add_argument("--registry", help="registry file path")


def _spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["D", "E"], required=True,
                   help="Dickson kind: first (D) or second (E)")
    p.add_argument("--order", type=_int_at_least(0), required=True,
                   help="order h >= 0")
    p.add_argument("--a", default="0",
                   help="parameter a: 0, a^k, alpha^k, integer, or c/d")
    p.add_argument("--offset", default=None,
                   help="constant added to the polynomial (e.g. -1)")


def _int_at_least(low: int):
    """Argument type for an int >= low, checked while parsing so bad values
    exit 2 (--order: low 0, --wmax: low 1)."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an int >= {low}: {text!r}")
        return int(text)
    return parse


def _resolve_field(args):
    registry = load_registry(args.registry)
    if not registry.has(args.q, args.m):
        raise UsageError(f"no registry entry for (q={args.q}, m={args.m})")
    return registry, registry.field(args.q, args.m)


def _resolve_spec(F, args) -> DicksonSpec:
    try:
        a = F.parse_element(args.a)
        offset = F.parse_element(args.offset) if args.offset else ZERO
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return DicksonSpec(kind=args.kind, h=args.order, a=a, offset=offset)


def cmd_field(args) -> int:
    _, F = _resolve_field(args)
    sub = " ".join(F.format_element(x) for x in F.subfield_logs())
    print(f"GF({F.r}) over GF({F.q}); p={F.p} t={F.t} m={F.m} n={F.n}")
    print(f"primitive polynomial: {poly_str(F.prim_poly)} over GF({F.p})")
    print(f"subfield GF({F.q}): {sub}")
    print(f"Tr(1) = {F.format_element(F.trace(F.one))}  delta(1) = {F.delta(F.one)}")
    return 0


def cmd_dickson(args) -> int:
    _, F = _resolve_field(args)
    spec = _resolve_spec(F, args)
    f = dickson_poly(spec, F)
    print(f"{spec.label(F)} = {f.pretty()}")
    if args.shifted:
        print(f"shifted by one: {shift_by_one(f).pretty()}")
    return 0


def cmd_sequence(args) -> int:
    _, F = _resolve_field(args)
    spec = _resolve_spec(F, args)
    s = defining_sequence(F, spec)
    print(f"s: {s.symbol_string()}")
    for res in (minimal_poly_gcd(s), minimal_poly_dft(s)):
        print(f"minimal polynomial ({res.method}): {res.poly.text()}  "
              f"L = {res.linear_span}")
    return 0


def cmd_code(args) -> int:
    if args.wmax is not None and args.distance != "exact":
        raise UsageError(f"--wmax needs --distance exact, not {args.distance}")
    t0 = time.perf_counter()
    _, F = _resolve_field(args)
    spec = _resolve_spec(F, args)
    code = code_from_sequence(defining_sequence(F, spec))
    bch = dist = None
    if args.distance == "exact" and code.k:
        dist = minimum_distance(code, _with_wmax(DistanceConfig(), args.wmax))
        bch = dist.bch_bound
    elif code.k:
        bch = bch_lower_bound(code)
        if args.distance == "bch":
            dist = DistanceResult(bch, "bch-only", bch)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    payload = {
        "n": code.n, "k": code.k, "q": code.q, "m": F.m,
        "a": F.format_element(spec.a),
        "generator": code.g.text(),
        "bch_bound": bch,
        "d": dist.value if dist else None,
        "d_exact": dist.exact if dist else None,
        "d_method": dist.method if dist else None,
        "witness": _witness_text(F, dist) if dist else None,
        "runtime_ms": round(runtime_ms, 1),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        d = "" if dist is None else f"{'' if dist.exact else '>='}{dist.value}"
        print("n,k,d,m,q,a,Bd,Opt")
        print(f"{code.n},{code.k},{d},{F.m},{code.q},"
              f"{F.format_element(spec.a)},,")
    else:
        print(f"[{code.n},{code.k}] code over GF({code.q}) from {spec.label(F)}")
        print(f"generator: {code.g.text()}")
        if bch is not None:
            print(f"BCH lower bound: {bch}")
        if dist:
            print(f"distance: {dist.describe()}")
    return 0


def _witness_text(F, dist) -> str | None:
    if dist is None or dist.witness is None:
        return None
    st = F.subfield_tables()
    return " ".join(F.format_element(int(st.code_to_log[c]))
                    for c in dist.witness)


def _with_wmax(cfg: DistanceConfig, wmax: int | None) -> DistanceConfig:
    """cfg with ``--wmax`` as its search depth; cfg itself without one."""
    return cfg if wmax is None else dataclasses.replace(cfg, w_max=wmax)


def cmd_table(args) -> int:
    registry = load_registry(args.registry)
    cfg = _with_wmax(table_distance_config(args.id), args.wmax)
    report = run_table(args.id, registry, cfg)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        for r in report.rows:
            print(r.line())
        print(f"summary: {report.counts()}")
    return 1 if report.has_mismatch else 0


def cmd_sweep(args) -> int:
    _, F = _resolve_field(args)
    # the regime guards do not depend on a, so outside every regime a = 0
    # raises the NoTheoremApplies that names the reason
    predict(DicksonSpec(kind=args.kind, h=args.order, a=ZERO), F)
    results = sweep_field(F, args.kind, args.order)
    bad = 0
    for a, rep in results:
        ok = rep.generator_match and rep.dimension_match
        bad += 0 if ok else 1
        status = "ok" if ok else "DISAGREE"
        print(f"a={F.format_element(a):>6}  {rep.theorem:<13} {rep.case:<28} "
              f"k={rep.actual_dimension:>3}  {status}")
    print(f"swept {len(results)} values of a; disagreements: {bad}")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dickson-codes",
        description="Cyclic codes from Dickson polynomials over GF(q).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="describe a registry field")
    _field_args(p)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("dickson", help="print a Dickson polynomial")
    _field_args(p)
    _spec_args(p)
    p.add_argument("--shifted", action="store_true",
                   help="also print the expansion at x+1")
    p.set_defaults(fn=cmd_dickson)

    p = sub.add_parser("sequence", help="defining sequence and its minimal "
                                        "polynomial by both methods")
    _field_args(p)
    _spec_args(p)
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("code", help="build the cyclic code and its distance")
    _field_args(p)
    _spec_args(p)
    p.add_argument("--distance", choices=["exact", "bch", "none"],
                   default="exact")
    p.add_argument("--format", choices=["text", "json", "csv"], default="json")
    p.add_argument("--wmax", type=_int_at_least(1), default=None,
                   help="search depth; only with --distance exact")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("table", help="reproduce a printed code table")
    p.add_argument("--id", choices=list(TABLE_IDS), required=True)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--wmax", type=_int_at_least(1), default=None)
    p.add_argument("--registry", help="registry file path")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("sweep", help="predicted vs pipeline generator for "
                                     "every a in the field")
    _field_args(p)
    p.add_argument("--kind", choices=["D"], default="D")
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, FieldError, RegistryError, UnknownEntryError,
            NoTheoremApplies) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
