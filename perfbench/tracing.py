"""Outside-in tracing of dickson_codes: spans around each layer's entry points.

Each public entry point is replaced at the module attribute its caller looks
up (``verify.defining_sequence``, ``cyclic.minimal_poly_gcd``, ...), so the
program itself is unchanged.  A span is (name, start, end, parent, item):
spans live in memory and are written out as JSON lines when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  ``minimum_distance`` spans are bucketed by the method
that decided d; the work counts attached to them (codewords, MITM levels and
keys) are computed from n, q, k and the bounds, not counted by the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time

from dickson_codes import cyclic, galois, lfsr, registry, verify

#: Wrapped entry points: (span name, owner, attribute).  The owner is the
#: module or class whose attribute the calling code looks up at call time.
ENTRY_POINTS = (
    ("galois.field_build", registry.Registry, "field"),
    ("galois.field_build", galois.SubfieldTables, "__init__"),
    ("galois.field_build", galois.VecTables, "__init__"),
    ("lfsr.defining_sequence", verify, "defining_sequence"),
    ("dickson.dickson_poly", lfsr, "dickson_poly"),
    ("cyclic.code_from_sequence", verify, "code_from_sequence"),
    ("lfsr.minimal_poly_gcd", cyclic, "minimal_poly_gcd"),
    ("lfsr.minimal_poly_dft", cyclic, "minimal_poly_dft"),
    ("cyclic.code_init", cyclic.CyclicCode, "__init__"),
    ("verify.predict", verify, "predict"),
    ("verify.compare", verify, "compare"),
    ("cyclic.bch_lower_bound", verify, "bch_lower_bound"),
    ("cyclic.bch_lower_bound", cyclic, "bch_lower_bound"),
    ("cyclic.minimum_distance", verify, "minimum_distance"),
    ("cyclic.minimum_distance", cyclic, "minimum_distance"),
)

#: Layers reported by self time and call count, in report order.
LAYERS = (
    "galois.field_build", "dickson.dickson_poly", "lfsr.defining_sequence",
    "lfsr.minimal_poly_gcd", "lfsr.minimal_poly_dft",
    "cyclic.code_from_sequence", "cyclic.code_init", "verify.predict",
    "verify.compare", "cyclic.bch_lower_bound", "bench.item",
)

#: DistanceResult.method -> bucket of the method that decided d.
DISTANCE_BUCKETS = {
    "exhaustive": "exhaustive",
    "bch+witness": "witness",
    "mitm": "mitm",
    "mitm+witness": "mitm",
    "bch-only": "unresolved",
}

ITEM_SPAN = "bench.item"


def mitm_sides(n: int, q: int, w: int) -> tuple[int, int]:
    """Computed side sizes of one MITM level at weight w, as the engine
    checks them against its limit: w//2 free coefficients on the A side,
    the top B coefficient pinned to 1."""
    w1, w2 = w // 2, w - w // 2
    return (math.comb(n, w1) * (q - 1) ** w1,
            math.comb(n, w2) * (q - 1) ** max(0, w2 - 1))


def mitm_level_keys(n: int, q: int, w: int) -> int:
    """Computed key count of one MITM level: both sides at weight w."""
    return sum(mitm_sides(n, q, w))


def mitm_levels(method: str, value: int, certified: int, bch: int) -> range:
    """Weights of the MITM levels the engine completed, from the BCH bound
    up to the certified bound (the level that found d included)."""
    if method == "mitm":
        return range(bch, value + 1)
    if method in ("mitm+witness", "bch-only"):
        return range(bch, certified)
    return range(0)


class Tracer:
    """Span recorder.  Spans are lists [name, start_ns, end_ns, parent,
    item, tags]; ``parent`` is an index into ``spans`` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.item, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "cyclic.bch_lower_bound":
                tracer.spans[idx][5] = {"bound": result}
            elif name == "cyclic.minimum_distance":
                tracer.spans[idx][5] = _distance_tags(tracer, idx, args[0],
                                                      result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block.  Entry
        points the program no longer has are listed in ``missing``."""
        saved = []
        try:
            for name, owner, attr in ENTRY_POINTS:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """name -> [self seconds, calls]; distance spans are keyed by
        ``cyclic.distance.<bucket>``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _, tags) in enumerate(self.spans):
            if name == "cyclic.minimum_distance":
                bucket = tags["bucket"] if tags else "failed"
                name = f"cyclic.distance.{bucket}"
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start - child_ns[i]) / 1e9
            acc[1] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, tags in self.spans:
                rec = {"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "item": item}
                if tags:
                    rec["tags"] = tags
                fh.write(json.dumps(rec) + "\n")


def _distance_tags(tracer: Tracer, idx: int, code, result) -> dict:
    bch = None
    for span in reversed(tracer.spans[idx + 1:]):
        if span[3] == idx and span[0] == "cyclic.bch_lower_bound":
            bch = span[5]["bound"]
            break
    tags = {"bucket": DISTANCE_BUCKETS.get(result.method, "unresolved"),
            "method": result.method, "codewords": 0, "levels": 0, "keys": 0}
    if result.method == "exhaustive":
        tags["codewords"] = code.q ** code.k
    elif bch is not None:
        levels = mitm_levels(result.method, result.value,
                             result.certified_lower, bch)
        tags["levels"] = len(levels)
        tags["keys"] = sum(mitm_level_keys(code.n, code.q, w) for w in levels)
    return tags


def span_cost_ns(rounds: int = 5, calls: int = 20000) -> float:
    """Measured added cost of one traced call: a wrapped no-op against the
    bare no-op, median over alternating rounds."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibrate", noop)
    diffs = []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        tracer.spans.clear()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    diffs.sort()
    return max(diffs[len(diffs) // 2], 0.0)


def layer_metrics(tracer: Tracer, wall_s: float, items: int) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    st = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        secs, calls = st.get(layer, (0.0, 0))
        out[f"{layer}_s"] = (secs, "s")
        out[f"{layer}.calls"] = (calls, "count")
    codewords = levels = keys = 0
    for span in tracer.spans:
        if span[0] == "cyclic.minimum_distance" and span[5]:
            codewords += span[5]["codewords"]
            levels += span[5]["levels"]
            keys += span[5]["keys"]
    for bucket in ("exhaustive", "witness", "mitm"):
        secs, calls = st.get(f"cyclic.distance.{bucket}", (0.0, 0))
        out[f"cyclic.distance.{bucket}_s"] = (secs, "s")
        out[f"cyclic.distance.{bucket}.calls"] = (calls, "count")
    out["cyclic.distance.unresolved"] = (
        st.get("cyclic.distance.unresolved", (0.0, 0))[1], "count")
    ex_s = st.get("cyclic.distance.exhaustive", (0.0, 0))[0]
    mitm_s = st.get("cyclic.distance.mitm", (0.0, 0))[0]
    out["cyclic.exhaustive.codewords"] = (codewords, "count")
    out["cyclic.exhaustive.codewords_per_s"] = (
        codewords / ex_s if ex_s else 0.0, "1/s")
    out["cyclic.mitm.levels"] = (levels, "count")
    out["cyclic.mitm.keys"] = (keys, "count")
    out["cyclic.mitm.keys_per_s"] = (keys / mitm_s if mitm_s else 0.0, "1/s")
    cost_ns = span_cost_ns()
    spans = len(tracer.spans)
    overhead_s = spans * cost_ns / 1e9
    out["trace.spans"] = (spans, "count")
    out["trace.span_cost_us"] = (cost_ns / 1e3, "us")
    out["trace.overhead_share"] = (
        overhead_s / max(wall_s - overhead_s, 1e-9), "share")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.items_per_s"] = (items / wall_s, "1/s")
    return out
