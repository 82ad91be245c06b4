"""Self-test of the benchmark: a short pass over a few items of each workload.

    python3 perfbench/selftest.py

Run from the root of the repository.  Checks that every metric named in
BENCHMARK.json is reported with its unit, that a corrupted golden entry or
oracle makes items fail, that the mitm draw is a pure function of the seed
with the same spread of computed key counts for every seed, and that the
benchmark exits nonzero without printing a result when the package is
missing.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench

FEW = 4


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"SELFTEST FAIL: {what}")
        sys.exit(1)
    print(f"ok - {what}")


def few_units(workloads, name: str, reg):
    """A few cheap units of each workload, in a fixed order."""
    wl = workloads.make(name, reg)
    units = wl.units(1)
    if name == "tables":
        units = [u for u in units if u[0].n <= 15 and u[0].q ** u[0].k <= 1 << 12]
    elif name == "sweep":
        units = [u for u in units if u[0].n <= 15]
    else:
        units = [u for u in units if u.code.q ** u.code.k <= 1 << 10]
    return wl, units[:FEW]


def main() -> int:
    os.environ.update(bench.pinned_environment())
    sys.path.insert(0, bench.SRC)
    import setup_probe
    import tracing
    import workloads
    from dickson_codes.registry import default_registry

    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
          "every workload in BENCHMARK.json exists")

    reg = default_registry()
    for name in workloads.WORKLOADS:
        wl, units = few_units(workloads, name, reg)
        check(len(units) == FEW, f"{name}: {FEW} short items")
        setup_probe.build_fields(reg, wl.field_pairs())
        res = bench.measure(wl, units, 0.0)
        check(res["failed"] == 0 and res["attempted"] >= FEW,
              f"{name}: short pass is correct")
        got = {k: u for k, (_, u) in
               bench.end_to_end(res, bench.setup_times(wl.field_pairs(), 1)).items()}
        check(got == want_e2e, f"{name}: end-to-end metrics and units")

        tracer = tracing.Tracer()
        with tracer.installed():
            traced = bench.measure(wl, units, 0.0, tracer)
        layers = tracing.layer_metrics(tracer, traced["wall_s"],
                                       traced["attempted"])
        check({k: u for k, (_, u) in layers.items()} == want_layer,
              f"{name}: per-layer metrics and units")
        check(traced["failed"] == 0 and layers["trace.spans"][0] > 0,
              f"{name}: traced pass is correct and records spans")

    # a corrupted golden entry or oracle must fail the item
    wl, units = few_units(workloads, "tables", reg)
    key = wl.key(units[0])
    wl.golden = dict(wl.golden, **{key: [*wl.golden[key][:2],
                                         wl.golden[key][2] + 1,
                                         *wl.golden[key][3:]]})
    res = bench.measure(wl, units, 0.0)
    check(res["failed"] > 0, "tables: corrupted golden d raises error_share")
    wl, units = few_units(workloads, "sweep", reg)
    key = wl.key(units[0])
    wl.golden = dict(wl.golden, **{key: wl.golden[key] + 1})
    res = bench.measure(wl, units, 0.0)
    check(res["failed"] > 0, "sweep: corrupted golden count raises error_share")
    wl, units = few_units(workloads, "mitm", reg)
    units[0].oracle_d += 1
    res = bench.measure(wl, units, 0.0)
    check(res["failed"] > 0, "mitm: corrupted oracle raises error_share")

    # the mitm draw: a pure function of the seed, same spread of keys
    mitm = workloads.make("mitm", reg)
    a, b = mitm.draw(1), mitm.draw(2)
    check(a == mitm.draw(1), "mitm: same seed, same draw")
    ids = [{(c["q"], c["n"], tuple(c["roots"])) for c in d} for d in (a, b)]
    check(ids[0] != ids[1], "mitm: two seeds draw different codes")
    check(sorted(c["keys"] for c in a) == sorted(c["keys"] for c in b),
          "mitm: two seeds draw the same computed key counts")

    # without the package the benchmark fails before printing a result
    bare = os.path.join(bench.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(bench.HERE):
        if entry.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(bench.HERE, entry),
                        os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/dickson_codes the run exits nonzero, no result")
    print("SELFTEST PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
