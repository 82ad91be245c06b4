"""Benchmark of dickson_codes: three workloads, end-to-end metrics, and an
outside-in traced run that reports each layer.

    python3 perfbench/run.py --workload tables|sweep|mitm --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.  One
process runs a closed loop: items run one after another, with workers=1
everywhere and OpenBLAS capped at the usable cores.  Each unit of work that
takes under the workload's cut-off runs at least three times, its runs
spread at random over the whole run, and the short units run again, one at
a time, until S seconds have been measured; a longer unit (a dozen
``tables`` rows) runs once.  Each item's time is its median over its unit's runs.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced pass and
prints the per-layer metrics.  Each metric is printed as "name value unit";
the last line is one JSON object with the keys correct, attempted, failed and
metrics.  A full report (environment, sample counts, failures) and, when
tracing, every span are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dickson_codes")
OUT = os.path.join(HERE, "out")

#: Cold set-ups before and again after the measured runs; setup_s is the
#: median of both sets, so one slow spell of the machine cannot set it.
SETUP_PROBES = 4


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("tables", "sweep", "mitm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- environment -------------------------------------------------------------


def pinned_environment() -> dict[str, str]:
    """Environment of the measured process.

    OpenBLAS gets no more threads than usable cores.  glibc raises its mmap
    threshold after it frees a large block, and whether that happened
    varied between runs of one seed (mitm peak RSS 137 or 158 MB); pinning
    the threshold at glibc's initial 128 KiB makes peak RSS repeat.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not threads.isdigit() or not 1 <= int(threads) <= nproc:
        threads = str(nproc)
    return {"OPENBLAS_NUM_THREADS": threads,
            "MALLOC_MMAP_THRESHOLD_": "131072"}


def blas_threads() -> int | None:
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    top, head = out.split()
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def source_lines() -> dict[str, int]:
    """Lines of src/dickson_codes/**.py: all, and net of blank and comment
    lines."""
    total = net = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                total += 1
                text = line.strip()
                if text and not text.startswith("#"):
                    net += 1
    return {"lines": total, "net_lines": net}


def environment() -> dict:
    import numpy

    return {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "openblas_threads": blas_threads(), "commit": git_commit(),
            "src": source_lines()}


# -- measurement ---------------------------------------------------------------


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def setup_times(pairs, count: int) -> list[float]:
    """``count`` cold set-ups, each in a fresh interpreter."""
    text = " ".join(f"{q},{m}" for q, m in pairs)
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, probe, SRC, text],
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        times.append(float(out.split()[-1]))
    return times


def measure(workload, units, seconds: float, tracer=None) -> dict:
    """Closed loop over ``units``; each unit once when tracing.

    A short unit, one whose first run took at most the workload's
    ``repeat_max_s``, runs ``workload.runs`` times in all: its later runs
    are put at random places further on in the schedule, so they spread
    over the whole run.  A longer unit runs once; it averages over the
    machine's speed by itself.  When the schedule is done before
    ``seconds`` have elapsed, the short units run again, one after another
    in order, until they have.  Each unit's wall and CPU time, and each
    item's time, is its median over the unit's runs, so a slow spell of
    the machine sways few of them.
    """
    import tracing
    import workloads

    rng = random.Random(len(units))
    unit_ms: list[list[float]] = [[] for _ in units]
    unit_cpu: list[list[float]] = [[] for _ in units]
    case_ms: list[list[list[float]]] = [[] for _ in units]
    failures: list[str] = []
    attempted = failed = exact = items = 0

    def short(i: int) -> bool:
        return (workload.repeat_max_s is None
                or unit_ms[i][0] <= workload.repeat_max_s * 1000.0)

    schedule = list(range(len(units)))
    again = None
    pos = 0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    while pos < len(schedule):
        i = schedule[pos]
        pos += 1
        unit = units[i]
        if tracer is not None:
            tracer.item = f"{len(unit_ms[i])}:{i}"
            span = tracer.open(tracing.ITEM_SPAN)
        c = time.process_time()
        t = time.perf_counter()
        try:
            out = workload.run(unit)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            size = max(workload.size(unit), 1)
            out = workloads.Outcome(size, size, 0)
        dt = time.perf_counter() - t
        unit_cpu[i].append(time.process_time() - c)
        if tracer is not None:
            tracer.close(span)
        if out.times_ms is not None and len(out.times_ms) == out.count:
            case_ms[i].append(out.times_ms)
        else:
            case_ms[i].append([dt * 1000.0 / out.count] * out.count)
        unit_ms[i].append(dt * 1000.0)
        attempted += out.count
        failed += out.failed
        exact += out.exact
        if out.failed:
            failures.append(workload.key(unit))
        if len(unit_ms[i]) == 1:
            items += out.count
            if tracer is None and short(i):
                for _ in range(workload.runs - 1):
                    schedule.insert(rng.randint(pos, len(schedule)), i)
        if (pos == len(schedule) and tracer is None
                and time.perf_counter() - t0 < seconds):
            if again is None:
                again = itertools.cycle(
                    [j for j in range(len(units)) if short(j)])
            j = next(again, None)
            if j is not None:
                schedule.append(j)
    wall = time.perf_counter() - t0
    samples = []
    for runs in case_ms:
        if all(len(r) == len(runs[0]) for r in runs):
            samples.extend(statistics.median(col) for col in zip(*runs))
        else:
            samples.extend(x for r in runs for x in r)
    return {"samples": samples, "items": items, "attempted": attempted,
            "failed": failed, "exact": exact,
            "runs": max(len(u) for u in unit_ms),
            "wall_s": wall, "cpu_wall_s": cpu_seconds() - cpu0,
            "pass_s": sum(statistics.median(u) for u in unit_ms) / 1000.0,
            "pass_cpu_s": sum(statistics.median(u) for u in unit_cpu),
            "failures": failures,
            "unit_ms": [(workload.key(u), ms) for u, ms in zip(units, unit_ms)]}


def end_to_end(res: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    deciles = statistics.quantiles(res["samples"], n=10)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": (res["items"] / res["pass_s"], "1/s"),
        "item_p50_ms": (deciles[4], "ms"),
        "item_p90_ms": (deciles[8], "ms"),
        "cpu_s": (res["pass_cpu_s"], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "exact_share": (res["exact"] / res["attempted"], "share"),
        "setup_s": (statistics.median(setup), "s"),
    }


# -- entry point ----------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    import setup_probe
    import tracing
    import workloads
    from dickson_codes.registry import default_registry

    reg = default_registry()
    workload = workloads.make(args.workload, reg)
    pairs = workload.field_pairs()
    tracer = tracing.Tracer() if args.trace else None

    def traced():
        return tracer.installed() if tracer else contextlib.nullcontext()

    with traced():
        setup_probe.build_fields(reg, pairs)
    units = workload.units(args.seed)
    setup = [] if tracer else setup_times(pairs, SETUP_PROBES)
    with traced():
        res = measure(workload, units, args.seconds, tracer)
    if not tracer:
        setup += setup_times(pairs, SETUP_PROBES)

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        for entry in sorted(set(tracer.missing)):
            print(f"# not traced, missing: {entry}", file=sys.stderr)
        metrics = tracing.layer_metrics(tracer, res["wall_s"],
                                        res["attempted"])
        tracer.write(os.path.join(OUT, f"spans-{stem}.jsonl"))
    else:
        metrics = end_to_end(res, setup)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "runs": res["runs"], "units": len(units),
        "samples": len(res["samples"]), "wall_s": res["wall_s"],
        "cpu_wall_s": res["cpu_wall_s"], "setup_s": setup,
        "attempted": res["attempted"], "failed": res["failed"],
        "error_share": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "unit_ms": res["unit_ms"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: {PACKAGE} not found; run from the root of a "
              "dickson-codes checkout", file=sys.stderr)
        return 2
    env = pinned_environment()
    if any(os.environ.get(k) != v for k, v in env.items()):
        # the settings take effect at process start: start over under them
        os.environ.update(env)
        os.execv(sys.executable,
                 [sys.executable, os.path.abspath(__file__), *argv])
    sys.path.insert(0, SRC)
    import dickson_codes

    if not os.path.abspath(dickson_codes.__file__).startswith(PACKAGE):
        print(f"error: imported {dickson_codes.__file__}, not the checkout's "
              "package", file=sys.stderr)
        return 2

    report = run(args)
    print(f"# workload {report['workload']} seed {report['seed']}: "
          f"up to {report['runs']} run(s) per unit, {report['attempted']} items "
          f"({report['samples']} timing samples) in {report['wall_s']:.2f} s")
    print("# environment " + json.dumps(report["environment"]))
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_share {report['error_share']:.6g} share "
          f"({report['failed']} of {report['attempted']} items failed)")
    for key in report["failures"][:20]:
        print(f"# failed: {key}")
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
