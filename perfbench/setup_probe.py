"""One cold set-up of dickson_codes, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR 'q,m q,m ...'

Set-up is importing the package, loading the registry and building every
listed field with its subfield and vector tables.  Prints the elapsed
seconds.  run.py starts this several times and reports the median as
``setup_s``.
"""

from __future__ import annotations

import sys
import time


def parse_pairs(text: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in pair.split(",")) for pair in text.split()]


def build_fields(reg, pairs) -> None:
    for q, m in pairs:
        F = reg.field(q, m)
        F.subfield_tables()
        F.vec_tables()


def main(argv: list[str]) -> int:
    src, pairs = argv[0], parse_pairs(argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from dickson_codes.registry import default_registry

    build_fields(default_registry(), pairs)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
