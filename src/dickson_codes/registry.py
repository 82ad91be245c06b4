"""Registry of primitive polynomials keyed by (q, m), with field caching.

The registry file is plain text, one record per line::

    p t m c0 c1 ... c_{t*m}   [override]

with `#` comments.  A record flagged ``override`` replaces an earlier (or
printed-source) record for the same (q, m); the flag is preserved so that
reports can show which entries are errata corrections.  The packaged
default can be replaced via the ``DICKSON_REGISTRY`` environment variable
or an explicit path.
"""

from __future__ import annotations

import os
import dataclasses
from importlib import resources

from .galois import Field, FieldError, FieldSpec

ENV_VAR = "DICKSON_REGISTRY"


class RegistryError(ValueError):
    """A registry file that cannot be read or holds a malformed record."""


class UnknownEntryError(KeyError):
    """A registry field or table id that the data files do not hold."""

    def __str__(self):
        return str(self.args[0]) if self.args else ""


@dataclasses.dataclass(frozen=True)
class RegistryEntry:
    q: int
    m: int
    spec: FieldSpec
    override: bool
    lineno: int = dataclasses.field(compare=False)  # its line in the source


class Registry:
    """Parsed registry plus a cache of constructed fields."""

    def __init__(self, entries: dict[tuple[int, int], RegistryEntry], source: str):
        self.entries = entries
        self.source = source
        self._fields: dict[tuple[int, int], Field] = {}

    def field(self, q: int, m: int) -> Field:
        """The field of record (q, m), built on first use.  A polynomial
        that is reducible or not primitive shows only then, and is
        rejected with the record's location."""
        key = (q, m)
        if key not in self._fields:
            if key not in self.entries:
                raise UnknownEntryError(f"no registry entry for (q={q}, m={m})")
            entry = self.entries[key]
            try:
                self._fields[key] = Field(entry.spec)
            except FieldError as exc:
                raise RegistryError(
                    f"{self.source}:{entry.lineno}: {exc}") from None
        return self._fields[key]

    def has(self, q: int, m: int) -> bool:
        return (q, m) in self.entries

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def overrides(self) -> list[RegistryEntry]:
        return [e for e in self.entries.values() if e.override]


def parse_registry(text: str, source: str = "<string>") -> Registry:
    entries: dict[tuple[int, int], RegistryEntry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        override = False
        if parts[-1] == "override":
            override = True
            parts = parts[:-1]
        try:
            p, t, m = (int(x) for x in parts[:3])
            coeffs = tuple(int(x) for x in parts[3:])
        except ValueError:
            raise RegistryError(
                f"{source}:{lineno}: malformed registry record: {raw!r}") from None
        try:
            spec = FieldSpec(p=p, t=t, m=m, prim_poly=coeffs)
        except FieldError as exc:
            raise RegistryError(f"{source}:{lineno}: {exc}") from None
        key = (spec.q, m)
        if key in entries and not override:
            raise RegistryError(
                f"{source}:{lineno}: duplicate registry record for (q={key[0]}, m={m}) "
                "without override flag")
        entries[key] = RegistryEntry(q=spec.q, m=m, spec=spec,
                                     override=override, lineno=lineno)
    return Registry(entries, source)


def load_registry(path: str | None = None) -> Registry:
    """Load a registry file; defaults to $DICKSON_REGISTRY or the packaged one."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise RegistryError(f"cannot read registry {path}: {exc}") from None
        return parse_registry(text, source=path)
    text = (resources.files("dickson_codes.data") / "registry.txt").read_text("utf-8")
    return parse_registry(text, source="<packaged>")


_default: Registry | None = None


def default_registry() -> Registry:
    """Shared instance of the default registry (fields cached).

    When ``DICKSON_REGISTRY`` is not empty the file is loaded fresh each
    call, so environment changes take effect immediately.
    """
    global _default
    if os.environ.get(ENV_VAR):
        return load_registry(None)
    if _default is None:
        _default = load_registry(None)
    return _default
