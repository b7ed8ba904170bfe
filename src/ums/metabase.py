"""Catalogs of admissible values and the queries against them.

A metabase is the set of named catalogs (authors, organizations,
systems, subjects:<source>) that record fields are validated against.
Catalogs are immutable snapshots: registration returns a new catalog,
so concurrent readers never need coordination.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .errors import DuplicateEntry, SidecarSyntaxError
from .identifiers import BUILTIN_SYSTEMS
from .model import SystematicName, nfc, parse_systematic_name

CATALOG_HEADER = "metabase-catalog: 1"

AUTHORS = "authors"
ORGANIZATIONS = "organizations"
SYSTEMS = "systems"
SUBJECTS_PREFIX = "subjects:"


@dataclass(frozen=True)
class CatalogEntry:
    """One admissible designation plus the synonyms that resolve to it."""

    systematic_name: SystematicName
    synonyms: tuple[str, ...] = ()
    #: the systematic name's canonical string, escaped once at construction
    canonical: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "synonyms", tuple(nfc(s) for s in self.synonyms))
        object.__setattr__(self, "canonical", self.systematic_name.canonical)


@dataclass(frozen=True)
class Catalog:
    """A named, grow-only set of catalog entries."""

    name: str
    entries: tuple[CatalogEntry, ...] = ()
    #: canonical string or synonym -> its entry; the two sets are disjoint
    exact: dict[str, CatalogEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exact: dict[str, CatalogEntry] = {}
        for entry in self.entries:
            if entry.canonical in exact:
                raise DuplicateEntry(f"duplicate canonical string: {entry.canonical}")
            exact[entry.canonical] = entry
        for entry in self.entries:
            for syn in entry.synonyms:
                owner = exact.get(syn)
                if owner is not None:
                    if owner.canonical == syn:
                        raise DuplicateEntry(
                            f"synonym collides with a canonical string: {syn!r}"
                        )
                    raise DuplicateEntry(f"synonym used twice: {syn!r}")
                exact[syn] = entry
        object.__setattr__(self, "exact", exact)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Resolution:
    """Outcome of a resolve query: exact hit, candidates, or nothing."""

    kind: str  # "exact" | "candidates" | "none"
    entry: Optional[CatalogEntry] = None
    candidates: tuple[CatalogEntry, ...] = ()


def register(catalog: Catalog, entry: CatalogEntry) -> Catalog:
    """Return a catalog extended by *entry*; catalogs only grow."""
    return replace(catalog, entries=catalog.entries + (entry,))


def resolve(catalog: Catalog, query: str) -> Resolution:
    """Exact match on canonical string or synonym wins; otherwise every
    entry whose who-part contains the query becomes a candidate, ordered
    by canonical string."""
    query = nfc(query)
    entry = catalog.exact.get(query)
    if entry is not None:
        return Resolution(kind="exact", entry=entry)
    candidates = [
        entry for entry in catalog.entries if query in entry.systematic_name.who
    ]
    if candidates:
        candidates.sort(key=lambda e: e.canonical)
        return Resolution(kind="candidates", candidates=tuple(candidates))
    return Resolution(kind="none")


def load_catalog(data: bytes) -> Catalog:
    """Parse the catalog file format into a catalog."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarSyntaxError(0, f"catalog not UTF-8: {exc}") from None

    lines = text.splitlines()
    if not lines or lines[0] != CATALOG_HEADER:
        raise SidecarSyntaxError(1, f"expected header {CATALOG_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("catalog: "):
        raise SidecarSyntaxError(2, "expected 'catalog: <name>'")
    name = lines[1][len("catalog: ") :]
    if not name:
        raise SidecarSyntaxError(2, "empty catalog name")

    entries: list[CatalogEntry] = []
    current: Optional[tuple[SystematicName, list[str]]] = None
    for line_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        if line.startswith("entry: "):
            if current is not None:
                entries.append(
                    CatalogEntry(systematic_name=current[0], synonyms=tuple(current[1]))
                )
            canonical = line[len("entry: ") :]
            try:
                current = (parse_systematic_name(canonical), [])
            except Exception as exc:
                raise SidecarSyntaxError(line_no, f"bad entry: {exc}") from None
        elif line.startswith("  synonym: "):
            if current is None:
                raise SidecarSyntaxError(line_no, "synonym before any entry")
            current[1].append(line[len("  synonym: ") :])
        else:
            raise SidecarSyntaxError(line_no, f"unexpected line: {line!r}")
    if current is not None:
        entries.append(
            CatalogEntry(systematic_name=current[0], synonyms=tuple(current[1]))
        )
    return Catalog(name=name, entries=tuple(entries))


def dump_catalog(catalog: Catalog) -> bytes:
    """Serialize a catalog in the catalog file format."""
    lines = [CATALOG_HEADER, f"catalog: {catalog.name}"]
    for entry in catalog.entries:
        lines.append(f"entry: {entry.canonical}")
        lines += [f"  synonym: {syn}" for syn in entry.synonyms]
    return ("\n".join(lines) + "\n").encode("utf-8")


def builtin_systems_catalog() -> Catalog:
    """The classification systems registered out of the box."""
    entries = tuple(
        CatalogEntry(
            systematic_name=SystematicName(kind="other", who=(token,)),
            synonyms=(token.lower(),),
        )
        for token in BUILTIN_SYSTEMS
    )
    return Catalog(name=SYSTEMS, entries=entries)


@dataclass(frozen=True)
class Metabase:
    """All catalogs known to one validation run, keyed by catalog name."""

    catalogs: tuple[Catalog, ...] = ()
    #: catalog name -> the first catalog of that name
    by_name: dict[str, Catalog] = field(init=False, repr=False, compare=False)
    #: upper-cased tokens of the systems catalog
    system_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name: dict[str, Catalog] = {}
        for catalog in self.catalogs:
            by_name.setdefault(catalog.name, catalog)
        object.__setattr__(self, "by_name", by_name)
        object.__setattr__(
            self, "system_set", frozenset(t.upper() for t in self.system_tokens())
        )

    def get(self, name: str) -> Optional[Catalog]:
        return self.by_name.get(name)

    def with_catalog(self, catalog: Catalog) -> "Metabase":
        kept = tuple(c for c in self.catalogs if c.name != catalog.name)
        return Metabase(catalogs=kept + (catalog,))

    def system_tokens(self) -> tuple[str, ...]:
        systems = self.get(SYSTEMS)
        if systems is None:
            return ()
        return tuple(entry.systematic_name.who[0] for entry in systems.entries)

    def is_registered_system(self, token: str) -> bool:
        return token.upper() in self.system_set


def empty_metabase() -> Metabase:
    """A metabase holding only the built-in systems catalog."""
    return Metabase(catalogs=(builtin_systems_catalog(),))


def load_metabase(directory: Union[str, os.PathLike]) -> Metabase:
    """Load every ``*.catalog`` file under *directory* (sorted by name).

    User catalogs extend the built-in systems catalog; entries whose
    canonical string is already present are skipped rather than
    rejected, so shipping DOI again is harmless.
    """
    base = empty_metabase()
    paths = sorted(
        p for p in os.listdir(directory) if p.endswith(".catalog")
    )
    for relative in paths:
        with open(os.path.join(directory, relative), "rb") as handle:
            loaded = load_catalog(handle.read())
        existing = base.get(loaded.name)
        if existing is None:
            base = base.with_catalog(loaded)
            continue
        present = {entry.canonical for entry in existing.entries}
        fresh = tuple(e for e in loaded.entries if e.canonical not in present)
        base = base.with_catalog(
            Catalog(name=existing.name, entries=existing.entries + fresh)
        )
    return base
