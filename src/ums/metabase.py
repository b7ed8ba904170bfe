"""Catalogs of admissible values and the queries against them.

A metabase is the set of named catalogs (authors, organizations,
systems, subjects:<source>) that record fields are validated against.
Catalogs are immutable snapshots: a grown catalog is a new catalog,
so concurrent readers never need coordination.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .errors import DuplicateEntry, SidecarSyntaxError
from .identifiers import BUILTIN_SYSTEMS
from .model import SystematicName, Value, nfc, parse_systematic_name, set_slot

CATALOG_HEADER = "metabase-catalog: 1"

AUTHORS = "authors"
ORGANIZATIONS = "organizations"
SYSTEMS = "systems"
SUBJECTS_PREFIX = "subjects:"


class CatalogEntry(Value):
    """One admissible designation plus the synonyms that resolve to it."""

    _fields = ("systematic_name", "synonyms")
    #: ``canonical``: the systematic name's canonical string, escaped once
    __slots__ = _fields + ("canonical",)

    def __init__(self, systematic_name: SystematicName, synonyms: tuple[str, ...] = ()):
        set_slot(self, "systematic_name", systematic_name)
        set_slot(self, "synonyms", tuple(nfc(s) for s in synonyms))
        set_slot(self, "canonical", systematic_name.canonical)


class Catalog(Value):
    """A named, grow-only set of catalog entries."""

    _fields = ("name", "entries")
    #: ``exact``: NFC form of a canonical string, or synonym -> its entry;
    #: the two sets are disjoint.  Queries are NFC, and an escaped line
    #: feed before a combining mark makes a canonical string that is not;
    #: its NFC form is still unique, as escaping never puts a lone
    #: backslash before a composed letter.
    __slots__ = _fields + ("exact",)

    def __init__(self, name: str, entries: tuple[CatalogEntry, ...] = ()):
        set_slot(self, "name", name)
        set_slot(self, "entries", entries)
        exact: dict[str, CatalogEntry] = {}
        for entry in entries:
            key = nfc(entry.canonical)
            if key in exact:
                raise DuplicateEntry(f"duplicate canonical string: {entry.canonical}")
            exact[key] = entry
        for entry in entries:
            for syn in entry.synonyms:
                owner = exact.get(syn)
                if owner is not None:
                    if nfc(owner.canonical) == syn:
                        raise DuplicateEntry(
                            f"synonym collides with a canonical string: {syn!r}"
                        )
                    raise DuplicateEntry(f"synonym used twice: {syn!r}")
                exact[syn] = entry
        set_slot(self, "exact", exact)

    def __len__(self) -> int:
        return len(self.entries)


class Resolution(Value):
    """Outcome of a resolve query: an exact hit, or nothing."""

    __slots__ = _fields = ("kind", "entry")

    def __init__(self, kind: str, entry: Optional[CatalogEntry] = None):
        set_slot(self, "kind", kind)  # "exact" | "none"
        set_slot(self, "entry", entry)


def resolve(catalog: Catalog, query: str) -> Resolution:
    """The entry whose canonical string or synonym is *query*, after NFC."""
    entry = catalog.exact.get(nfc(query))
    return Resolution("none") if entry is None else Resolution("exact", entry)


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


class Metabase(Value):
    """All catalogs known to one validation run, keyed by catalog name."""

    _fields = ("catalogs",)
    #: ``by_name``: catalog name -> the first catalog of that name;
    #: ``system_set``: upper-cased tokens of the systems catalog
    __slots__ = _fields + ("by_name", "system_set")

    def __init__(self, catalogs: tuple[Catalog, ...] = ()):
        set_slot(self, "catalogs", catalogs)
        by_name: dict[str, Catalog] = {}
        for catalog in catalogs:
            by_name.setdefault(catalog.name, catalog)
        set_slot(self, "by_name", by_name)
        systems = by_name.get(SYSTEMS)
        entries = systems.entries if systems is not None else ()
        set_slot(self, "system_set", frozenset(e.systematic_name.who[0].upper() for e in entries))

    def get(self, name: str) -> Optional[Catalog]:
        return self.by_name.get(name)

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
    catalogs = {SYSTEMS: builtin_systems_catalog()}
    paths = sorted(
        p for p in os.listdir(directory) if p.endswith(".catalog")
    )
    for relative in paths:
        with open(os.path.join(directory, relative), "rb") as handle:
            loaded = load_catalog(handle.read())
        # a merged catalog moves last, as a freshly loaded one does
        existing = catalogs.pop(loaded.name, None)
        if existing is not None:
            present = {entry.canonical for entry in existing.entries}
            fresh = tuple(e for e in loaded.entries if e.canonical not in present)
            loaded = Catalog(name=existing.name, entries=existing.entries + fresh)
        catalogs[loaded.name] = loaded
    return Metabase(catalogs=tuple(catalogs.values()))
