"""Catalogs of admissible values and the queries against them.

A metabase is the set of named catalogs (authors, organizations,
systems, subjects:<source>) that record fields are validated against.
Catalogs are immutable snapshots: a grown catalog is a new catalog,
so concurrent readers never need coordination.
"""

from __future__ import annotations

import os

from .errors import DuplicateEntry, InvariantViolation, SidecarSyntaxError, UmsError
from .identifiers import BUILTIN_SYSTEMS
from .model import SystematicName, Value, checked, nfc, parse_systematic_name, set_slot

CATALOG_HEADER = "metabase-catalog: 1"

AUTHORS = "authors"
ORGANIZATIONS = "organizations"
SYSTEMS = "systems"
SUBJECTS_PREFIX = "subjects:"


class CatalogEntry(Value):
    """One admissible designation plus the synonyms that resolve to it."""

    _fields = ("systematic_name", "synonyms")
    _defaults = ((),)
    #: ``canonical``: the systematic name, stored as its canonical string and
    #: parsed again by each read of ``systematic_name``
    __slots__ = ("canonical", "synonyms")

    def __post_init__(self, values: tuple) -> None:
        systematic_name, synonyms = values
        set_slot(self, "canonical", systematic_name.canonical)
        set_slot(self, "synonyms", checked("synonyms", synonyms, what="synonym"))

    @property
    def systematic_name(self) -> SystematicName:
        return parse_systematic_name(self.canonical)


class Catalog(Value):
    """A named, grow-only set of catalog entries."""

    _fields = ("name", "entries")
    _defaults = ((),)
    #: ``exact``: NFC form of a canonical string, or synonym -> its entry;
    #: the two sets are disjoint.  Queries are NFC, and an escaped line
    #: feed before a combining mark makes a canonical string that is not;
    #: its NFC form is still unique, as escaping never puts a lone
    #: backslash before a composed letter.
    __slots__ = _fields + ("exact",)

    def __post_init__(self, values: tuple) -> None:
        super().__post_init__(values)
        exact: dict[str, CatalogEntry] = {}
        for entry in self.entries:
            key = nfc(entry.canonical)
            if key in exact:
                raise DuplicateEntry(f"duplicate canonical string: {entry.canonical}")
            exact[key] = entry
        for entry in self.entries:
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

    #: ``kind``: "exact" or "none"
    __slots__ = _fields = ("kind", "entry")
    _defaults = (None,)


#: the one outcome of every query that finds nothing
_MISS = Resolution("none")


def resolve(catalog: Catalog, query: str) -> Resolution:
    """The entry whose canonical string or synonym is *query*, after NFC."""
    entry = catalog.exact.get(nfc(query))
    return _MISS if entry is None else Resolution("exact", entry)


def load_catalog(data: bytes) -> Catalog:
    """Parse the catalog file format; each entry is built as its synonyms end."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise SidecarSyntaxError(0, f"catalog not UTF-8: {exc}") from None

    # only a line feed ends a line; one carriage return before it is dropped
    lines[:-1] = [line[:-1] if line[-1:] == "\r" else line for line in lines[:-1]]
    if lines[0] != CATALOG_HEADER:
        raise SidecarSyntaxError(1, f"expected header {CATALOG_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("catalog: "):
        raise SidecarSyntaxError(2, "expected 'catalog: <name>'")
    name = lines[1][len("catalog: ") :]
    if not name:
        raise SidecarSyntaxError(2, "empty catalog name")

    # the entries, and of the entry being read its name, line and synonyms
    entries, systematic_name, at, synonyms = [], None, 0, []

    def add_entry() -> None:
        try:
            entries.append(CatalogEntry(systematic_name, synonyms))
        except InvariantViolation as exc:  # a blank synonym: name its line
            found = [i for i in range(at, len(lines)) if lines[i].startswith("  synonym: ")]
            raise SidecarSyntaxError(found[exc.index] + 1, f"bad synonym: {exc}") from None
        synonyms.clear()

    for line_no, line in enumerate(lines[2:], start=3):
        if line.startswith("  synonym: "):
            if systematic_name is None:
                raise SidecarSyntaxError(line_no, "synonym before any entry")
            synonyms.append(line[len("  synonym: ") :])
        elif line.strip():
            if systematic_name is not None:
                add_entry()
            if not line.startswith("entry: "):
                raise SidecarSyntaxError(line_no, f"unexpected line: {line!r}")
            try:
                systematic_name, at = parse_systematic_name(line[len("entry: ") :]), line_no
            except UmsError as exc:
                raise SidecarSyntaxError(line_no, f"bad entry: {exc}") from None
    if systematic_name is not None:
        add_entry()
    del lines  # freed before the catalog builds its lookup table
    return Catalog(name, tuple(entries))


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
    _defaults = ((),)
    #: ``by_name``: catalog name -> the first catalog of that name;
    #: ``system_set``: upper-cased tokens of the systems catalog
    __slots__ = _fields + ("by_name", "system_set")

    def __post_init__(self, values: tuple) -> None:
        super().__post_init__(values)
        by_name: dict[str, Catalog] = {}
        for catalog in self.catalogs:
            by_name.setdefault(catalog.name, catalog)
        set_slot(self, "by_name", by_name)
        systems = by_name.get(SYSTEMS)
        entries = systems.entries if systems is not None else ()
        set_slot(self, "system_set", frozenset(e.systematic_name.who[0].upper() for e in entries))

    def get(self, name: str) -> Catalog | None:
        return self.by_name.get(name)

    def is_registered_system(self, token: str) -> bool:
        return token.upper() in self.system_set


def empty_metabase() -> Metabase:
    """A metabase holding only the built-in systems catalog."""
    return Metabase(catalogs=(builtin_systems_catalog(),))


def load_metabase(directory: str | os.PathLike) -> Metabase:
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
        path = os.path.join(directory, relative)
        try:
            with open(path, "rb") as handle:
                loaded = load_catalog(handle.read())
            # a merged catalog moves last, as a freshly loaded one does
            existing = catalogs.pop(loaded.name, None)
            if existing is not None:
                present = {entry.canonical for entry in existing.entries}
                fresh = tuple(e for e in loaded.entries if e.canonical not in present)
                loaded = Catalog(name=existing.name, entries=existing.entries + fresh)
        except UmsError as exc:
            exc.args = (f"{path}: {exc}",)  # same type and line, now naming the file
            raise
        catalogs[loaded.name] = loaded
    return Metabase(catalogs=tuple(catalogs.values()))
