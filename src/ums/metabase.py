"""Catalogs of admissible values and the queries against them.

A metabase is the set of named catalogs (authors, organizations,
systems, subjects:<source>) that record fields are validated against.
Catalogs are immutable snapshots: a grown catalog is a new catalog,
so concurrent readers never need coordination.
"""

from __future__ import annotations

import os

from .errors import DuplicateEntry, SidecarSyntaxError, UmsError
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
    _defaults = ((),)
    #: ``canonical``: the systematic name's canonical string, escaped once
    __slots__ = _fields + ("canonical",)

    def __post_init__(self, values: tuple) -> None:
        systematic_name, synonyms = values
        super().__post_init__((systematic_name, tuple(nfc(s) for s in synonyms)))
        set_slot(self, "canonical", systematic_name.canonical)


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
    """Parse the catalog file format into a catalog."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarSyntaxError(0, f"catalog not UTF-8: {exc}") from None

    # only a line feed ends a line; one carriage return before it is dropped
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[0] != CATALOG_HEADER:
        raise SidecarSyntaxError(1, f"expected header {CATALOG_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("catalog: "):
        raise SidecarSyntaxError(2, "expected 'catalog: <name>'")
    name = lines[1][len("catalog: ") :]
    if not name:
        raise SidecarSyntaxError(2, "empty catalog name")

    # each entry's systematic name followed by its synonyms, in file order,
    # in one flat list: a list per entry, freed between the names that are
    # kept, fragments the heap and slowed later queries by about 4%
    items: list = []
    for line_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        if line.startswith("entry: "):
            try:
                items.append(parse_systematic_name(line[len("entry: ") :]))
            except UmsError as exc:
                raise SidecarSyntaxError(line_no, f"bad entry: {exc}") from None
        elif line.startswith("  synonym: "):
            if not items:
                raise SidecarSyntaxError(line_no, "synonym before any entry")
            items.append(line[len("  synonym: ") :])
        else:
            raise SidecarSyntaxError(line_no, f"unexpected line: {line!r}")
    starts = [i for i, item in enumerate(items) if isinstance(item, SystematicName)]
    ends = starts[1:] + [len(items)]
    entries = tuple(CatalogEntry(items[s], items[s + 1 : e]) for s, e in zip(starts, ends))
    del items, starts, ends  # freed before the catalog builds its lookup table
    return Catalog(name, entries)


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
