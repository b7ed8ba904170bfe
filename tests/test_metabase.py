from __future__ import annotations

import os
import random
import tempfile
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

import fixtures
import oracles
from ums.errors import DuplicateEntry, SidecarSyntaxError, UmsError
from ums.metabase import (
    AUTHORS,
    ORGANIZATIONS,
    SYSTEMS,
    Catalog,
    CatalogEntry,
    Metabase,
    Resolution,
    empty_metabase,
    load_catalog,
    load_metabase,
    resolve,
)
from ums.model import SystematicName

ANDREI_ONE = SystematicName(
    kind="person", who=("Андрей", "Иванов"), when="1980-06-15", where="Москва"
)
ANDREI_TWO = SystematicName(
    kind="person", who=("Андрей", "Петров"), when="1975-02-02", where="Киев"
)
GRACE = SystematicName(
    kind="person", who=("Grace", "Hopper"), when="1906-12-09", where="New York"
)


def small_catalog() -> Catalog:
    return Catalog(
        name=AUTHORS,
        entries=(
            CatalogEntry(systematic_name=ANDREI_ONE),
            CatalogEntry(systematic_name=ANDREI_TWO),
            CatalogEntry(systematic_name=GRACE, synonyms=("Admiral Hopper",)),
        ),
    )


CATALOG_FILE = (
    b"metabase-catalog: 1\n"
    b"catalog: authors\n"
    b"entry: " + ANDREI_ONE.canonical.encode() + b"\n"
    b"entry: " + GRACE.canonical.encode() + b"\n"
    b"  synonym: Admiral Hopper\n"
)


class TestLoadCatalog:
    def test_two_entries_load(self):
        catalog = load_catalog(CATALOG_FILE)
        assert catalog.name == AUTHORS
        assert len(catalog) == 2
        assert catalog.entries[1].synonyms == ("Admiral Hopper",)

    def test_duplicate_canonical_rejected(self):
        doubled = CATALOG_FILE + b"entry: " + GRACE.canonical.encode() + b"\n"
        with pytest.raises(DuplicateEntry):
            load_catalog(doubled)

    def test_empty_catalog_is_fine(self):
        catalog = load_catalog(b"metabase-catalog: 1\ncatalog: authors\n")
        assert len(catalog) == 0

    def test_missing_header_rejected(self):
        with pytest.raises(SidecarSyntaxError):
            load_catalog(b"catalog: authors\n")

    def test_a_bad_escape_in_an_entry_names_its_line(self):
        data = b"metabase-catalog: 1\ncatalog: authors\nentry: person:a\\q||\n"
        with pytest.raises(SidecarSyntaxError) as excinfo:
            load_catalog(data)
        assert str(excinfo.value) == "line 3: bad entry: bad canonical name: bad escape \\q"

    def test_dump_round_trips(self):
        # the characters str.splitlines also breaks at stay in their value,
        # and a carriage return before a line feed is dropped
        breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        ann = SystematicName(kind="person", who=("Ann\u2028Lee", f"x{breaks}y"), where=breaks)
        entry = CatalogEntry(systematic_name=ann, synonyms=(f"Ann{breaks}Lee", breaks))
        catalog = Catalog(name=AUTHORS, entries=small_catalog().entries + (entry,))
        data = fixtures.dump_catalog(catalog)
        assert load_catalog(data) == catalog
        assert load_catalog(data.replace(b"\n", b"\r\n")) == catalog


class TestResolve:
    def test_who_part_alone_is_none(self):
        resolution = resolve(small_catalog(), "Андрей")
        assert (resolution.kind, resolution.entry) == ("none", None)

    def test_canonical_string_is_exact(self):
        resolution = resolve(small_catalog(), GRACE.canonical)
        assert resolution.kind == "exact"
        assert resolution.entry.systematic_name == GRACE

    def test_synonym_is_exact(self):
        assert resolve(small_catalog(), "Admiral Hopper").kind == "exact"

    def test_no_match_is_none(self):
        assert resolve(small_catalog(), "nobody").kind == "none"

    def test_every_miss_is_one_shared_answer(self):
        first, second = resolve(small_catalog(), "nobody"), resolve(Catalog("other", ()), "x")
        assert first is second
        assert first == Resolution("none")


#: who-parts made of the characters escaping writes as a backslash pair
#: (``\n`` for a line feed), a bare ``n``, and marks that compose with an
#: ``n`` under NFC
NFC_WHO_PART = st.text(
    alphabet=["\n", "\\", "|", ",", "n", "\u0301", "\u0303", "\u030c", "\u0327"],
    min_size=1,
    max_size=5,
)


class TestResolveUnderNfc:
    @settings(max_examples=fixtures.examples(300), deadline=None)
    @given(st.lists(st.lists(NFC_WHO_PART, min_size=1, max_size=3), min_size=1, max_size=4))
    @example([["a\n\u0301"]])  # the escaped n and the acute compose
    def test_canonical_and_its_nfc_form_resolve_exact(self, whos):
        names = []
        for who in whos:
            name = SystematicName(kind="person", who=tuple(who))
            if name not in names:
                names.append(name)
        # distinct names never clash, even on the NFC forms of their strings
        catalog = Catalog(AUTHORS, tuple(CatalogEntry(name) for name in names))
        for source in (catalog, load_catalog(fixtures.dump_catalog(catalog))):
            for entry in source.entries:
                for query in (entry.canonical, unicodedata.normalize("NFC", entry.canonical)):
                    got = resolve(source, query)
                    assert got.kind == "exact", query
                    assert got.entry is entry, query


#: who-parts and synonyms with composed letters, so NFD spellings differ
_WORDS = (
    "José", "Zoë", "Андрей", "Grace", "Hopper", "a|b", "x\\y", "Ångström", "li", "a\n\u0301",
)


def random_catalog(rng: random.Random) -> Catalog:
    """Entries whose synonyms may clash; clashing entries are left out."""
    catalog = Catalog(name=AUTHORS)
    for _ in range(rng.randint(0, 10)):
        name = SystematicName(
            kind=rng.choice(("person", "organization", "other")),
            who=tuple(rng.sample(_WORDS, rng.randint(1, 3))),
            when=rng.choice((None, "1906-12-09", "1980-06-15")),
            where=rng.choice((None, "Berlin", "Köln")),
        )
        synonyms = tuple(
            " ".join(rng.sample(_WORDS, rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2))
        )
        try:
            catalog = Catalog(AUTHORS, catalog.entries + (CatalogEntry(name, synonyms),))
        except DuplicateEntry:
            continue
    return catalog


class TestResolveMatchesScan:
    @settings(max_examples=fixtures.examples(150), deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_resolve_equals_linear_scan(self, seed):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        queries = ["nobody", "", "Zo", "José Zoë"]  # who-parts alone never hit
        for entry in catalog.entries:
            queries.append(entry.canonical)
            queries.extend(entry.synonyms)
            queries.extend(entry.systematic_name.who)
        queries += [unicodedata.normalize("NFD", q) for q in queries]
        for query in queries:
            got = resolve(catalog, query)
            kind, entry = oracles.resolve_reference(catalog, query)
            assert got.kind == kind, query
            assert got.entry is entry, query


class TestRegister:
    def test_new_organization_grows_catalog(self):
        org = SystematicName(
            kind="organization", who=("Acme",), when="1990-01-01", where="Berlin"
        )
        catalog = small_catalog()
        grown = Catalog(catalog.name, catalog.entries + (CatalogEntry(systematic_name=org),))
        assert len(grown) == len(catalog) + 1
        assert len(catalog) == 3  # the old snapshot is untouched

    def test_reregistering_identical_entry_rejected(self):
        catalog = small_catalog()
        with pytest.raises(DuplicateEntry):
            Catalog(catalog.name, catalog.entries + (CatalogEntry(systematic_name=GRACE),))

    def test_synonym_colliding_with_canonical_rejected(self):
        catalog = small_catalog()
        newcomer = CatalogEntry(
            systematic_name=SystematicName(
                kind="person", who=("Ada", "Lovelace"), when="1815-12-10", where="London"
            ),
            synonyms=(GRACE.canonical,),
        )
        with pytest.raises(DuplicateEntry):
            Catalog(catalog.name, catalog.entries + (newcomer,))

    @settings(max_examples=fixtures.examples(40), deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_register_then_resolve_is_exact(self, seed):
        rng = random.Random(seed)
        catalog = Catalog(name=AUTHORS)
        entries = []
        for i in range(rng.randint(1, 8)):
            name = SystematicName(
                kind="person",
                who=(f"w{rng.randrange(1000)}", f"f{i}"),
                when=f"19{rng.randint(10, 99)}-01-01",
                where=f"city{rng.randrange(50)}",
            )
            entry = CatalogEntry(systematic_name=name)
            catalog = Catalog(catalog.name, catalog.entries + (entry,))
            entries.append(entry)
        for entry in entries:
            assert resolve(catalog, entry.canonical).kind == "exact"

    def test_size_monotone_under_registration(self):
        catalog = Catalog(name=AUTHORS)
        sizes = [len(catalog)]
        for i in range(5):
            entry = CatalogEntry(systematic_name=SystematicName(kind="other", who=(f"t{i}",)))
            catalog = Catalog(catalog.name, catalog.entries + (entry,))
            sizes.append(len(catalog))
        assert sizes == sorted(sizes)


class TestMetabase:
    def test_builtin_systems_are_registered(self):
        metabase = empty_metabase()
        for token in ("DOI", "ISBN", "PMID", "URN", "PURL", "ISNI", "OCLC"):
            assert metabase.is_registered_system(token)
        assert not metabase.is_registered_system("FOO")

    def test_load_metabase_directory(self, tmp_path):
        (tmp_path / "authors.catalog").write_bytes(CATALOG_FILE)
        metabase = load_metabase(tmp_path)
        assert metabase.get(AUTHORS) is not None
        assert metabase.is_registered_system("DOI")

    def test_user_systems_extend_builtin(self, tmp_path):
        extra = (
            b"metabase-catalog: 1\n"
            b"catalog: systems\n"
            b"entry: other:ARXIV||\n"
            b"entry: other:DOI||\n"  # duplicate of a built-in; skipped
            b"entry: other:Ark||\n"
        )
        (tmp_path / "systems.catalog").write_bytes(extra)
        metabase = load_metabase(tmp_path)
        assert metabase.is_registered_system("ARXIV")
        assert metabase.is_registered_system("ARK")  # tokens fold case
        assert metabase.is_registered_system("DOI")

    def test_same_name_catalogs_merge_in_file_order(self, tmp_path):
        """Two files of one catalog: the second adds what the first lacks,
        in its own order, and skips the canonical strings already there,
        as appending its entries one by one would."""
        ada = SystematicName(
            kind="person", who=("Ada", "Lovelace"), when="1815-12-10", where="London"
        )
        first = Catalog(
            name=AUTHORS,
            entries=(
                CatalogEntry(systematic_name=GRACE, synonyms=("Admiral Hopper",)),
                CatalogEntry(systematic_name=ANDREI_ONE),
            ),
        )
        second = Catalog(
            name=AUTHORS,
            entries=(
                CatalogEntry(systematic_name=ANDREI_TWO, synonyms=("А. Петров",)),
                CatalogEntry(systematic_name=GRACE, synonyms=("Amazing Grace",)),
                CatalogEntry(systematic_name=ada),
                CatalogEntry(systematic_name=ANDREI_ONE),
            ),
        )
        (tmp_path / "a-authors.catalog").write_bytes(fixtures.dump_catalog(first))
        (tmp_path / "b-authors.catalog").write_bytes(fixtures.dump_catalog(second))
        expected = first
        for entry in second.entries:
            if entry.canonical not in {e.canonical for e in expected.entries}:
                expected = Catalog(expected.name, expected.entries + (entry,))
        (tmp_path / "c-organizations.catalog").write_bytes(
            b"metabase-catalog: 1\ncatalog: organizations\n"
        )
        (tmp_path / "d-authors.catalog").write_bytes(fixtures.dump_catalog(second))
        metabase = load_metabase(tmp_path)
        # each merge moves the catalog last, after the ones loaded before it
        assert [c.name for c in metabase.catalogs] == [SYSTEMS, ORGANIZATIONS, AUTHORS]
        merged = metabase.get(AUTHORS)
        assert merged == expected
        assert [e.canonical for e in merged.entries] == [
            GRACE.canonical,
            ANDREI_ONE.canonical,
            ANDREI_TWO.canonical,
            ada.canonical,
        ]
        assert merged.entries[0].synonyms == ("Admiral Hopper",)
        assert resolve(merged, "А. Петров").entry.systematic_name == ANDREI_TWO

    @pytest.mark.parametrize("synonym_first", [False, True])
    def test_merge_keeps_rejecting_a_clashing_synonym(self, tmp_path, synonym_first):
        """A synonym in either file that spells the other file's canonical
        string is a clash, not an entry already present."""
        plain = CatalogEntry(systematic_name=GRACE)
        clashing = CatalogEntry(systematic_name=ANDREI_ONE, synonyms=(GRACE.canonical,))
        if synonym_first:
            plain, clashing = clashing, plain
        first = Catalog(name=AUTHORS, entries=(plain,))
        second = Catalog(name=AUTHORS, entries=(clashing,))
        (tmp_path / "a.catalog").write_bytes(fixtures.dump_catalog(first))
        (tmp_path / "b.catalog").write_bytes(fixtures.dump_catalog(second))
        with pytest.raises(DuplicateEntry):
            load_metabase(tmp_path)

    def test_get_returns_the_first_catalog_of_a_name(self):
        one = Catalog(name=AUTHORS, entries=(CatalogEntry(systematic_name=GRACE),))
        two = Catalog(name=AUTHORS)
        metabase = Metabase(catalogs=(one, two))
        assert metabase.get(AUTHORS) is one
        assert metabase.get("nothing") is None


#: catalog files to mutate: authors with synonyms, systems, subjects
_CATALOG_FILES = [
    CATALOG_FILE,
    b"metabase-catalog: 1\ncatalog: systems\nentry: other:ARXIV||\nentry: other:DOI||\n",
    b"metabase-catalog: 1\ncatalog: subjects:lcsh\n"
    b"entry: other:Ice\\,Glaciers|2011-03-01T16:35:22Z|Nordic|7\n  synonym: Eis\n",
]
_CATALOG_INSERTS = st.one_of(
    st.binary(min_size=1, max_size=6),
    st.sampled_from(
        [b"\n", b"\r", b"\x85", b"\xe2\x80\xa8", b"entry: ", b"  synonym: ", b"|", b"\\",
         b"\\,", b"person:", b"catalog: ", b"Admiral Hopper", b"\xff"]
    ),
)


@st.composite
def _mutated_catalog(draw):
    return fixtures.mutated(draw, draw(st.sampled_from(_CATALOG_FILES)), _CATALOG_INSERTS)


class TestHostileCatalogs:
    @settings(max_examples=fixtures.examples(300), deadline=None)
    @given(_mutated_catalog())
    def test_load_catalog_raises_only_ums_errors(self, data):
        try:
            load_catalog(data)
        except UmsError:
            pass

    @settings(max_examples=fixtures.examples(100), deadline=None)
    @given(st.lists(_mutated_catalog(), min_size=1, max_size=3))
    def test_load_metabase_raises_only_ums_errors(self, files):
        with tempfile.TemporaryDirectory() as directory:
            for i, data in enumerate(files):
                with open(os.path.join(directory, f"{i}.catalog"), "wb") as handle:
                    handle.write(data)
            try:
                metabase = load_metabase(directory)
            except UmsError:
                return
        assert metabase.is_registered_system("DOI")


def _hostile_catalog(n: int) -> bytes:
    """A catalog of *n* entries, every line ended by CRLF: three who-parts
    split on ``\\,``, with escapes in them, and two non-ASCII synonyms each."""
    lines = ["metabase-catalog: 1", "catalog: authors"]
    for i in range(n):
        lines += [
            f"entry: person:Zo\u00eb\\|{i}\\,\u00c5ngstr\u00f6m\\\\{i}\\,\u4e09|1906-12-09|Wien|{i}",
            f"  synonym: \u0396\u03c9\u03ae {i}",
            f"  synonym: \u6f22\u5b57 {i}",
        ]
    return ("\r\n".join(lines) + "\r\n").encode()


def _best_catalog_time(n: int) -> float:
    seconds, catalog = fixtures.best_time(load_catalog, _hostile_catalog(n))
    last, i = catalog.entries[-1], n - 1
    assert len(catalog) == n and last.synonyms == (f"\u0396\u03c9\u03ae {i}", f"\u6f22\u5b57 {i}")
    assert last.systematic_name.who == (f"Zo\u00eb|{i}", f"\u00c5ngstr\u00f6m\\{i}", "\u4e09")
    return seconds


def test_a_hostile_catalog_loads_in_linear_time():
    # four times the entries: about four times the time if linear, sixteen
    # if quadratic; a ratio, so a slow host does not fail the test
    assert _best_catalog_time(20000) / _best_catalog_time(5000) < 8
