"""The value objects of every module: construction, repr, equality,
hash, immutability, copying and ``replace``.

The expected reprs, and which values hash, are those the toolkit gave
when these classes were dataclasses; messages quote the reprs.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from ums import association, identifiers, lint, metabase, model, provenance, validation
from ums.errors import DuplicateEntry, InvalidTimestamp, InvariantViolation, MappingError
from ums.extractors import RawMetadata, mapping

G = model.GENESIS_PREV
NFD_ZOE = "Zoe\u0308"  # normalizes to "Zo\u00eb"


def _name(who=("Grace", "Hopper")):
    return model.SystematicName("person", who, "1906-12-09", "New York")


def _entry(who=("Grace", "Hopper")):
    return metabase.CatalogEntry(_name(who), ("Amazing " + who[0],))


def _event(seq=0, kind="create", payload="", prev=G):
    return model.ProvenanceEvent(seq, "2011-03-01T16:35:22Z", kind, payload, prev)


_RECORD_TAIL = (
    "date=None, doc_type=None, summary=None, languages=(), locations=(), creators=(),"
    " identifiers=(), access=0, subjects=(), tags=('x',), history=())"
)
_GRACE = (
    "SystematicName(kind='person', who=('Grace', 'Hopper'), when='1906-12-09',"
    " where='New York', qualifier=None)"
)
_ADA = _GRACE.replace("Grace", "Ada")
_RULE = "MappingRule(carrier='pdf', key='Title', target='name')"

#: a value, the same value built again, its repr, a value of the class
#: built from its required fields only and that one's repr, the changes
#: ``replace`` gets, and what it must do: raise that error, or give a
#: value the predicate holds for
CASES = {
    "IdentifierBinding": (
        lambda: model.IdentifierBinding("isbn", NFD_ZOE),
        "IdentifierBinding(system='ISBN', id='Zoë')",
        lambda: model.IdentifierBinding("DOI", "10.1000/1"),
        "IdentifierBinding(system='DOI', id='10.1000/1')",
        {"system": "is bn"},
        InvariantViolation,
    ),
    "Subject": (
        lambda: model.Subject(NFD_ZOE, "lcsh"),
        "Subject(text='Zoë', source='lcsh')",
        lambda: model.Subject("metadata"),
        "Subject(text='metadata', source=None)",
        {"source": ""},
        InvariantViolation,
    ),
    "ProvenanceEvent": (
        lambda: _event(1, "rename", NFD_ZOE, "0123456789abcdef"),
        "ProvenanceEvent(seq=1, timestamp='2011-03-01T16:35:22Z', kind='rename',"
        " payload='Zoë', prev='0123456789abcdef')",
        lambda: _event(),
        "ProvenanceEvent(seq=0, timestamp='2011-03-01T16:35:22Z', kind='create',"
        " payload='', prev='0000000000000000')",
        {"timestamp": "2011-02-30"},
        InvalidTimestamp,
    ),
    "SystematicName": (
        lambda: model.SystematicName("person", ["Grace", "Hopper"], "1906-12-09", "New York"),
        _GRACE,
        lambda: model.SystematicName("other", ("DOI",)),
        "SystematicName(kind='other', who=('DOI',), when=None, where=None, qualifier=None)",
        {"qualifier": "x1"},
        InvariantViolation,
    ),
    "UmsRecord": (
        lambda: model.UmsRecord(
            NFD_ZOE,
            formats=["PDF"],
            date="2011-03-01",
            identifiers=[model.IdentifierBinding("PMID", "1")],
            subjects=[model.Subject("metadata")],
            history=[_event()],
        ),
        "UmsRecord(name='Zoë', synonyms=(), formats=('pdf',), date='2011-03-01',"
        " doc_type=None, summary=None, languages=(), locations=(), creators=(),"
        " identifiers=(IdentifierBinding(system='PMID', id='1'),), access=0,"
        " subjects=(Subject(text='metadata', source=None),), tags=(),"
        " history=(ProvenanceEvent(seq=0, timestamp='2011-03-01T16:35:22Z',"
        " kind='create', payload='', prev='0000000000000000'),))",
        lambda: model.UmsRecord(),
        "UmsRecord(name='', synonyms=(), formats=(), date=None, doc_type=None,"
        " summary=None, languages=(), locations=(), creators=(), identifiers=(),"
        " access=0, subjects=(), tags=(), history=())",
        {"tags": ("a", "a")},
        InvariantViolation,
    ),
    "VerifyResult": (
        lambda: provenance.VerifyResult(False, 3, 2, "prev digest mismatch"),
        "VerifyResult(ok=False, chain_length=3, broken_at=2, detail='prev digest mismatch')",
        lambda: provenance.VerifyResult(True, 0),
        "VerifyResult(ok=True, chain_length=0, broken_at=None, detail='')",
        {"detail": "x"},
        lambda v: v.detail == "x" and v.chain_length == 3,
    ),
    "CorpusIndex": (
        lambda: association.build_index([model.UmsRecord("a", tags=("x",))]),
        f"CorpusIndex(records=(UmsRecord(name='a', synonyms=(), formats=(), {_RECORD_TAIL},),"
        f" tag_index={{'x': (UmsRecord(name='a', synonyms=(), formats=(), {_RECORD_TAIL},)}},"
        " untagged={})",
        lambda: association.CorpusIndex((), {}, {}),
        "CorpusIndex(records=(), tag_index={}, untagged={})",
        {"untagged": {}},
        lambda v: v.untagged == {} and len(v.records) == 1,
    ),
    "LintFinding": (
        lambda: lint.LintFinding("AUTHOR_AMBIGUOUS", "warning", "m", (("Author", "a"),)),
        "LintFinding(code='AUTHOR_AMBIGUOUS', severity='warning', message='m',"
        " evidence=(('Author', 'a'),))",
        lambda: lint.LintFinding("EMPTY_SUBJECTS", "info", "m"),
        "LintFinding(code='EMPTY_SUBJECTS', severity='info', message='m', evidence=())",
        {"message": "n"},
        lambda v: v.line() == "AUTHOR_AMBIGUOUS\twarning\tn",
    ),
    "IdentifierCheck": (
        lambda: identifiers.IdentifierCheck(False, "Checksum"),
        "IdentifierCheck(valid=False, reason='Checksum')",
        lambda: identifiers.IdentifierCheck(True),
        "IdentifierCheck(valid=True, reason=None)",
        {"reason": "Length"},
        lambda v: (v.valid, v.reason) == (False, "Length"),
    ),
    "CatalogEntry": (
        lambda: metabase.CatalogEntry(_name(), ["Amazing Grace", NFD_ZOE]),
        f"CatalogEntry(systematic_name={_GRACE}, synonyms=('Amazing Grace', 'Zo\u00eb'))",
        lambda: metabase.CatalogEntry(_name()),
        f"CatalogEntry(systematic_name={_GRACE}, synonyms=())",
        {"systematic_name": _name(("Ada", "Lovelace"))},
        lambda v: v.canonical == "person:Ada\\,Lovelace|1906-12-09|New York",
    ),
    "Catalog": (
        lambda: metabase.Catalog("authors", (_entry(), _entry(("Ada", "Lovelace")))),
        f"Catalog(name='authors', entries=(CatalogEntry(systematic_name={_GRACE},"
        " synonyms=('Amazing Grace',)), CatalogEntry(systematic_name="
        f"{_ADA.replace('Hopper', 'Lovelace')}, synonyms=('Amazing Ada',))))",
        lambda: metabase.Catalog("authors"),
        "Catalog(name='authors', entries=())",
        {"entries": (_entry(), _entry())},
        DuplicateEntry,
    ),
    "Resolution": (
        lambda: metabase.Resolution("exact", _entry()),
        "Resolution(kind='exact', entry=CatalogEntry("
        f"systematic_name={_GRACE}, synonyms=('Amazing Grace',)))",
        lambda: metabase.Resolution("none"),
        "Resolution(kind='none', entry=None)",
        {"kind": "none"},
        lambda v: v.kind == "none" and v.entry == _entry(),
    ),
    "Metabase": (
        lambda: metabase.Metabase((metabase.Catalog("authors", (_entry(),)),)),
        f"Metabase(catalogs=(Catalog(name='authors', entries=(CatalogEntry(systematic_name="
        f"{_GRACE}, synonyms=('Amazing Grace',)),)),))",
        lambda: metabase.Metabase(),
        "Metabase(catalogs=())",
        {"catalogs": (metabase.builtin_systems_catalog(),)},
        lambda v: v.get("authors") is None and v.is_registered_system("doi"),
    ),
    "RawMetadata": (
        lambda: RawMetadata("pdf", (("Title", "x"),), ("offset 9: expected 'xref'",)),
        "RawMetadata(carrier='pdf', pairs=(('Title', 'x'),),"
        " errors=(\"offset 9: expected 'xref'\",))",
        lambda: RawMetadata("html", ()),
        "RawMetadata(carrier='html', pairs=(), errors=())",
        {"errors": ()},
        lambda v: v.errors == () and v.pairs == (("Title", "x"),),
    ),
    "MappingRule": (
        lambda: mapping.MappingRule("pdf", "Title", "name"),
        _RULE,
        lambda: mapping.MappingRule("html", "dc.date", "date"),
        "MappingRule(carrier='html', key='dc.date', target='date')",
        {"target": "creator"},
        lambda v: (v.key, v.target) == ("Title", "creator"),
    ),
    "MappingTable": (
        lambda: mapping.MappingTable((mapping.MappingRule("pdf", "Title", "name"),)),
        f"MappingTable(rules=({_RULE},))",
        lambda: mapping.MappingTable(()),
        "MappingTable(rules=())",
        {"rules": (mapping.MappingRule("pdf", "Title", "nowhere"),)},
        MappingError,
    ),
    "Violation": (
        lambda: validation.Violation("MissingRequiredField", "record has no date"),
        "Violation(code='MissingRequiredField', message='record has no date')",
        lambda: validation.Violation("X", ""),
        "Violation(code='X', message='')",
        {"code": "Y"},
        lambda v: str(v) == "Y: record has no date",
    ),
    "ValidationReport": (
        lambda: validation.ValidationReport((validation.Violation("X", "m"),)),
        "ValidationReport(violations=(Violation(code='X', message='m'),))",
        lambda: validation.ValidationReport(),
        "ValidationReport(violations=())",
        {"violations": ()},
        lambda v: v.ok,
    ),
}
#: the classes whose values are not hashable, since a field is a dict
UNHASHABLE = {"CorpusIndex"}
NAMES = sorted(CASES)


def test_every_value_class_is_covered():
    assert len(CASES) == 18
    for name in NAMES:
        value = CASES[name][0]()
        assert type(value).__name__ == name
        assert isinstance(value, model.Value)


@pytest.mark.parametrize("name", NAMES)
def test_construction_and_repr(name):
    build, shown, build_minimal, shown_minimal = CASES[name][:4]
    value = build()
    assert repr(value) == shown
    assert repr(build_minimal()) == shown_minimal
    keywords = {field: getattr(value, field) for field in value._fields}
    assert type(value)(**keywords) == value


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    value, again = CASES[name][0](), CASES[name][0]()
    assert value == again and not value != again
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(again)
        assert {value: 1}[again] == 1
    assert value != CASES[name][2]()


@pytest.mark.parametrize("name", NAMES)
def test_no_equality_across_classes(name):
    value = CASES[name][0]()
    fields = tuple(getattr(value, field) for field in value._fields)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields and fields != value
    for other in NAMES:
        if other != name:
            assert value != CASES[other][0]()


@pytest.mark.parametrize("name", NAMES)
def test_attributes_cannot_be_set_or_deleted(name):
    value = CASES[name][0]()
    for field in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == CASES[name][1]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_values(name, duplicate):
    value = CASES[name][0]()
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and repr(twin) == repr(value)
    for slot in type(value).__slots__:  # derived slots are rebuilt
        assert getattr(twin, slot) == getattr(value, slot)


@pytest.mark.parametrize("name", NAMES)
def test_replace_builds_and_checks_again(name):
    value = CASES[name][0]()
    changes, expect = CASES[name][4:]
    if isinstance(expect, type):
        with pytest.raises(expect):
            model.replace(value, **changes)
    else:
        replaced = model.replace(value, **changes)
        assert type(replaced) is type(value) and expect(replaced)
    assert model.replace(value) == value
    with pytest.raises(TypeError):
        model.replace(value, no_such_field=1)


@pytest.mark.parametrize("name", NAMES)
def test_dataclasses_functions_accept_values(name):
    """Code written for the former dataclasses keeps working."""
    import dataclasses

    value = CASES[name][0]()
    cls = type(value)
    assert dataclasses.is_dataclass(value)
    fields = dataclasses.fields(value)
    assert tuple(f.name for f in fields) == cls.__slots__
    assert tuple(f.name for f in fields if f.init) == cls._fields
    assert tuple(f.name for f in fields if f.compare) == cls._fields
    assert dataclasses.fields(cls) == fields
    assert dataclasses.replace(value) == value
    changes, expect = CASES[name][4:]
    if isinstance(expect, type):
        with pytest.raises(expect):
            dataclasses.replace(value, **changes)
    else:
        assert dataclasses.replace(value, **changes) == model.replace(value, **changes)
    for derived in set(cls.__slots__) - set(cls._fields):
        with pytest.raises(ValueError):
            dataclasses.replace(value, **{derived: None})
    assert tuple(dataclasses.asdict(value)) == cls.__slots__
