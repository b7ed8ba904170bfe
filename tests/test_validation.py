from __future__ import annotations

import pytest

from ums.metabase import (
    AUTHORS,
    Catalog,
    CatalogEntry,
    Metabase,
    builtin_systems_catalog,
    empty_metabase,
)
from ums.model import IdentifierBinding, Subject, SystematicName, UmsRecord
from ums.validation import validate_record

MADMAN = SystematicName(
    kind="person", who=("Max", "Madman"), when="1960-01-01", where="Cupertino"
)


def catalogued_metabase():
    authors = Catalog(
        name=AUTHORS,
        entries=(CatalogEntry(systematic_name=MADMAN, synonyms=("Max Madman",)),),
    )
    return Metabase((builtin_systems_catalog(), authors))


def full_record(**overrides) -> UmsRecord:
    base = dict(
        name="octology",
        formats=("pdf",),
        date="2011-03-01T16:35:22Z",
        languages=("en",),
        locations=("http://www.enzymes.at/download/octology.pdf",),
        creators=("Max Madman",),
        identifiers=(IdentifierBinding(system="PMID", id="21383996"),),
        subjects=(Subject(text="octology"),),
    )
    base.update(overrides)
    return UmsRecord(**base)


def codes(report):
    return [v.code for v in report.violations]


def test_uncatalogued_creator_flagged_in_strict_mode():
    report = validate_record(full_record(), empty_metabase(), "strict")
    assert "CreatorNotInCatalog" in codes(report)


def test_fully_cataloged_record_yields_empty_report():
    report = validate_record(full_record(), catalogued_metabase(), "strict")
    assert report.ok
    assert report.violations == ()


def test_missing_date_in_strict_mode():
    report = validate_record(full_record(date=None), catalogued_metabase(), "strict")
    assert "MissingRequiredField" in codes(report)
    assert any("date" in v.message for v in report.violations)


def test_recommended_fields_reported_in_strict_mode():
    report = validate_record(
        full_record(languages=(), locations=(), creators=()),
        catalogued_metabase(),
        "strict",
    )
    assert codes(report).count("MissingRecommendedField") == 3


def test_lenient_mode_skips_field_and_creator_checks():
    report = validate_record(
        full_record(date=None, creators=("Nobody",)), empty_metabase(), "lenient"
    )
    assert report.ok


def test_unregistered_identifier_system_reported_in_both_modes():
    record = full_record(
        identifiers=(IdentifierBinding(system="FOO", id="1"),),
    )
    for mode in ("strict", "lenient"):
        report = validate_record(record, catalogued_metabase(), mode)
        assert "UnknownIdentifierSystem" in codes(report)


def test_unknown_subject_source_reported():
    record = full_record(subjects=(Subject(text="octology", source="eol"),))
    report = validate_record(record, catalogued_metabase(), "lenient")
    assert codes(report) == ["UnknownSubjectSource"]


def test_validation_is_pure():
    record = full_record()
    metabase = catalogued_metabase()
    first = validate_record(record, metabase, "strict")
    second = validate_record(record, metabase, "strict")
    assert first == second


def test_unknown_validation_mode_is_a_value_error():
    with pytest.raises(ValueError, match="unknown validation mode: 'loose'"):
        validate_record(full_record(), empty_metabase(), "loose")
