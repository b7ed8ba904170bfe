from __future__ import annotations

from ums.extractors import RawMetadata, extract_pdf_info
from ums.lint import (
    DEFAULT_RELATED_SYSTEMS,
    at_least_warning,
    lint_raw,
    lint_record,
)
from ums.metabase import AUTHORS, Catalog, CatalogEntry, Metabase, builtin_systems_catalog
from ums.model import IdentifierBinding, Subject, SystematicName, UmsRecord


def by_code(findings):
    return {f.code: f for f in findings}


class TestLintRawOnOctology:
    def test_format_redundancy_counts_six_statements(self, octology_pdf):
        findings = by_code(lint_raw(extract_pdf_info(octology_pdf)))
        redundancy = findings["FORMAT_REDUNDANCY"]
        assert len(redundancy.evidence) == 6
        assert {k for k, _ in redundancy.evidence} == {
            "PDFVersion",
            "Producer",
            "PDFVersion (1)",
            "FileType(guessed)",
            "FileType",
            "MIMEType",
        }

    def test_author_creator_disagreement(self, octology_pdf):
        finding = by_code(lint_raw(extract_pdf_info(octology_pdf)))["AUTHOR_AMBIGUOUS"]
        assert ("Author", "Max Madman") in finding.evidence
        assert ("Creator", "Pages") in finding.evidence

    def test_coincident_timestamps(self, octology_pdf):
        assert "TIMESTAMP_COINCIDENT" in by_code(lint_raw(extract_pdf_info(octology_pdf)))

    def test_exactly_the_three_expected_findings(self, octology_pdf):
        findings = lint_raw(extract_pdf_info(octology_pdf))
        warned = [f.code for f in findings if f.severity in ("warning", "error")]
        assert warned == [
            "FORMAT_REDUNDANCY",
            "AUTHOR_AMBIGUOUS",
            "TIMESTAMP_COINCIDENT",
        ]

    def test_bogus_doi_pair_adds_exactly_identifier_invalid(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        extended = RawMetadata(
            carrier=raw.carrier,
            pairs=raw.pairs + (("DOI", "details/Octology"),),
        )
        before = [f.code for f in lint_raw(raw)]
        after = [f.code for f in lint_raw(extended)]
        assert after == before + ["IDENTIFIER_INVALID"]
        invalid = by_code(lint_raw(extended))["IDENTIFIER_INVALID"]
        assert invalid.severity == "error"
        assert invalid.evidence == (("DOI", "details/Octology"),)


class TestLintRawGeneral:
    def test_clean_raw_has_no_findings(self):
        raw = RawMetadata(
            carrier="pdf",
            pairs=(
                ("MIMEType", "application/pdf"),
                ("CreateDate", "2011:03:01 10:00:00Z"),
                ("ModifyDate", "2012:06:07 10:00:00Z"),
                ("Author", "Somebody"),
            ),
        )
        assert lint_raw(raw) == []

    def test_evidence_drawn_verbatim_from_input(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        for finding in lint_raw(raw):
            for pair in finding.evidence:
                assert pair in raw.pairs

    def test_adding_unrelated_pair_never_removes_findings(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        base_codes = {f.code for f in lint_raw(raw)}
        extended = RawMetadata(
            carrier=raw.carrier,
            pairs=raw.pairs + (("Subject", "metadata"),),
        )
        assert base_codes <= {f.code for f in lint_raw(extended)}

    def test_extraction_errors_are_info_findings_after_the_others(self):
        raw = RawMetadata(
            carrier="pdf",
            pairs=(("Author", "A"), ("Creator", "B")),
            errors=("offset 9: unterminated string", "offset unknown for object 4"),
        )
        findings = lint_raw(raw)
        assert [(f.code, f.severity, f.message) for f in findings] == [
            ("AUTHOR_AMBIGUOUS", "warning", "author 'A' and creator 'B' disagree"),
            ("EXTRACT_PARTIAL", "info", "offset 9: unterminated string"),
            ("EXTRACT_PARTIAL", "info", "offset unknown for object 4"),
        ]
        assert not at_least_warning(findings[1:])

    def test_deterministic_order(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        assert [f.code for f in lint_raw(raw)] == [f.code for f in lint_raw(raw)]


def full_record(**overrides) -> UmsRecord:
    base = dict(
        name="octology",
        formats=("pdf",),
        date="2011-03-01T16:35:22Z",
        languages=("en",),
        locations=("http://www.enzymes.at/download/octology.pdf",),
        creators=("Max Madman",),
        identifiers=(
            IdentifierBinding(system="OCLC", id="756372732"),
            IdentifierBinding(system="PMID", id="21383996"),
        ),
        subjects=(Subject(text="metadata standards"),),
    )
    base.update(overrides)
    return UmsRecord(**base)


def cataloged_metabase():
    madman = SystematicName(
        kind="person", who=("Max", "Madman"), when="1960-01-01", where="Cupertino"
    )
    authors = Catalog(
        name=AUTHORS,
        entries=(CatalogEntry(systematic_name=madman, synonyms=("Max Madman",)),),
    )
    return Metabase((builtin_systems_catalog(), authors))


class TestLintRecord:
    def test_fully_populated_record_is_clean(self):
        assert lint_record(full_record(), cataloged_metabase()) == []

    def test_oclc_without_pmid_is_a_system_gap(self):
        record = full_record(
            identifiers=(IdentifierBinding(system="OCLC", id="756372732"),)
        )
        findings = by_code(lint_record(record, cataloged_metabase()))
        assert "SYSTEM_GAP" in findings
        assert "PMID" in findings["SYSTEM_GAP"].message

    def test_gap_is_symmetric(self):
        record = full_record(
            identifiers=(IdentifierBinding(system="PMID", id="21383996"),)
        )
        findings = by_code(lint_record(record, cataloged_metabase()))
        assert "OCLC" in findings["SYSTEM_GAP"].message

    def test_empty_subjects_is_informational(self):
        record = full_record(subjects=())
        finding = by_code(lint_record(record, cataloged_metabase()))["EMPTY_SUBJECTS"]
        assert finding.severity == "info"
        assert not at_least_warning([finding])

    def test_missing_recommended_fields(self):
        record = full_record(languages=(), locations=(), creators=())
        codes = [f.code for f in lint_record(record, cataloged_metabase())]
        assert codes.count("MISSING_RECOMMENDED") == 3

    def test_uncataloged_creator_needs_a_metabase(self):
        record = full_record(creators=("Nobody Known",))
        without = [f.code for f in lint_record(record, None)]
        assert "UNCATALOGED_CREATOR" not in without
        with_mb = [f.code for f in lint_record(record, cataloged_metabase())]
        assert "UNCATALOGED_CREATOR" in with_mb

    def test_default_related_pairs_cover_the_worldcat_pubmed_link(self):
        assert ("OCLC", "PMID") in DEFAULT_RELATED_SYSTEMS
        # a system in no related pair leaves no gap
        record = full_record(identifiers=(IdentifierBinding(system="DOI", id="10.1234/x"),))
        assert "SYSTEM_GAP" not in by_code(lint_record(record, cataloged_metabase()))
