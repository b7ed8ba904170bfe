from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums.errors import (
    InvariantViolation,
    MappingError,
    NotPdf,
    NotSupported,
    RuleConflict,
)
from ums.extractors import (
    DEFAULT_MAPPING,
    MappingRule,
    MappingTable,
    RawMetadata,
    extract_html_meta,
    extract_pdf_info,
    load_mapping,
    map_raw_to_ums,
)
from ums.lint import lint_raw
from ums.model import IdentifierBinding, Subject, is_complete
from ums.sidecar import canonical_serialize, parse_record


class TestOctologyMapping:
    def test_mapped_record_fields(self, octology_pdf):
        record, unmapped = map_raw_to_ums(extract_pdf_info(octology_pdf))
        assert record.name == "octology"
        assert record.formats == ("pdf",)
        assert record.date == "2011-03-01T16:35:22Z"
        assert record.creators == ("Max Madman",)

    def test_creator_loses_to_author_and_lands_in_unmapped(self, octology_pdf):
        _, unmapped = map_raw_to_ums(extract_pdf_info(octology_pdf))
        unmapped_keys = [k for k, _ in unmapped]
        assert "Creator" in unmapped_keys
        assert "Producer" in unmapped_keys

    def test_nothing_is_lost(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        record, unmapped = map_raw_to_ums(raw)
        mapped = [pair for pair in raw.pairs if pair not in unmapped]
        # every mapped pair's value is visible in the record
        for key, value in mapped:
            if key == "CreateDate":
                assert record.date == "2011-03-01T16:35:22Z"
            elif key == "Title":
                assert value == record.name
            elif key == "Author":
                assert value in record.creators
            else:  # a format-ish pair
                assert record.formats
        assert len(mapped) + len(unmapped) == len(raw.pairs)


class TestPubmedMapping:
    def test_identifier_binding_from_uidlist(self, pubmed_html):
        record, _ = map_raw_to_ums(extract_html_meta(pubmed_html))
        assert IdentifierBinding(system="PMID", id="21383996") in record.identifiers

    def test_name_creators_format(self, pubmed_html):
        record, _ = map_raw_to_ums(extract_html_meta(pubmed_html))
        assert record.name.startswith("Was the serine protease cathepsin G")
        assert record.creators == ("pubmeddev",)
        assert record.formats == ("html",)  # carrier fallback, no format pair


def test_empty_raw_maps_to_empty_partial_record():
    raw = RawMetadata(carrier="pdf", pairs=())
    record, unmapped = map_raw_to_ums(raw)
    assert unmapped == ()
    assert record.name == ""
    assert record.formats == ()
    assert record.date is None


def test_empty_carrier_value_is_unmapped_not_fatal():
    info = b"<< /Title (octology) /Author () /CreationDate (D:20110301163522Z) >>"
    pdf = fixtures._pdf(
        [b"<< /Type /Catalog /Pages 2 0 R >>", b"<< /Type /Pages /Kids [] /Count 0 >>", info],
        root=1,
        info=3,
    )
    record, unmapped = map_raw_to_ums(extract_pdf_info(pdf))
    assert ("Author", "") in unmapped
    assert record.creators == ()
    assert record.name == "octology"


def test_undecodable_date_passes_through_unmapped():
    raw = RawMetadata(
        carrier="pdf",
        pairs=(("CreateDate", "sometime in march"),),
    )
    record, unmapped = map_raw_to_ums(raw)
    assert record.date is None
    assert ("CreateDate", "sometime in march") in unmapped


def test_rule_conflict_on_doubled_singleton():
    with pytest.raises(RuleConflict):
        MappingTable(
            rules=(
                MappingRule("pdf", "Title", "name"),
                MappingRule("pdf", "Subject", "name"),
            )
        )


def test_unknown_target_rejected():
    with pytest.raises(MappingError):
        MappingTable(rules=(MappingRule("pdf", "Title", "headline"),))


def test_mapping_table_loads_from_file_format():
    table = load_mapping(
        b"ums-mapping: 1\n"
        b"pdf.Title -> name\n"
        b"pdf.Keywords -> tag\n"
        b"html.citation_doi -> identifier:DOI\n"
    )
    assert table.rules[2].target == "identifier:DOI"
    raw = RawMetadata(
        carrier="html",
        pairs=(("citation_doi", "10.1234/abc"),),
    )
    record, unmapped = map_raw_to_ums(raw, table)
    assert record.identifiers == (IdentifierBinding(system="DOI", id="10.1234/abc"),)


def test_missing_header_rejected():
    with pytest.raises(MappingError):
        load_mapping(b"pdf.Title -> name\n")


def test_no_rules_for_carrier_rejected():
    raw = RawMetadata(carrier="sidecar", pairs=())
    with pytest.raises(MappingError):
        map_raw_to_ums(raw)


def test_repeat_suffixed_keys_match_their_base_rule():
    raw = RawMetadata(
        carrier="pdf",
        pairs=(("Title", "first"), ("Title (1)", "second")),
    )
    record, unmapped = map_raw_to_ums(raw)
    assert record.name == "first"
    assert ("Title (1)", "second") in unmapped


def test_format_value_with_trailing_line_feed_falls_back_to_carrier():
    raw = RawMetadata(carrier="pdf", pairs=(("FileType", "HTML\n"),))
    record, _ = map_raw_to_ums(raw)
    assert record.formats == ("pdf",)


def test_carrier_that_is_no_format_tag_gives_no_format():
    table = load_mapping(b"ums-mapping: 1\n_tml.keywords -> tag\n_tml.type -> format\n")
    raw = RawMetadata(carrier="_tml", pairs=(("keywords", "x"),))
    record, unmapped = map_raw_to_ums(raw, table)
    assert (record.tags, record.formats, unmapped) == (("x",), (), ())
    raw = RawMetadata(carrier="_tml", pairs=(("type", "not a tag"),))
    record, unmapped = map_raw_to_ums(raw, table)
    assert (record.formats, unmapped) == ((), (("type", "not a tag"),))


def test_carrier_name_is_shaped_as_a_format_tag():
    table = load_mapping(b"ums-mapping: 1\nPDF.Title -> name\nPDF.Type -> format\n")
    for pairs in ((("Title", "x"),), (("Type", "not a tag"),)):
        record, _ = map_raw_to_ums(RawMetadata("PDF", pairs, 1), table)
        assert record.formats == ("pdf",)


def test_identifier_target_with_trailing_line_feed_rejected():
    with pytest.raises(MappingError):
        MappingTable(rules=(MappingRule("pdf", "Title", "identifier:DOI\n"),))


ZOE_NFC = "Zo\u00eb"
ZOE_NFD = unicodedata.normalize("NFD", ZOE_NFC)
KEYWORDS_WHERE_TOPIC = load_mapping(
    b"ums-mapping: 1\n"
    b"pdf.Keywords -> tag\n"
    b"pdf.Where -> location\n"
    b"pdf.Topic -> subject\n"
)


def test_values_equal_after_nfc_are_mapped_once():
    pairs = []
    for key in ("Keywords", "Where", "Topic"):
        pairs += [(key, ZOE_NFC), (f"{key} (1)", ZOE_NFD)]
    raw = RawMetadata(carrier="pdf", pairs=tuple(pairs))
    record, unmapped = map_raw_to_ums(raw, KEYWORDS_WHERE_TOPIC)
    assert record.tags == (ZOE_NFC,)
    assert record.locations == (ZOE_NFC,)
    assert record.subjects == (Subject(text=ZOE_NFC),)
    assert unmapped == ()
    with pytest.raises(InvariantViolation):  # the reference lets the duplicate through
        oracles.map_raw_to_ums_reference(raw, KEYWORDS_WHERE_TOPIC)


#: a rule for every target, per carrier; "Keywords" maps twice and the
#: first rule wins
EVERY_TARGET = load_mapping(
    "ums-mapping: 1\n".encode()
    + "".join(
        f"{carrier}.{key} -> {target}\n"
        for carrier in ("pdf", "html")
        for key, target in (
            ("Title", "name"),
            ("FileType", "format"),
            ("MIMEType", "format"),
            ("CreateDate", "date"),
            ("Kind", "type"),
            ("Abstract", "summary"),
            ("Lang", "language"),
            ("Where", "location"),
            ("Author", "creator"),
            ("DOI", "identifier:DOI"),
            ("PMID", "identifier:PMID"),
            ("Access", "access"),
            ("Topic", "subject"),
            ("Keywords", "tag"),
            ("Keywords", "subject"),
        )
    ).encode()
)
_KEYS = ["Title", "FileType", "MIMEType", "CreateDate", "Kind", "Abstract", "Lang",
         "Where", "Author", "DOI", "PMID", "Access", "Topic", "Keywords", "Producer"]
_VALUES = [
    "", " ", "x", ZOE_NFC, ZOE_NFD, "Caf\u00e9", "e\u0301", "\u212a", "a|b", "a\nb",
    "pdf", "PDF", "pdf!", "application/pdf", "text/HTML", "a/b/c", "html\n",
    "en", "EN", "zz", "deu", "\u212ao", "0", "3", "4", "-1", "text", "Text", "photo",
    "2011-03-01", "2011-03-01T16:35:22Z", "D:20110301163522+01'00'", "D:20110301163522+01",
    "D:2011", "2011:03:06 19:04:38+01:00", "2011-02-30", "D:0999", "0999:01:01 00:00:00Z",
    "D:99991231230000-12'00'", "sometime", "10.1234/abc", "21383996",
]
_value = st.one_of(
    st.sampled_from(_VALUES),
    st.builds(
        lambda v, form: unicodedata.normalize(form, v),
        st.sampled_from(_VALUES),
        st.sampled_from(["NFC", "NFD"]),
    ),
    st.text(max_size=6),
)
_pair = st.tuples(
    st.builds(
        lambda key, repeat: key if repeat == 0 else f"{key} ({repeat})",
        st.sampled_from(_KEYS),
        st.integers(0, 2),
    ),
    _value,
)


@settings(max_examples=fixtures.examples(400), deadline=None)
@given(st.sampled_from(["pdf", "html"]), st.lists(_pair, max_size=12))
def test_mapping_matches_the_reference_wherever_it_returns(carrier, pairs):
    raw = RawMetadata(carrier=carrier, pairs=tuple(pairs))
    record, unmapped = map_raw_to_ums(raw, EVERY_TARGET)
    # every pair is mapped or unmapped: the unmapped ones, in order
    remaining = iter(raw.pairs)
    assert all(pair in remaining for pair in unmapped)
    try:
        expected = oracles.map_raw_to_ums_reference(raw, EVERY_TARGET)
    except InvariantViolation:
        return  # a duplicate the reference let through; the mapping returned
    assert (record, unmapped) == expected


#: every carrier fixture, with the extractor that reads its carrier
_CARRIERS = [
    (fixtures.octology_pdf(), extract_pdf_info),
    (fixtures.minimal_pdf(), extract_pdf_info),
    (fixtures.preprint_pdf(3), extract_pdf_info),
    (fixtures.encrypted_pdf(), extract_pdf_info),
    (fixtures.xref_stream_pdf(), extract_pdf_info),
    (fixtures.pubmed_html(), extract_html_meta),
    (fixtures.bare_html(), extract_html_meta),
]
#: bytes worth inserting: delimiters, escapes, date and tag starts
_INSERTS = st.one_of(
    st.binary(min_size=1, max_size=8),
    st.sampled_from(
        [b"(", b")", b"[", b"<<", b">>", b"\\", b"/", b"D:2011", b"+01'", b"T", b"<meta ", b"\xff"]
    ),
)


@st.composite
def _mutated_carrier(draw):
    data, extract = draw(st.sampled_from(_CARRIERS))
    return fixtures.mutated(draw, data, _INSERTS), extract


@settings(max_examples=fixtures.examples(300), deadline=None)
@given(_mutated_carrier())
def test_hostile_carriers_raise_only_not_pdf_or_not_supported(carrier):
    data, extract = carrier
    try:
        raw = extract(data)
    except (NotPdf, NotSupported):
        return
    record, _ = map_raw_to_ums(raw)
    lint_raw(raw)
    if is_complete(record):
        assert parse_record(canonical_serialize(record)) == record


_MAPPING_FILE = (
    b"ums-mapping: 1\n"
    b"pdf.Title -> name\n"
    b"pdf.Author -> creator\n"
    b"html.dc.date -> date\n"
    b"html.citation_doi -> identifier:DOI\n"
    b"html.keywords -> tag\n"
)
_MAPPING_INSERTS = st.one_of(
    st.binary(min_size=1, max_size=6),
    st.sampled_from(
        [b"\n", b"\r", b"\x85", b" -> ", b".", b"pdf.", b"identifier:", b"name", b"date", b"\xff"]
    ),
)


@st.composite
def _mutated_mapping(draw):
    return fixtures.mutated(draw, _MAPPING_FILE, _MAPPING_INSERTS)


@settings(max_examples=fixtures.examples(300), deadline=None)
@given(_mutated_mapping())
def test_hostile_mapping_tables_raise_only_ums_errors(data):
    try:
        table = load_mapping(data)
    except MappingError:
        return
    # a table that loads maps its own keys, raising nothing but MappingError
    for rule in table.rules:
        for value in ("2011-03-01", "pdf", "x y"):
            try:
                map_raw_to_ums(RawMetadata(rule.carrier, ((rule.key, value),), 0), table)
            except MappingError:
                pass
