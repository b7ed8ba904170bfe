from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ums.errors import InvalidTimestamp, InvariantViolation, MissingComponent
from ums.model import (
    GENESIS_PREV,
    IdentifierBinding,
    ProvenanceEvent,
    Subject,
    SystematicName,
    UmsRecord,
    parse_systematic_name,
)

#: who-parts: any text, or text made of the characters the canonical form
#: escapes and splits on
WHO_PART = st.one_of(
    st.text(min_size=1, max_size=6),
    st.text(alphabet=["\\", ",", "|", "\n", "n", "a"], min_size=1, max_size=6),
)


class TestSystematicName:
    def test_full_person_name_is_accepted(self):
        name = SystematicName(
            kind="person",
            who=("Андрей", "Иванов"),
            when="1980-06-15",
            where="Москва",
        )
        assert name.canonical == "person:Андрей\\,Иванов|1980-06-15|Москва"

    def test_same_inputs_give_byte_identical_strings(self):
        build = lambda: SystematicName(
            kind="person", who=("Grace", "Hopper"), when="1906-12-09", where="New York"
        )
        assert build().canonical.encode() == build().canonical.encode()

    def test_bare_name_is_accepted(self):
        name = SystematicName(kind="person", who=("Андрей",))
        assert name.canonical == "person:Андрей||"
        with pytest.raises(MissingComponent):
            SystematicName(kind="person", who=())

    def test_qualifier_must_be_digits(self):
        with pytest.raises(InvariantViolation):
            SystematicName(
                kind="person",
                who=("A", "B"),
                when="1980-01-01",
                where="X",
                qualifier="abc",
            )

    def test_canonical_round_trips_through_parse(self):
        name = SystematicName(
            kind="person",
            who=("Tricky|part", "with\\backslash"),
            when="1999-09-09",
            where="Some|where",
            qualifier="42",
        )
        assert parse_systematic_name(name.canonical) == name

    @given(
        st.lists(WHO_PART, min_size=1, max_size=3),
        st.lists(WHO_PART, min_size=1, max_size=3),
    )
    def test_canonical_injective_over_distinct_tuples(self, who_a, who_b):
        a = SystematicName(kind="other", who=tuple(who_a))
        b = SystematicName(kind="other", who=tuple(who_b))
        if a.who != b.who:
            assert a.canonical != b.canonical
        else:
            assert a.canonical == b.canonical
        assert parse_systematic_name(a.canonical) == a
        assert parse_systematic_name(b.canonical) == b


class TestRecordInvariants:
    def test_duplicate_synonyms_rejected(self):
        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", synonyms=("a", "a"))

    def test_nfc_makes_lookalike_duplicates_collide(self):
        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", synonyms=("é", "é"))

    def test_programming_language_is_not_a_language(self):
        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", languages=("python",))

    def test_natural_language_codes_pass(self):
        record = UmsRecord(name="x", languages=("en", "deu"))
        assert record.languages == ("en", "deu")

    def test_access_levels_bounded(self):
        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", access=4)

    def test_format_tokens_lowercased_and_validated(self):
        assert UmsRecord(name="x", formats=("PDF",)).formats == ("pdf",)
        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", formats=("not ok",))

    def test_identifier_binding_normalizes_system(self):
        binding = IdentifierBinding(system="pmid", id="21383996")
        assert binding.system == "PMID"
        with pytest.raises(InvariantViolation):
            IdentifierBinding(system="PMID", id="")

    def test_subject_source_optional(self):
        assert Subject(text="cathepsin G").source is None
        assert Subject(text="cathepsin G", source="pubmed").source == "pubmed"

    def test_history_seq_must_be_consecutive(self):
        from ums.model import GENESIS_PREV, ProvenanceEvent

        good = ProvenanceEvent(0, "2020-01-01", "create", "", GENESIS_PREV)
        skipped = ProvenanceEvent(2, "2020-01-02", "rename", "n", "a" * 16)
        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", history=(good, skipped))

    def test_trailing_line_feed_is_not_part_of_a_token(self):
        from ums.model import ProvenanceEvent

        with pytest.raises(InvariantViolation):
            UmsRecord(name="x", formats=("pdf\n",))
        with pytest.raises(InvariantViolation):
            IdentifierBinding(system="DOI\n", id="10.1234/abc")
        with pytest.raises(InvariantViolation):
            ProvenanceEvent(1, "2020-01-02", "rename", "n", "a" * 16 + "\n")
        with pytest.raises(InvariantViolation):
            SystematicName(kind="person", who=("A",), qualifier="12\n")


_CREATE = ProvenanceEvent(0, "2020-01-01", "create", "", GENESIS_PREV)
_RENAME = ProvenanceEvent(1, "2020-01-02", "rename", "n", "a" * 16)


@pytest.mark.parametrize(
    "fields, field, index",
    [
        (dict(synonyms=("a", "")), "synonyms", 1),
        (dict(formats=("pdf", "p!")), "formats", 1),
        (dict(formats=("pdf", "html", "PDF")), "formats", 2),
        (dict(date="2011-02-30"), "date", 0),
        (dict(doc_type="book"), "doc_type", 0),
        (dict(summary=""), "summary", 0),
        (dict(languages=("en", "python")), "languages", 1),
        (dict(locations=("a", "b", "a")), "locations", 2),
        (dict(creators=("é", "é")), "creators", 1),
        (
            dict(identifiers=(IdentifierBinding("DOI", "x"), IdentifierBinding("doi", "x"))),
            "identifiers",
            1,
        ),
        (dict(subjects=(Subject("s"), Subject("t"), Subject("s"))), "subjects", 2),
        (dict(access=4), "access", 0),
        (dict(tags=("t", "u", "t")), "tags", 2),
        (dict(history=(_CREATE, _RENAME, _RENAME)), "history", 2),
        (dict(history=(_RENAME,)), "history", 0),
        (dict(history=(ProvenanceEvent(0, "2020-01-02", "rename", "n", GENESIS_PREV),)), "history", 0),
    ],
)
def test_record_rejection_names_field_and_index(fields, field, index):
    with pytest.raises((InvariantViolation, InvalidTimestamp)) as excinfo:
        UmsRecord(name="x", **fields)
    assert (excinfo.value.field, excinfo.value.index) == (field, index)
