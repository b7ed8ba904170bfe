from __future__ import annotations

import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
import recgen
from ums import provenance
from ums.errors import BrokenChain, MalformedPayload, UmsError
from ums.model import GENESIS_PREV, IdentifierBinding, ProvenanceEvent, UmsRecord
from ums.provenance import (
    _reconstruct_original,
    apply_event,
    event_digest,
    original_view,
    verify_history,
)
from ums.sidecar import canonical_serialize, parse_record


def octology() -> UmsRecord:
    return UmsRecord(name="octology", formats=("pdf",), date="2011-03-01T16:35:22Z")


class TestApplyEvent:
    def test_rename_adds_synonym_and_keeps_name(self):
        record = apply_event(octology(), "rename", "Octology", "2012-01-01T00:00:00Z")
        assert record.synonyms == ("Octology",)
        assert record.name == "octology"
        assert [e.kind for e in record.history] == ["create", "rename"]

    def test_reclassify_adds_identifier(self):
        record = apply_event(
            octology(), "reclassify", "PMID|21383996", "2012-01-01T00:00:00Z"
        )
        assert record.identifiers == (IdentifierBinding(system="PMID", id="21383996"),)

    def test_relocate_adds_location(self):
        url = "http://www.enzymes.at/download/octology.pdf"
        record = apply_event(octology(), "relocate", url, "2012-01-01T00:00:00Z")
        assert record.locations == (url,)

    def test_reformat_and_translate(self):
        record = apply_event(octology(), "reformat", "HTML", "2012-01-01T00:00:00Z")
        assert record.formats == ("pdf", "html")
        record = apply_event(record, "translate", "de", "2012-02-01T00:00:00Z")
        assert record.languages == ("de",)

    def test_genesis_created_automatically_with_record_date(self):
        record = apply_event(octology(), "rename", "O", "2012-01-01T00:00:00Z")
        genesis = record.history[0]
        assert genesis.kind == "create"
        assert genesis.timestamp == record.date
        assert genesis.prev == GENESIS_PREV

    def test_duplicate_payload_recorded_but_not_mirrored_twice(self):
        record = apply_event(octology(), "rename", "O", "2012-01-01T00:00:00Z")
        record = apply_event(record, "rename", "O", "2013-01-01T00:00:00Z")
        assert record.synonyms == ("O",)
        assert len(record.history) == 3

    def test_first_format_location_and_date_survive_any_events(self):
        record = octology()
        for kind, payload in (
            ("relocate", "http://a"),
            ("reformat", "txt"),
            ("relocate", "http://b"),
        ):
            record = apply_event(record, kind, payload, "2012-01-01T00:00:00Z")
        assert record.formats[0] == "pdf"
        assert record.locations[0] == "http://a"
        assert record.date == "2011-03-01T16:35:22Z"

    def test_non_monotone_timestamp_warns_but_records(self, caplog):
        record = apply_event(octology(), "rename", "O", "2012-01-01T00:00:00Z")
        with caplog.at_level(logging.WARNING, logger="ums.provenance"):
            record = apply_event(record, "rename", "P", "2001-01-01T00:00:00Z")
        assert len(record.history) == 3
        assert any("precedes" in message for message in caplog.messages)

    @pytest.mark.parametrize(
        "kind,payload",
        [
            ("rename", ""),
            ("reclassify", "no-separator"),
            ("reclassify", "|左右"),
            ("reformat", "not a token"),
            ("translate", "python"),
            ("teleport", "x"),
        ],
    )
    def test_malformed_payloads_rejected(self, kind, payload):
        with pytest.raises(MalformedPayload):
            apply_event(octology(), kind, payload, "2012-01-01T00:00:00Z")

    def test_create_only_valid_on_virgin_history(self):
        record = apply_event(octology(), "create", "", "2011-03-01T16:35:22Z")
        assert len(record.history) == 1
        with pytest.raises(MalformedPayload):
            apply_event(record, "create", "", "2012-01-01T00:00:00Z")


class TestVerifyHistory:
    def test_untampered_record_after_five_events(self):
        record = octology()
        for i, (kind, payload) in enumerate(
            [
                ("rename", "Octology"),
                ("reclassify", "PMID|21383996"),
                ("relocate", "http://www.enzymes.at/download/octology.pdf"),
                ("reformat", "html"),
                ("translate", "de"),
            ]
        ):
            record = apply_event(record, kind, payload, f"2012-01-0{i + 1}T00:00:00Z")
        result = verify_history(record)
        assert result.ok
        assert result.chain_length == 6

    def test_genesis_only_record_verifies(self):
        record = apply_event(octology(), "create", "", "2011-03-01T16:35:22Z")
        assert verify_history(record).ok

    def test_empty_history_verifies(self):
        assert verify_history(octology()).ok

    def test_altered_payload_breaks_at_next_seq(self):
        record = octology()
        record = apply_event(record, "rename", "AAA", "2012-01-01T00:00:00Z")
        record = apply_event(record, "rename", "BBB", "2012-01-02T00:00:00Z")
        history = list(record.history)
        victim = history[1]
        history[1] = ProvenanceEvent(
            seq=victim.seq,
            timestamp=victim.timestamp,
            kind=victim.kind,
            payload="AXA",
            prev=victim.prev,
        )
        tampered = parse_record(
            canonical_serialize(record).replace(b"|AAA|", b"|AXA|", 1)
        )
        result = verify_history(tampered)
        assert not result.ok
        assert result.broken_at == victim.seq + 1

    def test_altered_final_payload_still_detected(self):
        record = apply_event(octology(), "rename", "AAA", "2012-01-01T00:00:00Z")
        data = canonical_serialize(record).replace(b"|AAA|", b"|AXA|", 1)
        assert not verify_history(parse_record(data)).ok

    def test_tampered_genesis_timestamp_detected(self):
        record = apply_event(octology(), "rename", "AAA", "2012-01-01T00:00:00Z")
        data = canonical_serialize(record).replace(
            b"0|2011-03-01T16:35:22Z|create", b"0|2011-03-01T16:35:23Z|create", 1
        )
        result = verify_history(parse_record(data))
        assert not result.ok
        assert result.broken_at == 0


class TestOriginalView:
    def test_rename_and_relocate_are_stripped(self):
        record = UmsRecord(
            name="octology",
            formats=("pdf",),
            date="2011-03-01T16:35:22Z",
            locations=("http://origin",),
        )
        record = apply_event(record, "rename", "Octology", "2012-01-02T00:00:00Z")
        record = apply_event(record, "relocate", "http://mirror", "2012-01-03T00:00:00Z")
        view = original_view(record)
        assert view.synonyms == ()
        assert view.locations == ("http://origin",)
        assert len(view.history) == 1

    def test_genesis_only_record_is_its_own_original(self):
        record = apply_event(octology(), "create", "", "2011-03-01T16:35:22Z")
        assert original_view(record) == record

    def test_deduped_event_value_attributed_to_the_event(self):
        # a relocate to the address the record was born with is ambiguous;
        # the view credits the event, and replay still reproduces the record
        base = UmsRecord(
            name="x", formats=("pdf",), date="2011-01-01", locations=("http://keep",)
        )
        record = apply_event(base, "relocate", "http://keep", "2012-01-01T00:00:00Z")
        view = original_view(record)
        assert view.locations == ()
        replayed = apply_event(view, "relocate", "http://keep", "2012-01-01T00:00:00Z")
        assert replayed == record

    def test_replaying_events_over_original_reproduces_record(self):
        rng = random.Random(7)
        for _ in range(25):
            record = recgen.record_with_history(rng)
            view = original_view(record)
            replayed = view
            for event in record.history[len(view.history) :]:
                replayed = apply_event(
                    replayed, event.kind, event.payload, event.timestamp
                )
            assert replayed == record

    def test_broken_chain_raises(self):
        record = apply_event(octology(), "rename", "AAA", "2012-01-01T00:00:00Z")
        tampered = parse_record(
            canonical_serialize(record).replace(b"|AAA|", b"|AXA|", 1)
        )
        with pytest.raises(BrokenChain):
            original_view(tampered)

    def test_replays_the_history_once(self, monkeypatch):
        calls = []
        replay = provenance._replay

        def counted(record):
            calls.append(record)
            return replay(record)

        monkeypatch.setattr(provenance, "_replay", counted)
        record = apply_event(octology(), "rename", "AAA", "2012-01-01T00:00:00Z")
        original_view(record)
        assert len(calls) == 1


def test_edited_synonym_line_blames_the_rename_it_breaks():
    record = octology()
    for day, name in enumerate(("AAA", "BBB", "CCC", "DDD"), start=1):
        record = apply_event(record, "rename", name, f"2012-01-0{day}T00:00:00Z")
    data = canonical_serialize(record)
    tampered = parse_record(data.replace(b"synonym: CCC\n", b"synonym: XXX\n", 1))
    result = verify_history(tampered)
    assert not result.ok
    assert (result.broken_at, result.detail) == (
        3,
        "derived values do not match recorded events",
    )
    with pytest.raises(BrokenChain) as excinfo:
        original_view(tampered)
    assert excinfo.value.seq == 3


def test_two_broken_lists_blame_the_lowest_seq():
    record = UmsRecord(
        name="x", formats=("pdf",), date="2011-03-01", locations=("http://origin",)
    )
    record = apply_event(record, "relocate", "http://mirror", "2012-01-01T00:00:00Z")
    record = apply_event(record, "rename", "BBB", "2012-01-02T00:00:00Z")
    data = canonical_serialize(record)
    data = data.replace(b"location: http://mirror\n", b"location: http://other\n")
    tampered = parse_record(data.replace(b"synonym: BBB\n", b"synonym: ZZZ\n"))
    assert verify_history(tampered).broken_at == 1
    with pytest.raises(BrokenChain) as excinfo:
        original_view(tampered)
    assert excinfo.value.seq == 1


def test_malformed_final_payload_is_blamed_with_its_reason():
    record = apply_event(octology(), "reformat", "html", "2012-01-01T00:00:00Z")
    data = canonical_serialize(record).replace(b"|reformat|html|", b"|reformat|HT ML|")
    result = verify_history(parse_record(data))
    assert (result.ok, result.broken_at, result.detail) == (False, 1, "bad format tag: 'ht ml'")


def test_missing_value_before_a_malformed_payload_is_blamed_first():
    record = apply_event(octology(), "rename", "AAA", "2012-01-01T00:00:00Z")
    record = apply_event(record, "rename", "BBB", "2012-01-02T00:00:00Z")
    data = canonical_serialize(record).replace(b"synonym: AAA\n", b"")
    tampered = parse_record(data.replace(b"|rename|BBB|", b"|rename||"))
    assert verify_history(tampered).broken_at == 1


_MISMATCH = "derived values do not match recorded events"
_REPLAY_VALUES = ("a", "b", "c", "d", "e", "f")


@st.composite
def replay_cases(draw):
    """A duplicate-free final list and seq-sorted contributions: either
    random values, some absent from the list, or the tail of the list in
    order with repeats of its values mixed in."""
    final = tuple(draw(st.lists(st.sampled_from(_REPLAY_VALUES), unique=True)))
    if final and draw(st.booleans()):
        values = []
        for value in final[draw(st.integers(0, len(final))) :]:
            values += draw(st.lists(st.sampled_from(final), max_size=2))
            values.append(value)
    else:
        values = draw(st.lists(st.sampled_from(_REPLAY_VALUES + ("x", "y")), max_size=8))
    seqs = draw(
        st.lists(
            st.integers(1, 99), unique=True, min_size=len(values), max_size=len(values)
        )
    )
    return final, list(zip(sorted(seqs), values))


@settings(max_examples=fixtures.examples(500), deadline=None)
@given(replay_cases())
def test_reconstruct_original_matches_reference(case):
    """Contributions that are all in the list give the reference's
    original; otherwise the reference blames the first one missing, which
    is what verification reports before any original is rebuilt."""
    final, contributions = case
    try:
        expected = oracles.reconstruct_original_reference(final, contributions)
    except oracles.InconsistentReference as exc:
        missing = next(seq for seq, value in contributions if value not in final)
        assert (missing, _MISMATCH) == (exc.seq, exc.detail)
    else:
        assert all(value in final for _, value in contributions)
        values = [value for _, value in contributions]
        assert _reconstruct_original(final, values) == expected


#: event kind -> the record list it appends to, and that list's sidecar
#: key with a value no generated record holds
_LISTS = {
    "rename": ("synonyms", "synonym", "edited"),
    "reclassify": ("identifiers", "identifier", "DOI|edited"),
    "relocate": ("locations", "location", "edited"),
    "reformat": ("formats", "format", "edited"),
    "translate": ("languages", "language", "fi"),
}


def _contribution(event: ProvenanceEvent):
    """The value a well-formed event appends, read from its payload."""
    if event.kind == "reclassify":
        system, _, ident = event.payload.partition("|")
        return IdentifierBinding(system, ident)
    return event.payload


@settings(max_examples=fixtures.examples(200), deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_tampered_list_line_blames_what_the_reference_blames(seed, drop):
    """One derived-list line edited or dropped: verification reports the
    lowest seq the reference blames over all lists, or passes when the
    reference finds every list consistent, and then the original view
    holds the reference's originals."""
    rng = random.Random(seed)
    record = recgen.record_with_history(rng)
    lines = canonical_serialize(record).split(b"\n")
    keys = {key.encode(): value.encode() for _, key, value in _LISTS.values()}
    targets = [i for i, line in enumerate(lines) if line.partition(b": ")[0] in keys]
    if not targets:
        return
    at = rng.choice(targets)
    if drop:
        del lines[at]
    else:
        key = lines[at].partition(b": ")[0]
        lines[at] = key + b": " + keys[key]
    try:
        tampered = parse_record(b"\n".join(lines))
    except UmsError:
        return  # a duplicate value or a list left empty
    blamed, originals = [], {}
    for kind, (field, _, _) in _LISTS.items():
        contributions = [(e.seq, _contribution(e)) for e in tampered.history if e.kind == kind]
        try:
            originals[field] = oracles.reconstruct_original_reference(
                getattr(tampered, field), contributions
            )
        except oracles.InconsistentReference as exc:
            blamed.append((exc.seq, exc.detail))
    result = verify_history(tampered)
    if blamed:
        assert (result.ok, (result.broken_at, result.detail)) == (False, min(blamed))
        return
    assert result.ok
    if tampered.history:
        view = original_view(tampered)
        assert {field: getattr(view, field) for field in originals} == originals


def test_verify_never_rebuilds_the_original(monkeypatch):
    def refuse(final, contributions):
        raise AssertionError("verification rebuilt an original")

    monkeypatch.setattr(provenance, "_reconstruct_original", refuse)
    record = apply_event(octology(), "rename", "AAA", "2012-01-01T00:00:00Z")
    record = apply_event(record, "relocate", "http://a", "2012-01-02T00:00:00Z")
    assert verify_history(record) == provenance.VerifyResult(True, 3)
    data = canonical_serialize(record)
    edited = parse_record(data.replace(b"location: http://a\n", b"location: http://b\n"))
    assert verify_history(edited) == provenance.VerifyResult(False, 3, 2, _MISMATCH)
    chain = verify_history(parse_record(data.replace(b"|AAA|", b"|AXA|", 1)))
    assert (chain.ok, chain.broken_at) == (False, 2)
    with pytest.raises(AssertionError):
        original_view(record)


@settings(max_examples=fixtures.examples(50), deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_append_only_law(seed):
    rng = random.Random(seed)
    record = recgen.base_record(rng)
    for kind, payload, when in recgen.random_events(rng, rng.randint(1, 10)):
        before = record
        record = apply_event(record, kind, payload, when)
        for field in (
            "synonyms",
            "formats",
            "languages",
            "locations",
            "creators",
            "identifiers",
            "subjects",
            "tags",
        ):
            old = getattr(before, field)
            new = getattr(record, field)
            assert set(old) <= set(new)
            assert new[: len(old)] == old
        assert record.history[: len(before.history)] == before.history


def test_digest_is_sixteen_hex_chars():
    event = ProvenanceEvent(0, "2011-03-01", "create", "", GENESIS_PREV)
    digest = event_digest(event)
    assert len(digest) == 16
    assert set(digest) <= set("0123456789abcdef")
