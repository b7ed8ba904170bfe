from __future__ import annotations

import random
import time
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
import recgen
from ums.errors import (
    DuplicateSingletonKey,
    InvalidTimestamp,
    InvariantViolation,
    SidecarSyntaxError,
    UmsError,
    UnknownKey,
)
from ums.model import UmsRecord, replace
from ums.sidecar import (
    LENIENT,
    STRICT,
    canonical_serialize,
    parse_record,
    parse_record_with_warnings,
)

MINIMAL = b"ums: 1\nname: octology\nformat: pdf\ndate: 2011-03-01T16:35:22Z\n"


def test_minimal_record_serializes_to_the_four_line_sidecar():
    record = UmsRecord(name="octology", formats=("pdf",), date="2011-03-01T16:35:22Z")
    assert canonical_serialize(record) == MINIMAL


def test_minimal_sidecar_parses_to_the_minimal_record():
    record = parse_record(MINIMAL)
    assert record == UmsRecord(
        name="octology", formats=("pdf",), date="2011-03-01T16:35:22Z"
    )


def test_missing_header_is_a_line_1_error():
    with pytest.raises(SidecarSyntaxError) as excinfo:
        parse_record(b"name: octology\nformat: pdf\ndate: 2011-03-01\n")
    assert excinfo.value.line == 1


def test_two_name_lines_rejected():
    doubled = MINIMAL + b"name: again\n"
    # name out of order as well, but duplication is the first offence reported
    with pytest.raises(SidecarSyntaxError):
        parse_record(doubled)
    with pytest.raises(DuplicateSingletonKey):
        parse_record(
            b"ums: 1\nname: a\nname: b\nformat: pdf\ndate: 2011-03-01\n"
        )


def test_trailing_newline_required():
    with pytest.raises(SidecarSyntaxError):
        parse_record(MINIMAL[:-1])


def test_key_order_enforced():
    shuffled = b"ums: 1\nformat: pdf\nname: octology\ndate: 2011-03-01\n"
    with pytest.raises(SidecarSyntaxError):
        parse_record(shuffled)


def test_unknown_key_strict_vs_lenient():
    data = MINIMAL + b"color: blue\n"
    with pytest.raises(UnknownKey):
        parse_record(data)
    record, warnings = parse_record_with_warnings(data, LENIENT)
    assert record.name == "octology"
    assert any("color" in w for w in warnings)


def test_lenient_reports_missing_required_keys():
    data = b"ums: 1\nname: octology\nformat: pdf\n"
    record, warnings = parse_record_with_warnings(data, LENIENT)
    assert record.date is None
    assert "missing required key: date" in warnings


def test_synonym_with_pipe_is_escaped():
    record = UmsRecord(
        name="octology",
        synonyms=("a|b",),
        formats=("pdf",),
        date="2011-03-01",
    )
    data = canonical_serialize(record)
    assert b"synonym: a\\|b\n" in data
    assert parse_record(data) == record


def test_unescaped_pipe_in_simple_value_rejected():
    data = b"ums: 1\nname: a|b\nformat: pdf\ndate: 2011-03-01\n"
    with pytest.raises(SidecarSyntaxError):
        parse_record(data)


def test_newline_and_backslash_escapes_round_trip():
    record = UmsRecord(
        name="line\nbreak",
        summary="back\\slash and \\n literal",
        formats=("pdf",),
        date="2011-03-01",
    )
    data = canonical_serialize(record)
    assert data.count(b"\n") == len(data.split(b"\n")) - 1
    assert parse_record(data) == record


def test_access_zero_is_omitted_but_accepted_on_input():
    record = UmsRecord(name="x", formats=("pdf",), date="2011-03-01", access=0)
    assert b"access:" not in canonical_serialize(record)
    explicit = MINIMAL + b"access: 0\n"
    # not canonical, still grammatical; canonical form drops the line
    reparsed = parse_record(explicit)
    assert reparsed.access == 0
    assert canonical_serialize(reparsed) == MINIMAL


def test_uppercase_format_rejected_at_parse():
    data = b"ums: 1\nname: x\nformat: PDF\ndate: 2011-03-01\n"
    with pytest.raises(SidecarSyntaxError):
        parse_record(data)


def test_non_ascii_digits_rejected_everywhere():
    # Arabic-Indic and other digits satisfy str.isdigit but are not canonical
    head = "ums: 1\nname: x\nformat: pdf\n"
    genesis = "history: 0|2011-03-01|create||0000000000000000\n"
    rename = "|2011-03-01|rename|y|0000000000000000\n"
    for digit in ("٠", "۱", "१", "１", "\U0001d7d9"):
        for data in (
            f"{head}date: 201{digit}-03-01\n",
            f"{head}date: 2011-03-01\nhistory: {digit}|2011-03-01|create||0000000000000000\n",
            f"{head}date: 2011-03-01\n{genesis}history: 1{digit}{rename}",
            f"{head}date: 2011-03-01\nhistory: 0|2011-03-0{digit}|create||0000000000000000\n",
        ):
            for mode in (STRICT, LENIENT):
                with pytest.raises(SidecarSyntaxError) as excinfo:
                    parse_record_with_warnings(data.encode(), mode)
                assert excinfo.value.line == data.count("\n")


def test_incomplete_record_cannot_serialize():
    with pytest.raises(InvariantViolation):
        canonical_serialize(UmsRecord(name="x", formats=("pdf",)))


@settings(max_examples=fixtures.examples(60), deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_and_idempotence(seed):
    record = recgen.record_with_history(random.Random(seed))
    data = canonical_serialize(record)
    assert parse_record(data) == record
    assert canonical_serialize(parse_record(data)) == data


def test_date_with_trailing_line_feed_cannot_reach_the_serializer():
    with pytest.raises(InvalidTimestamp):
        UmsRecord(name="x", formats=("pdf",), date="2011-03-01\n")


GOOD_LINES = [
    "ums: 1",
    "name: x",
    "format: pdf",
    "date: 2011-03-01",
    "language: en",
    "history: 0|2011-03-01|create||0000000000000000",
]


@pytest.mark.parametrize(
    "line_no, bad_line",
    [
        (3, "format: PDF"),
        (3, "format: pdf!"),
        (5, "language: EN"),
        (5, "language: zz"),
        (4, "date: 2011-02-29"),
        (4, "date: 2011-03-01T16:35:22"),
        (6, "history: 0|2011-02-29|create||0000000000000000"),
        (6, "history: 0|2011-03-01T24:00:00Z|create||0000000000000000"),
        (6, "history: 0|2011-03-01|creation||0000000000000000"),
        (6, "history: 0|2011-03-01|create||000000000000000G"),
        (6, "history: 0|2011-03-01|create||00000000000000000"),
        (6, "history: 0|2011-03-01|create|\\|0000000000000000"),
        (6, "history: 00|2011-03-01|create||0000000000000000"),
        (6, "history: 0|2011-03-01|rename|y|0000000000000000"),
        # a bad line may bring the good lines it repeats or follows; it
        # replaces the good line as many lines up as it has line feeds
        (7, "tag: x\ntag: x"),
        (7, "history: 0|2011-03-01|create||0000000000000000\nhistory: 2|2011-03-01|rename|y|0000000000000000"),
        # a value the model would have to normalize is not canonical
        (2, unicodedata.normalize("NFD", "name: Zoë")),
        (6, "language: en\nidentifier: doi|10.1/x"),
        (5, "date: 2011-03-01\ntype: book"),
        (4, "format: pdf\nformat: pdf"),
        # an identifier or subject the model rejects
        (6, "language: en\nidentifier: d!|x"),
        (6, "language: en\nidentifier: DOI|"),
        (6, "language: en\nsubject: a|"),
    ],
)
def test_bad_value_names_its_line(line_no, bad_line):
    lines = list(GOOD_LINES)
    lines[line_no - 1 - bad_line.count("\n")] = bad_line
    with pytest.raises(SidecarSyntaxError) as excinfo:
        parse_record(("\n".join(lines) + "\n").encode())
    assert excinfo.value.line == line_no


@pytest.mark.parametrize("bad_line", ["identifier: d!|x", "identifier: DOI|", "subject: a|"])
def test_lenient_parsing_names_a_rejected_identifier_or_subject(bad_line):
    lines = GOOD_LINES[:5] + [bad_line] + GOOD_LINES[5:]
    with pytest.raises(SidecarSyntaxError) as excinfo:
        parse_record(("\n".join(lines) + "\n").encode(), LENIENT)
    assert excinfo.value.line == 6


def test_escaped_line_feed_before_a_combining_mark_is_canonical():
    # the record name is NFC, but its escaped line is not: the escape's
    # "n" composes with the acute, so no whole-text NFC gate may reject it
    record = UmsRecord(name="a\n\u0301b", formats=("pdf",), date="2011-03-01")
    data = canonical_serialize(record)
    assert "name: a\\n\u0301b\n".encode() in data
    assert not unicodedata.is_normalized("NFC", data.decode())
    assert parse_record(data) == record


def test_lenient_keeps_a_non_canonical_value_and_warns():
    data = b"ums: 1\nname: x\nformat: PDF\ndate: 2011-03-01\nlanguage: EN\n"
    record, warnings = parse_record_with_warnings(data, LENIENT)
    assert (record.formats, record.languages) == (("pdf",), ("en",))
    assert warnings == [
        "line 3: format is not canonical, expected 'pdf'",
        "line 5: language is not canonical, expected 'en'",
    ]


def _mutated(seed: int, kind: str) -> tuple[bytes, bytes, int]:
    """A canonical sidecar from recgen, the same sidecar with one value
    made non-canonical by *kind*, and the line that mutation touched;
    "combining" instead adds canonical values that escape a line feed
    before a combining mark, and touches no line."""
    rng = random.Random(seed)
    record = recgen.record_with_history(rng)
    if kind == "combining":
        tricky = rng.choice("a\u00e9|") + "\n" + rng.choice("\u0301\u0308\u0327")
        record = replace(
            record, summary=tricky, tags=tuple(dict.fromkeys(record.tags + (tricky,)))
        )
    original = canonical_serialize(record)
    lines = original.decode().split("\n")
    if kind == "nfd":
        candidates = [i for i in range(1, len(lines) - 1)
                      if unicodedata.normalize("NFD", lines[i]) != lines[i]]
    else:
        prefix = {"upper": ("format: ", "language: "), "lower-system": ("identifier: ",)}
        candidates = [i for i, line in enumerate(lines) if line.startswith(prefix.get(kind, "\0"))]
    if not candidates:
        return original, original, 0
    i = rng.choice(candidates)
    key, _, value = lines[i].partition(": ")
    if kind == "nfd":
        lines[i] = unicodedata.normalize("NFD", lines[i])
    elif kind == "upper":
        lines[i] = f"{key}: {value.upper()}"
    else:
        system, _, ident = value.partition("|")
        lines[i] = f"{key}: {system.lower()}|{ident}"
    return original, "\n".join(lines).encode(), i + 1


@settings(max_examples=fixtures.examples(200), deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("nfd", "upper", "lower-system", "combining")))
def test_strict_parsing_accepts_only_canonical_values(seed, kind):
    original, mutated, line_no = _mutated(seed, kind)
    if mutated == original:
        assert canonical_serialize(parse_record(mutated)) == mutated
    else:
        with pytest.raises(SidecarSyntaxError) as excinfo:
            parse_record(mutated)
        assert excinfo.value.line == line_no
    record, warnings = parse_record_with_warnings(mutated, LENIENT)
    assert canonical_serialize(record) == original
    assert [w.split(":")[0] for w in warnings] == [f"line {line_no}"] * (mutated != original)


_KEYS = ("ums", "name", "synonym", "format", "date", "type", "summary", "language",
         "location", "creator", "identifier", "access", "subject", "tag", "history", "color")
_VALUES = st.text(
    st.one_of(st.sampled_from("|\\n0aZ-:T\u0301"), st.characters(exclude_categories=("Cs",))),
    max_size=12,
)
_SIDECAR_LIKE = st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), max_size=10).map(
    lambda pairs: ("ums: 1\n" + "".join(f"{k}: {v}\n" for k, v in pairs)).encode()
)


@settings(max_examples=fixtures.examples(300), deadline=None)
@given(st.one_of(st.binary(max_size=80), st.binary(max_size=80).map(MINIMAL.__add__), _SIDECAR_LIKE))
def test_arbitrary_bytes_raise_only_ums_errors(data):
    for mode in (STRICT, LENIENT):
        try:
            parse_record(data, mode)
        except UmsError:
            pass


def _outcome(parse, data: bytes, mode: str):
    """What *parse* returns for *data*, or the class, line and message of
    what it raises."""
    try:
        return parse(data, mode)
    except UmsError as exc:
        return type(exc), exc.line, str(exc)


@st.composite
def _recgen_sidecar(draw, mutate: bool = True):
    record = recgen.record_with_history(random.Random(draw(st.integers(0, 2**32 - 1))))
    data = canonical_serialize(record)
    return fixtures.mutated(draw, data, fixtures.HOSTILE_INSERTS) if mutate else data


#: what a value edit inserts: escapes good and bad, separators, case,
#: a combining mark, a non-ASCII digit, line-breaking characters that are
#: not a line feed
_VALUE_INSERTS = ["|", "\\", "\\n", "\\|", "\\\\", "\\x", "\u0301", "A", "0", "\u0660", "-",
                  " ", "\r", "\x85", "\u2028"]


@st.composite
def _value_edited_sidecar(draw):
    """A recgen sidecar after one to three edits that keep every line a
    ``key: value`` line: an insertion into a value, or a line duplicated,
    deleted or moved; the layout may still match, so a value's line must
    be found without the line walk."""
    record = recgen.record_with_history(random.Random(draw(st.integers(0, 2**32 - 1))))
    lines = canonical_serialize(record).decode().split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        edit = draw(st.sampled_from(["insert", "duplicate", "delete", "move"]))
        if edit == "insert":
            key, _, value = lines[i].partition(": ")
            at = draw(st.integers(0, len(value)))
            insert = draw(st.sampled_from(_VALUE_INSERTS))
            lines[i] = f"{key}: {value[:at]}{insert}{value[at:]}"
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "delete" and len(lines) > 2:
            del lines[i]
        elif edit == "move":
            lines.insert(draw(st.integers(1, len(lines) - 1)), lines.pop(i))
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=fixtures.examples(500), deadline=None)
@given(st.one_of(
    _recgen_sidecar(), _recgen_sidecar(mutate=False), _value_edited_sidecar(), _SIDECAR_LIKE
))
def test_parsing_agrees_with_the_line_walk(data):
    for mode in (STRICT, LENIENT):
        expected = _outcome(oracles.parse_record_reference, data, mode)
        assert _outcome(parse_record_with_warnings, data, mode) == expected


@pytest.mark.parametrize(
    "history",
    [
        "0|2011-03-01|create|a\\\\b\\nc\\|d|0000000000000000",
        "0|2011-03-01|create|a\\x|0000000000000000",
        "0|2011-03-01|create|a\\|0000000000000000",
        "0|2011-03-01|create|a\\\\|0000000000000000",
        "0|2011-03-01|create|\\|0000000000000000|",
        "0|2011-03-01\\n|create||0000000000000000",
        "0|2011-03-01|cre\\|ate||0000000000000000",
        "0\\|0|2011-03-01|create||0000000000000000",
        "0|2011-03-01|create||0000000000000000\\",
        "0|2011-03-01|create||0000000000000000|",
        "01|2011-03-01|create||0000000000000000",
        "+0|2011-03-01|create||0000000000000000",
        "٠|2011-03-01|create||0000000000000000",
        "0|2011-03-01|create|é|0000000000000000",
    ],
)
def test_history_values_agree_with_the_line_walk(history):
    data = MINIMAL + f"history: {history}\n".encode()
    for mode in (STRICT, LENIENT):
        expected = _outcome(oracles.parse_record_reference, data, mode)
        assert _outcome(parse_record_with_warnings, data, mode) == expected


#: characters str.splitlines breaks lines at, other than the line feed
_LINE_BREAKERS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("mode", [STRICT, LENIENT])
def test_line_breaking_characters_stay_inside_their_value(mode):
    record = UmsRecord(
        name="a\rb",
        synonyms=tuple(f"s{c}t" for c in _LINE_BREAKERS),
        formats=("pdf",),
        date="2011-03-01",
        summary="x y\x85z",
        tags=tuple(f"{c}tag{c}" for c in _LINE_BREAKERS),
    )
    data = canonical_serialize(record)
    assert parse_record_with_warnings(data, mode) == (record, [])
    # the line of a later rejection counts line feeds only
    bad = data + b"history: 0|2011-03-01|create||000000000000000G\n"
    with pytest.raises(SidecarSyntaxError) as excinfo:
        parse_record_with_warnings(bad, mode)
    assert excinfo.value.line == data.count(b"\n") + 1


@pytest.mark.parametrize(
    "tail, line",
    [
        (b"format: pdf\n", 100_003),  # no date line
        (b"format: pdf\nname: y\n", 100_004),  # out of order
        (b"format: pdf\ndate: 2011-03-01\nsynonym: s1\n", 100_005),  # out of order
        (b"format: pdf\ndate: 2011-03-01\nformat: pdf\n", 100_005),
        (b"format: pdf\ndate: 2011-03-01\ncolor: x\n", 100_005),  # unknown key
        (b"synonym: s0000000007\nformat: pdf\ndate: 2011-03-01\n", 100_003),  # a duplicate
    ],
)
def test_a_long_hostile_sidecar_is_rejected_in_linear_time(tail, line):
    synonyms = b"".join(b"synonym: s%010d\n" % i for i in range(100_000))
    data = b"ums: 1\nname: x\n" + synonyms + tail
    assert len(data) > 2_000_000
    started = time.perf_counter()
    with pytest.raises(SidecarSyntaxError) as excinfo:
        parse_record(data)
    # a quadratic match or walk would take hours; a linear one well under a second
    assert time.perf_counter() - started < 20
    assert excinfo.value.line == line
