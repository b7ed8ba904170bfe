"""The sidecar file format, version 1.

UTF-8, LF line endings, trailing newline required.  Line 1 is the
``ums: 1`` header, then ``key: value`` lines in fixed key order:
name, synonym*, format+, date, type?, summary?, language*, location*,
creator*, identifier*, access?, subject*, tag*, history*.
That grammar is the keys and counts of :data:`ums.model.FIELDS`, and
each key's values are read and written as its row says.

Serialization is canonical: the same record always produces the same
bytes, and ``parse_record(canonical_serialize(r)) == r``.

The parser checks grammar: lines, key order, once-only keys, escapes,
field counts and the digits of history seqs.  One ``fullmatch`` of
:data:`_LAYOUT`, a pattern built from the table's keys and counts, reads
a well-formed sidecar: it checks the header, the shape of every line
(only a line feed ends one), key order, once-only keys and non-empty
values, and each key's run of lines splits into its values on the key's
line start.  A text the pattern does not match goes to
:func:`_walk_lines`, the line walk, which names the first line at fault
or, in lenient mode, sets aside unknown keys and notes missing ones.
Text values, and the fields of identifiers and subjects, are split,
counted and unescaped by :func:`~ums.escaping.decode_fields` alone, a
run of text values only when it holds a ``\\`` or a ``|``; a history
value is read by one pattern, and by ``decode_fields`` only when it does
not match, to name the fault.  Tokens (format, date, type, language) are
passed on as written; an access token, an identifier, a subject and an
event are built by their row's rule.  The model checks values: its
rules, :class:`UmsRecord`, :class:`ProvenanceEvent`,
:class:`IdentifierBinding` and :class:`Subject` hold the only format,
language, date, type, access, identifier, subject, duplicate and
history-order rules, and each rejection names its field and entry, as
does a rejection by ``decode_fields``; the parser turns it into a
:class:`SidecarSyntaxError` naming the line, which it counts from the
values before that entry only once something is rejected.  Strict
parsing also rejects a value the model had to normalize (non-NFC text,
an uppercase format or language, a lowercase identifier system), so
every strict-valid sidecar re-serializes to its own bytes; lenient
parsing keeps such a value and warns.

Of several faults the first is named: grammar faults in line order, then
key by key each entry's fault (escapes, field count, value) and the key's
duplicates or history order, then in strict mode a value not in canonical
form.  A row that cannot be read has the model check the rows before it.
"""

from __future__ import annotations

import re
import unicodedata
from operator import attrgetter, itemgetter

from .errors import (
    DuplicateSingletonKey,
    InvalidTimestamp,
    InvariantViolation,
    SidecarSyntaxError,
    UnknownKey,
)
# perfbench/spans.py wraps join_fields and split_fields here too, so they stay bound
from .escaping import decode_fields, escape, join_fields, split_fields, unescape  # noqa: F401
from .model import (
    FIELDS,
    HISTORY,
    LENIENT,
    MANY,
    PAIR,
    REQUIRED,
    STRICT,
    SUBJECT,
    SYSTEM_RE,
    TEXT,
    TOKEN,
    Field,
    ProvenanceEvent,
    UmsRecord,
    checked,
    require_complete,
)

SIDECAR_EXTENSION = ".ums"


def serialize_event(event: ProvenanceEvent) -> str:
    """Render one history value; this exact string feeds the digest chain."""
    return (
        f"{event.seq}|{event.timestamp}|{event.kind}|"
        f"{escape(event.payload)}|{event.prev}"
    )


def _joined(value) -> str:
    """An identifier's or subject's two fields, escaped and joined with
    ``|``; a subject without a source is its text alone."""
    first, second = value._key(value)
    return escape(first) if second is None else f"{escape(first)}|{escape(second)}"


def _encoder(row: Field):
    """The function from a record's value under *row* to the canonical
    values of its entries."""
    absent, decoder = row.default, row.decoder
    if row.count not in MANY:
        if decoder is TEXT:
            return lambda value: () if value == absent else (escape(value),)
        return lambda value: () if value == absent else (str(value),)
    if decoder is TEXT:
        return lambda values: map(escape, values)
    if decoder is TOKEN:
        return lambda values: values
    if decoder is HISTORY:
        return lambda values: map(serialize_event, values)
    return lambda values: map(_joined, values)


_KEY_POS = {row.key: pos for pos, row in enumerate(FIELDS)}
_POS_OF_FIELD = {row.name: pos for pos, row in enumerate(FIELDS)}
#: a record's values, one per row
_HELD = attrgetter(*(row.name for row in FIELDS))
_CANONICAL = [_encoder(row) for row in FIELDS]
_LINE_STARTS = [(f"\n{row.key}: ", canonical) for row, canonical in zip(FIELDS, _CANONICAL)]
#: a well-formed sidecar, whole: the header, then each key's run of
#: ``key: value`` lines in key order, as many as the key's count allows,
#: every value non-empty; group i is the run of the i-th key, "" when it
#: has no line
_LAYOUT = re.compile(
    "ums: 1\n" + "".join(f"((?:{row.key}: [^\n]+\n){row.count})" for row in FIELDS)
)
#: per key: where its run's first value starts, and what separates its values
_RUN_SPLIT = [(len(row.key) + 2, f"\n{row.key}: ") for row in FIELDS]
#: per row, in key order: its position, key, field, decoder, rule, and if it is a list
_ROWS = [(pos, r.key, r.name, r.decoder, r.rule, r.count in MANY) for pos, r in enumerate(FIELDS)]
_ABSENT = tuple(row.default for row in FIELDS)
#: the tokens a record holds, and the constructor arguments that gave them
_HELD_TOKENS = attrgetter(*(row.name for row in FIELDS if row.decoder is TOKEN))
_GIVEN_TOKENS = itemgetter(*(pos for pos, row in enumerate(FIELDS) if row.decoder is TOKEN))
#: a history value whose fields need no check of count, escapes or seq
#: digits: seq, timestamp, kind, payload (escapes allowed), prev
_HISTORY_RE = re.compile(
    r"(0|[1-9][0-9]*)\|([^|\\]*)\|([^|\\]*)\|([^|\\]*(?:\\[\\n|][^|\\]*)*)\|([^|\\]*)"
)
_SEQ_RE = re.compile(r"0|[1-9]\d*", re.ASCII)


def canonical_serialize(record: UmsRecord) -> bytes:
    """Serialize a complete record to canonical sidecar bytes."""
    require_complete(record)
    out = ["ums: 1"]
    for (line_start, canonical), held in zip(_LINE_STARTS, _HELD(record)):
        out.append(line_start.join(["", *canonical(held)]))
    out.append("\n")
    text = "".join(out)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate: undecodable argv bytes arrive so
        line = text[text.rfind("\n", 0, exc.start) + 1 : text.find("\n", exc.start)]
        raise InvariantViolation(f"not encodable as UTF-8: {line!r}") from None


def _parse_history_value(value: str) -> ProvenanceEvent:
    fields = _HISTORY_RE.fullmatch(value)
    if fields is not None:
        seq, ts, kind, payload, prev = fields.groups()
        if "\\" in payload:
            payload = unescape(payload)
    else:
        seq, ts, kind, payload, prev = decode_fields(value, (5,), "history")
        if not _SEQ_RE.fullmatch(seq):
            raise InvariantViolation(f"bad history seq: {seq!r}")
    try:
        return ProvenanceEvent(int(seq), ts, kind, payload, prev)
    except (InvariantViolation, InvalidTimestamp) as exc:
        raise InvariantViolation(f"history: {exc}") from None


def _walk_lines(text: str, mode: str) -> tuple[list[list[str]], list[list[int]], list[str]]:
    """Each key's values and their line numbers, line by line, and the
    warnings of a lenient parse; raises the first grammar error.  Run
    only on a text that :data:`_LAYOUT` does not match, to name the line
    at fault, or in lenient mode to set aside unknown keys and note
    missing ones."""
    if not text.endswith("\n"):
        raise SidecarSyntaxError(max(1, text.count("\n") + 1), "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "ums: 1":
        raise SidecarSyntaxError(1, "expected header 'ums: 1'")

    warnings: list[str] = []
    values: list[list[str]] = [[] for _ in FIELDS]
    line_nos: list[list[int]] = [[] for _ in FIELDS]
    order_pos = 0

    for line_no, line in enumerate(lines[1:], start=2):
        key, sep, value = line.partition(": ")
        if not sep or not key or value == "":
            raise SidecarSyntaxError(line_no, f"expected 'key: value', got {line!r}")
        pos = _KEY_POS.get(key)
        if pos is None:
            if mode == STRICT:
                raise UnknownKey(line_no, key)
            warnings.append(f"line {line_no}: unknown key {key!r} ignored")
            continue
        if pos < order_pos:
            raise SidecarSyntaxError(line_no, f"key {key!r} out of order")
        if FIELDS[pos].count not in MANY and values[pos]:
            raise DuplicateSingletonKey(line_no, key)
        order_pos = pos
        values[pos].append(value)
        line_nos[pos].append(line_no)

    missing = [row.key for row, found in zip(FIELDS, values) if row in REQUIRED and not found]
    if missing:
        if mode == STRICT:
            raise SidecarSyntaxError(
                len(lines), f"missing required key(s): {', '.join(missing)}"
            )
        warnings += [f"missing required key: {k}" for k in missing]
    return values, line_nos, warnings


def _line_numbers(values: list[list[str]]) -> list[list[int]]:
    """Each value's line in a sidecar of only *values*, in key order."""
    line_nos, line_no = [], 2
    for found in values:
        line_nos.append(list(range(line_no, line_no + len(found))))
        line_no += len(found)
    return line_nos


def parse_record_with_warnings(
    data: bytes, mode: str = STRICT
) -> tuple[UmsRecord, list[str]]:
    """Parse sidecar bytes; lenient mode downgrades some rejects to warnings.

    Strict mode accepts exactly the canonical sidecars of valid records
    (an explicit ``access: 0`` aside).  Lenient mode additionally
    tolerates unknown keys, missing required keys and values that are
    not in canonical form, reporting each as a warning string, so
    imperfect files can still be inspected.
    """
    if mode not in (STRICT, LENIENT):
        raise ValueError(f"unknown parse mode: {mode!r}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarSyntaxError(0, f"not UTF-8: {exc}") from None

    layout = _LAYOUT.fullmatch(text)
    if layout is not None:
        values = [
            run[start:-1].split(sep) if run else ()
            for (start, sep), run in zip(_RUN_SPLIT, layout.groups())
        ]
        line_nos, warnings = None, []
    else:
        values, line_nos, warnings = _walk_lines(text, mode)

    # each row's values as the record gets them: texts split and unescaped
    # where they hold a "\\" or a "|", tokens as written, the other values
    # built by the row's rule, which uppercases a pair's system if need be
    args, recased = list(_ABSENT), False
    try:
        for pos, key, name, decoder, rule, many in _ROWS:
            found = values[pos]
            if not found:
                continue
            if decoder is TOKEN:
                found = tuple(found)
            elif decoder is TEXT:
                joined = "".join(found)
                if "\\" in joined or "|" in joined:
                    found = checked(name, found, lambda v: decode_fields(v, (1,), key)[0])
            elif decoder is HISTORY:
                found = checked(name, found, _parse_history_value)
            elif decoder is PAIR:
                systems = (v.partition("|")[0] for v in found)
                recased = recased or not all(map(SYSTEM_RE.fullmatch, systems))
                found = checked(name, found, lambda v: rule(*decode_fields(v, (2,), key)))
            elif decoder is SUBJECT:
                found = checked(name, found, lambda v: rule(*decode_fields(v, (1, 2), key)))
            else:
                found = checked(name, found, rule)
            args[pos] = found if many else found[0]
        record = UmsRecord(*args)
    except (InvariantViolation, InvalidTimestamp) as exc:
        try:
            UmsRecord(*args)  # a fault under an earlier key is named first
        except (InvariantViolation, InvalidTimestamp) as earlier:
            exc = earlier
        line_nos = line_nos or _line_numbers(values)
        line_no = line_nos[_POS_OF_FIELD[exc.field]][exc.index]
        raise SidecarSyntaxError(line_no, str(exc)) from None

    # NFC text decodes to NFC values, so the record then holds the values
    # it was given unless a rule changed their case; else find the lines
    if recased or not (
        unicodedata.is_normalized("NFC", text) and _HELD_TOKENS(record) == _GIVEN_TOKENS(args)
    ):
        line_nos = line_nos or _line_numbers(values)
        for row, found, nos, canonical, held in zip(
            FIELDS, values, line_nos, _CANONICAL, _HELD(record)
        ):
            for value, line_no, expected in zip(found, nos, canonical(held)):
                if value != expected:
                    message = f"{row.key} is not canonical, expected {expected!r}"
                    if mode == STRICT:
                        raise SidecarSyntaxError(line_no, message)
                    warnings.append(f"line {line_no}: {message}")
    return record, warnings


def parse_record(data: bytes, mode: str = STRICT) -> UmsRecord:
    """Parse sidecar bytes into a record (see parse_record_with_warnings)."""
    record, _ = parse_record_with_warnings(data, mode)
    return record
