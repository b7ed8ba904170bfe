"""Deterministic mapping of raw carrier pairs into record fields.

Tables are data: a built-in default plus a loadable file format.  The
first matching rule wins, singleton fields fill once, and everything
that did not land in a field comes back for audit, so no input pair is
ever silently dropped.  Each value is shaped by the rule the record
itself applies to its field.
"""

from __future__ import annotations

import re
from functools import partial

from .. import timestamps
from ..errors import InvalidTimestamp, InvariantViolation, MappingError, RuleConflict
from ..model import (
    SINGLETON_KEYS,
    SYSTEM_RE,
    IdentifierBinding,
    Subject,
    UmsRecord,
    Value,
    access_level,
    document_type,
    format_tag,
    language_code,
    nfc,
    set_slot,
)
from . import RawMetadata, base_key

MAPPING_HEADER = "ums-mapping: 1"

#: mapping target -> the record field it fills and the model's rule for
#: one carrier value (``identifier:<SYSTEM>`` targets fill identifiers)
_TARGETS = {
    "name": ("name", nfc),
    "format": ("formats", format_tag),
    "date": ("date", timestamps.normalize),
    "type": ("doc_type", document_type),
    "summary": ("summary", nfc),
    "language": ("languages", language_code),
    "location": ("locations", nfc),
    "creator": ("creators", nfc),
    "access": ("access", access_level),
    "subject": ("subjects", Subject),
    "tag": ("tags", nfc),
}
#: targets that take only their first value; the others take each
#: distinct value
_FIRST_ONLY = SINGLETON_KEYS | {"format", "creator"}
_SINGLE_VALUED = frozenset(_TARGETS[key][0] for key in SINGLETON_KEYS)
_RULE_LINE_RE = re.compile(r"(\w+)\.(.+?) -> (\S+)")


class MappingRule(Value):
    __slots__ = _fields = ("carrier", "key", "target")

    def __init__(self, carrier: str, key: str, target: str):
        set_slot(self, "carrier", carrier)
        set_slot(self, "key", key)
        set_slot(self, "target", target)


def _slot(target: str) -> tuple:
    """The record field *target* fills, the rule its values pass, and
    whether only the first value counts; raise for an unknown target."""
    if target in _TARGETS:
        record_field, shape = _TARGETS[target]
        return record_field, shape, target in _FIRST_ONLY
    prefix, _, system = target.partition(":")
    if prefix != "identifier" or not SYSTEM_RE.fullmatch(system):
        raise MappingError(f"unknown mapping target: {target!r}")
    return "identifiers", partial(IdentifierBinding, system), False


class MappingTable(Value):
    _fields = ("rules",)
    #: ``_slots``: carrier -> raw key -> the slot of the first rule for that key
    __slots__ = _fields + ("_slots",)

    def __init__(self, rules: tuple[MappingRule, ...]):
        set_slot(self, "rules", rules)
        filled: set[tuple[str, str]] = set()
        slots: dict[str, dict[str, tuple]] = {}
        for rule in rules:
            slot = _slot(rule.target)
            if rule.target in SINGLETON_KEYS:
                filling = (rule.carrier, rule.target)
                if filling in filled:
                    raise RuleConflict(
                        f"two rules target {rule.target} for carrier {rule.carrier}"
                    )
                filled.add(filling)
            slots.setdefault(rule.carrier, {}).setdefault(rule.key, slot)
        set_slot(self, "_slots", slots)


DEFAULT_MAPPING = MappingTable(
    rules=(
        MappingRule("pdf", "Title", "name"),
        MappingRule("pdf", "Author", "creator"),
        MappingRule("pdf", "Creator", "creator"),
        MappingRule("pdf", "CreateDate", "date"),
        MappingRule("html", "Title", "name"),
        MappingRule("html", "author", "creator"),
        MappingRule("html", "Author", "creator"),
        MappingRule("html", "ncbi_uidlist", "identifier:PMID"),
    )
)


def load_mapping(data: bytes) -> MappingTable:
    """Parse a mapping table file (``carrier.RawKey -> field`` lines)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MappingError(f"mapping table not UTF-8: {exc}") from None
    # only a line feed ends a line; one carriage return before it is dropped
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[0] != MAPPING_HEADER:
        raise MappingError(f"expected header {MAPPING_HEADER!r}")
    rules = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        m = _RULE_LINE_RE.fullmatch(line)
        if not m:
            raise MappingError(f"line {line_no}: expected 'carrier.Key -> field'")
        rules.append(MappingRule(carrier=m.group(1), key=m.group(2), target=m.group(3)))
    return MappingTable(rules=tuple(rules))


def map_raw_to_ums(
    raw: RawMetadata, table: MappingTable = DEFAULT_MAPPING
) -> tuple[UmsRecord, tuple[tuple[str, str], ...]]:
    """Map raw pairs into a partial record; unmapped pairs come back.

    Pairs are processed in extraction order; the first rule matching a
    pair's base key applies.  A pair whose target is already filled, whose
    value is empty, or whose value the target's rule rejects (a date in no
    accepted form, say), goes to the unmapped list instead of being
    guessed at.  A value equal to one already mapped after that rule has
    shaped it is mapped once.  A record with no mapped format takes the
    carrier's name as its format, if that name is a format tag.
    """
    slots = table._slots.get(raw.carrier)
    if not slots:
        raise MappingError(f"mapping table has no rules for carrier {raw.carrier!r}")

    values: dict[str, list] = {}
    unmapped: list[tuple[str, str]] = []
    for key, value in raw.pairs:
        slot = slots.get(base_key(key))
        if slot is not None and value != "":
            record_field, rule, first_only = slot
            got = values.setdefault(record_field, [])
            if not (first_only and got):
                try:
                    shaped = rule(value)
                except (InvariantViolation, InvalidTimestamp):
                    pass
                else:
                    if shaped not in got:
                        got.append(shaped)
                    continue
        unmapped.append((key, value))

    if raw.pairs and not values.get("formats"):
        try:
            values["formats"] = [format_tag(raw.carrier)]
        except InvariantViolation:
            pass

    record = UmsRecord(
        **{
            record_field: got[0] if record_field in _SINGLE_VALUED else tuple(got)
            for record_field, got in values.items()
            if got
        }
    )
    return record, tuple(unmapped)
