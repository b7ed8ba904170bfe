"""Deterministic mapping of raw carrier pairs into record fields.

Tables are data: a built-in default plus a loadable file format.  The
first matching rule wins, singleton fields fill once, and everything
that did not land in a field comes back for audit, so no input pair is
ever silently dropped.  A target is a key of :data:`ums.model.FIELDS`,
and each value is shaped by that row's rule, the rule the record itself
applies to its field; only a carrier date may come in any accepted form.
"""

from __future__ import annotations

import re
from functools import partial

from .. import timestamps
from ..errors import InvalidTimestamp, InvariantViolation, MappingError, RuleConflict
from ..model import FIELDS, FIRST, MANY, PAIR, SYSTEM_RE, Field, UmsRecord, Value, set_slot
from . import RawMetadata, base_key

MAPPING_HEADER = "ums-mapping: 1"

#: the rows a mapping target may name: key -> row; a pair's target is
#: ``<key>:<SYSTEM>`` (``identifier:PMID``)
_TARGETS = {row.key: row for row in FIELDS if row.mapped is not None}
#: the one carrier rule that differs from the record's own: a carrier
#: date may be in any accepted form, and is made canonical
_CARRIER_RULES = {"date": timestamps.normalize}
_RULE_LINE_RE = re.compile(r"(\w+)\.(.+?) -> (\S+)")


class MappingRule(Value):
    __slots__ = _fields = ("carrier", "key", "target")


def _slot(target: str) -> tuple[Field, object]:
    """The row *target* fills and the rule its values pass; raise for an
    unknown target."""
    key, colon, system = target.partition(":")
    row = _TARGETS.get(key)
    if row is not None and row.decoder is PAIR:
        if SYSTEM_RE.fullmatch(system):
            return row, partial(row.rule, system)
    elif row is not None and not colon:
        return row, _CARRIER_RULES.get(key, row.rule)
    raise MappingError(f"unknown mapping target: {target!r}")


class MappingTable(Value):
    _fields = ("rules",)
    #: ``_slots``: carrier -> raw key -> the slot of the first rule for that key
    __slots__ = _fields + ("_slots",)

    def __post_init__(self, values: tuple) -> None:
        super().__post_init__(values)
        filled: set[tuple[str, str]] = set()
        slots: dict[str, dict[str, tuple]] = {}
        for rule in self.rules:
            slot = _slot(rule.target)
            if slot[0].count not in MANY:
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

    values: dict[Field, list] = {}
    unmapped: list[tuple[str, str]] = []
    for key, value in raw.pairs:
        slot = slots.get(base_key(key))
        if slot is not None and value != "":
            row, rule = slot
            got = values.setdefault(row, [])
            if not (got and row.mapped is FIRST):
                try:
                    shaped = rule(value)
                except (InvariantViolation, InvalidTimestamp):
                    pass
                else:
                    if shaped not in got:
                        got.append(shaped)
                    continue
        unmapped.append((key, value))

    formats = _TARGETS["format"]
    if raw.pairs and not values.get(formats):
        try:
            values[formats] = [formats.rule(raw.carrier)]
        except InvariantViolation:
            pass

    record = UmsRecord(
        **{row.name: tuple(got) if row.count in MANY else got[0] for row, got in values.items() if got}
    )
    return record, tuple(unmapped)
