"""Deterministic mapping of raw carrier pairs into record fields.

Tables are data: a built-in default plus a loadable file format.  The
first matching rule wins, singleton fields fill once, and everything
that did not land in a field comes back for audit, so no input pair is
ever silently dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .. import timestamps
from ..errors import InvalidTimestamp, InvariantViolation, MappingError, RuleConflict
from ..languages import is_language_code
from ..model import DOC_TYPES, FORMAT_RE, IdentifierBinding, Subject, UmsRecord
from . import RawMetadata, base_key

MAPPING_HEADER = "ums-mapping: 1"

_SINGLETON_TARGETS = frozenset({"name", "date", "type", "summary", "access"})
#: list targets that accept only their first contribution
_ONE_SHOT_TARGETS = frozenset({"format", "creator"})
_PLAIN_TARGETS = _SINGLETON_TARGETS | _ONE_SHOT_TARGETS | {
    "location",
    "language",
    "tag",
    "subject",
}
_IDENTIFIER_TARGET_RE = re.compile(r"identifier:([A-Z0-9]+)")
_RULE_LINE_RE = re.compile(r"(\w+)\.(.+?) -> (\S+)")


@dataclass(frozen=True)
class MappingRule:
    carrier: str
    key: str
    target: str


@dataclass(frozen=True)
class MappingTable:
    rules: tuple[MappingRule, ...]

    def __post_init__(self):
        filled: set[tuple[str, str]] = set()
        for rule in self.rules:
            if rule.target not in _PLAIN_TARGETS and not _IDENTIFIER_TARGET_RE.fullmatch(
                rule.target
            ):
                raise MappingError(f"unknown mapping target: {rule.target!r}")
            if rule.target in _SINGLETON_TARGETS:
                slot = (rule.carrier, rule.target)
                if slot in filled:
                    raise RuleConflict(
                        f"two rules target {rule.target} for carrier {rule.carrier}"
                    )
                filled.add(slot)

    def rules_for(self, carrier: str) -> tuple[MappingRule, ...]:
        return tuple(r for r in self.rules if r.carrier == carrier)


DEFAULT_MAPPING = MappingTable(
    rules=(
        MappingRule("pdf", "Title", "name"),
        MappingRule("pdf", "Author", "creator"),
        MappingRule("pdf", "Creator", "creator"),
        MappingRule("pdf", "CreateDate", "date"),
        MappingRule("pdf", "FileType", "format"),
        MappingRule("pdf", "MIMEType", "format"),
        MappingRule("pdf", "PDFVersion", "format"),
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
    lines = text.splitlines()
    if not lines or lines[0] != MAPPING_HEADER:
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


def _normalize_mapped_date(value: str) -> Optional[str]:
    try:
        return timestamps.normalize(value)
    except InvalidTimestamp:
        return None


def _format_token(key: str, value: str, carrier: str) -> str:
    if key == "MIMEType" and "/" in value:
        candidate = value.rsplit("/", 1)[1].lower()
    else:
        candidate = value.lower()
    if FORMAT_RE.fullmatch(candidate):
        return candidate
    return carrier


def map_raw_to_ums(
    raw: RawMetadata,
    table: MappingTable = DEFAULT_MAPPING,
    source: Optional[str] = None,
) -> tuple[UmsRecord, tuple[tuple[str, str], ...]]:
    """Map raw pairs into a partial record; unmapped pairs come back.

    Pairs are processed in extraction order; the first rule matching a
    pair's base key applies.  A pair whose target is already filled, whose
    value is empty, or whose value cannot be shaped for the target (a date
    in no accepted form, say), goes to the unmapped list instead of being
    guessed at.
    """
    rules = table.rules_for(raw.carrier)
    if not rules:
        raise MappingError(f"mapping table has no rules for carrier {raw.carrier!r}")

    singles: dict[str, str] = {}
    creators: list[str] = []
    formats: list[str] = []
    locations: list[str] = []
    languages: list[str] = []
    tags: list[str] = []
    subjects: list[str] = []
    identifiers: list[IdentifierBinding] = []
    unmapped: list[tuple[str, str]] = []

    def rule_for(key: str) -> Optional[MappingRule]:
        for rule in rules:
            if rule.key == key:
                return rule
        return None

    for key, value in raw.pairs:
        rule = rule_for(base_key(key))
        if rule is None or value == "":
            unmapped.append((key, value))
            continue
        target = rule.target
        mapped = False
        if target in _SINGLETON_TARGETS:
            if target not in singles:
                shaped = value
                if target == "date":
                    shaped = _normalize_mapped_date(value)
                elif target == "type":
                    shaped = value if value in DOC_TYPES else None
                elif target == "access":
                    shaped = value if value in ("0", "1", "2", "3") else None
                if shaped is not None:
                    singles[target] = shaped
                    mapped = True
        elif target == "creator":
            if not creators:
                creators.append(value)
                mapped = True
        elif target == "format":
            if not formats:
                formats.append(_format_token(base_key(key), value, raw.carrier))
                mapped = True
        elif target == "location":
            if value not in locations:
                locations.append(value)
            mapped = True
        elif target == "language":
            code = value.lower()
            if is_language_code(code):
                if code not in languages:
                    languages.append(code)
                mapped = True
        elif target == "tag":
            if value not in tags:
                tags.append(value)
            mapped = True
        elif target == "subject":
            if value not in subjects:
                subjects.append(value)
            mapped = True
        else:
            system = _IDENTIFIER_TARGET_RE.fullmatch(target).group(1)
            try:
                binding = IdentifierBinding(system=system, id=value)
            except InvariantViolation:
                binding = None
            if binding is not None:
                if binding not in identifiers:
                    identifiers.append(binding)
                mapped = True
        if not mapped:
            unmapped.append((key, value))

    if not formats and raw.pairs:
        formats.append(raw.carrier)
    if source is not None and source not in locations:
        locations.insert(0, source)

    record = UmsRecord(
        name=singles.get("name", ""),
        formats=tuple(formats),
        date=singles.get("date"),
        doc_type=singles.get("type"),
        summary=singles.get("summary"),
        languages=tuple(languages),
        locations=tuple(locations),
        creators=tuple(creators),
        identifiers=tuple(identifiers),
        access=int(singles.get("access", "0")),
        subjects=tuple(Subject(text=s) for s in subjects),
        tags=tuple(tags),
    )
    return record, tuple(unmapped)
