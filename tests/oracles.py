"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive results the slow, obvious way and never
import the code paths they exist to check.
"""

from __future__ import annotations

import re
import unicodedata
from datetime import datetime


def isbn13_valid(candidate: str) -> bool:
    """Try all ten final digits; the candidate must carry the unique one
    that makes the weighted sum divisible by 10."""
    compact = candidate.replace("-", "").replace(" ", "")
    if len(compact) != 13 or not (compact.isascii() and compact.isdigit()):
        return False
    body = compact[:12]
    for check in "0123456789":
        total = 0
        for i, ch in enumerate(body + check):
            total += int(ch) * (3 if i % 2 else 1)
        if total % 10 == 0:
            return compact[12] == check
    return False


def isbn10_valid(candidate: str) -> bool:
    """Same idea with the mod-11 scheme and X standing for ten."""
    compact = candidate.replace("-", "").replace(" ", "")
    if len(compact) != 10:
        return False
    if not (compact[:9].isascii() and compact[:9].isdigit()):
        return False
    if not (compact[9] in "Xx" or (compact[9].isascii() and compact[9].isdigit())):
        return False
    for check in "0123456789X":
        total = 0
        for i, ch in enumerate(compact[:9] + check):
            value = 10 if ch == "X" else int(ch)
            total += (10 - i) * value
        if total % 11 == 0:
            return compact[9].upper() == check
    return False


def bucket_records(records, key_of):
    """Naive scan-and-bucket partition, groups and members sorted."""
    buckets = {}
    for record in records:
        buckets.setdefault(key_of(record), []).append(record)
    return [
        (key, sorted(buckets[key], key=lambda r: r.name)) for key in sorted(buckets)
    ]


def group_key(record, criterion: str) -> str:
    """Grouping keys restated from the rules, the long way."""
    if criterion == "alphabet":
        return record.name[0] if record.name else "~unknown"
    if criterion == "date":
        return record.date.split("-")[0] if record.date else "~undated"
    if criterion == "theme":
        return record.tags[0] if record.tags else "~untagged"
    if criterion == "project":
        project_tags = [t for t in record.tags if t.startswith("project:")]
        return project_tags[0][len("project:") :] if project_tags else "~unassigned"
    if criterion == "format":
        return record.formats[0] if record.formats else "~unknown"
    if criterion == "location":
        return record.locations[0] if record.locations else "~unknown"
    raise AssertionError(criterion)


def related_ranking(records, record):
    """Exhaustive pairwise Jaccard over tag sets."""
    mine = set(record.tags)
    scored = []
    for other in records:
        if other == record:
            continue
        theirs = set(other.tags)
        shared = mine & theirs
        if not shared:
            continue
        union = mine | theirs
        scored.append((other.name, len(shared) / len(union)))
    return sorted(scored, key=lambda item: (-item[1], item[0]))


def split_fields_reference(value: str) -> list[str]:
    """Split on unescaped ``|`` one character at a time; a backslash takes
    the next character with it, a final lone backslash stays as it is."""
    fields: list[str] = []
    current: list[str] = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch == "\\" and i + 1 < n:
            current.append(value[i : i + 2])
            i += 2
        elif ch == "|":
            fields.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    fields.append("".join(current))
    return fields


def unescape_reference(value: str) -> str:
    """Decode the three escapes one character at a time, failing on the
    first stray backslash."""
    out: list[str] = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch == "\\":
            if i + 1 >= n:
                raise ValueError("dangling backslash")
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            elif nxt == "|":
                out.append("|")
            else:
                raise ValueError(f"bad escape \\{nxt}")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


#: ``d`` marks a position that must hold an ASCII digit
_TIMESTAMP_SHAPES = {
    10: ("dddd-dd-dd", "%Y-%m-%d"),
    20: ("dddd-dd-ddTdd:dd:ddZ", "%Y-%m-%dT%H:%M:%SZ"),
}


def canonical_timestamp_reference(value: str) -> bool:
    """Check the shape position by position, then let ``strptime`` judge
    the calendar and the clock."""
    if len(value) not in _TIMESTAMP_SHAPES:
        return False
    shape, fmt = _TIMESTAMP_SHAPES[len(value)]
    for ch, want in zip(value, shape):
        if want == "d" and ch not in "0123456789":
            return False
        if want != "d" and ch != want:
            return False
    try:
        datetime.strptime(value, fmt)
    except ValueError:
        return False
    return True


def resolve_reference(catalog, query: str):
    """Scan every entry in order for an exact canonical or synonym hit;
    otherwise collect who-part matches sorted by canonical string.
    Returns ``(kind, entry, candidates)``."""
    query = unicodedata.normalize("NFC", query)
    for entry in catalog.entries:
        if entry.systematic_name.canonical == query or query in entry.synonyms:
            return ("exact", entry, ())
    candidates = [
        entry for entry in catalog.entries if query in entry.systematic_name.who
    ]
    if candidates:
        candidates.sort(key=lambda e: e.systematic_name.canonical)
        return ("candidates", None, tuple(candidates))
    return ("none", None, ())


class InconsistentReference(Exception):
    """Raised by :func:`reconstruct_original_reference` when no prefix
    replays; carries the blamed event's seq and the detail text."""

    def __init__(self, seq: int, detail: str):
        super().__init__(detail)
        self.seq = seq
        self.detail = detail


def _simulate(prefix: list, contributions: list) -> list:
    out = list(prefix)
    for _, value in contributions:
        if value not in out:
            out.append(value)
    return out


def reconstruct_original_reference(final: tuple, contributions: list) -> tuple:
    """Try every prefix of the final list as the original, replaying all
    contributions with list scans; the shortest that replays wins.  When
    none does, replay each prefix again step by step and blame the first
    diverging event of the prefix that survives the longest."""
    final_list = list(final)
    for split in range(len(final_list) + 1):
        if _simulate(final_list[:split], contributions) == final_list:
            return tuple(final_list[:split])

    # No split works: locate the first event whose contribution diverges,
    # using the split that survives the longest.
    best_seq = contributions[0][0] if contributions else 0
    best_ok = -1
    for split in range(len(final_list) + 1):
        state = final_list[:split]
        ok = 0
        fail_seq = None
        for seq, value in contributions:
            if value not in state:
                state.append(value)
            if state != final_list[: len(state)]:
                fail_seq = seq
                break
            ok += 1
        if fail_seq is None:
            fail_seq = contributions[-1][0] if contributions else 0
        if ok > best_ok:
            best_ok, best_seq = ok, fail_seq
    raise InconsistentReference(best_seq, "derived values do not match recorded events")


_FORMAT_TAG_RE = re.compile(r"[a-z0-9]+")
_DOC_TYPES = ("text", "image", "photo", "video", "sound")
_IDENTIFIER_TARGET_RE = re.compile(r"identifier:([A-Z0-9]+)")


def map_raw_to_ums_reference(raw, table, source=None):
    """The mapping as it stood before it shaped values with the record's
    own rules: one branch per target, each restating its rule, and list
    targets deduplicated on the raw value, so values equal only after
    NFC reach the record twice and it raises ``InvariantViolation``.
    Builds the same ``(record, unmapped)`` wherever it returns."""
    from ums.errors import InvalidTimestamp, InvariantViolation, MappingError
    from ums.extractors import base_key
    from ums.languages import is_language_code
    from ums.model import IdentifierBinding, Subject, UmsRecord
    from ums.timestamps import normalize

    rules = tuple(r for r in table.rules if r.carrier == raw.carrier)
    if not rules:
        raise MappingError(f"mapping table has no rules for carrier {raw.carrier!r}")
    singles, creators, formats, locations = {}, [], [], []
    languages, tags, subjects, identifiers, unmapped = [], [], [], [], []
    for key, value in raw.pairs:
        rule = next((r for r in rules if r.key == base_key(key)), None)
        if rule is None or value == "":
            unmapped.append((key, value))
            continue
        target = rule.target
        mapped = False
        if target in ("name", "date", "type", "summary", "access"):
            if target not in singles:
                shaped = value
                if target == "date":
                    try:
                        shaped = normalize(value)
                    except InvalidTimestamp:
                        shaped = None
                elif target == "type":
                    shaped = value if value in _DOC_TYPES else None
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
                if base_key(key) == "MIMEType" and "/" in value:
                    candidate = value.rsplit("/", 1)[1].lower()
                else:
                    candidate = value.lower()
                ok = _FORMAT_TAG_RE.fullmatch(candidate)
                formats.append(candidate if ok else raw.carrier)
                mapped = True
        elif target in ("location", "tag", "subject"):
            bucket = {"location": locations, "tag": tags, "subject": subjects}[target]
            if value not in bucket:
                bucket.append(value)
            mapped = True
        elif target == "language":
            code = value.lower()
            if is_language_code(code):
                if code not in languages:
                    languages.append(code)
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
