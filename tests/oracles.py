"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive results the slow, obvious way and never
import the code paths they exist to check.
"""

from __future__ import annotations

import re
import unicodedata
from datetime import datetime
from html import unescape
from html.entities import html5
from html.parser import HTMLParser, attrfind_tolerant, tagfind_tolerant
from typing import Optional, Union

from ums.errors import (
    DuplicateSingletonKey,
    InvalidTimestamp,
    InvariantViolation,
    NotPdf,
    NotSupported,
    SidecarSyntaxError,
    UnknownKey,
)
from ums.extractors import CARRIER_HTML, CARRIER_PDF, PairBuilder, RawMetadata
from ums.model import (
    ACCESS_PUBLIC,
    STRICT,
    IdentifierBinding,
    ProvenanceEvent,
    Subject,
    UmsRecord,
    access_level,
    document_type,
    format_tag,
    language_code,
)
from ums.timestamps import display, ensure_canonical


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


_URN_NID_REFERENCE_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9-]{0,31}")
_URN_NSS_CHAR_REFERENCE_RE = re.compile(r"[A-Za-z0-9()+,\-.:=@;$_!*']")


def check_urn_reference(value: str) -> tuple[bool, Optional[str]]:
    """RFC 2141 lexical shape, read one NSS character or ``%`` escape at a
    time: the loop the compiled NSS pattern replaced, kept verbatim.
    Returns ``(valid, reason)``."""
    parts = value.split(":", 2)
    if len(parts) != 3 or parts[0].lower() != "urn":
        return False, "BadSyntax"
    nid, nss = parts[1], parts[2]
    if not _URN_NID_REFERENCE_RE.fullmatch(nid) or nid.lower() == "urn":
        return False, "BadSyntax"
    if not nss:
        return False, "BadSyntax"
    i = 0
    while i < len(nss):
        ch = nss[i]
        if ch == "%":
            if not re.match(r"%[0-9A-Fa-f]{2}", nss[i:]):
                return False, "BadSyntax"
            i += 3
        elif _URN_NSS_CHAR_REFERENCE_RE.match(ch):
            i += 1
        else:
            return False, "BadSyntax"
    return True, None


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


_ISO_REFERENCE_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:\d{2})?", re.ASCII
)
_PDF_DATE_REFERENCE_RE = re.compile(
    r"D:(\d{4})(\d{2})?(\d{2})?(\d{2})?(\d{2})?(\d{2})?"
    r"(Z|[+-]\d{2}(?:'\d{2}'?)?)?",
    re.ASCII,
)


def display_reference(value: str) -> Optional[str]:
    """The display form of a carrier date: try the PDF pattern, then the
    ISO one, whatever the value starts with."""
    m = _PDF_DATE_REFERENCE_RE.fullmatch(value) or _ISO_REFERENCE_RE.fullmatch(value)
    if m is None:
        return None
    y, mo, d, h, mi, s, tz = m.groups()
    if tz and tz != "Z":
        tz = f"{tz[:3]}:{tz[4:6] or '00'}"
    day = f"{y}:{mo or '01'}:{d or '01'}"
    return f"{day} {h or '00'}:{mi or '00'}:{s or '00'}{tz or ''}"


def resolve_reference(catalog, query: str):
    """Scan every entry in order for an exact hit on the NFC form of its
    canonical string or on a synonym.  Returns ``(kind, entry)``."""
    query = unicodedata.normalize("NFC", query)
    for entry in catalog.entries:
        canonical = unicodedata.normalize("NFC", entry.systematic_name.canonical)
        if canonical == query or query in entry.synonyms:
            return ("exact", entry)
    return ("none", None)


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


def map_raw_to_ums_reference(raw, table):
    """The mapping as it stood before it shaped values with the record's
    own rules: one branch per target, each restating its rule, and list
    targets deduplicated on the raw value, so values equal only after
    NFC reach the record twice and it raises ``InvariantViolation``.
    A format value that is no format tag is unmapped, and only a record
    with no mapped format takes the carrier's name as its format.
    Builds the same ``(record, unmapped)`` wherever it returns."""
    from ums.errors import InvalidTimestamp, InvariantViolation, MappingError
    from ums.extractors import base_key
    from ums.languages import LANGUAGE_CODES
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
            if not formats and _FORMAT_TAG_RE.fullmatch(value.lower()):
                formats.append(value.lower())
                mapped = True
        elif target in ("location", "tag", "subject"):
            bucket = {"location": locations, "tag": tags, "subject": subjects}[target]
            if value not in bucket:
                bucket.append(value)
            mapped = True
        elif target == "language":
            code = value.lower()
            if code in LANGUAGE_CODES:
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


# PDF extraction with a per-byte cursor: the object, string and xref
# readers that compiled-token scanning replaced, kept verbatim as the
# reference ``ums.extractors.pdf`` is compared against.  One behaviour
# differs on purpose: an xref offset that holds neither ``xref`` nor an
# object raises NotSupported here, where the toolkit records an error.

_WHITESPACE = b"\x00\t\n\x0c\r "
_DELIMITERS = b"()<>[]{}/%"

_HEADER_RE = re.compile(rb"^%PDF-(\d+\.\d+)")
_STARTXREF_RE = re.compile(rb"startxref\s+(\d+)", re.S)
_PAGE_TYPE_RE = re.compile(rb"/Type\s*/Page(?![a-zA-Z])")

#: Info dictionary keys renamed for display
_INFO_KEY_NAMES = {"CreationDate": "CreateDate", "ModDate": "ModifyDate"}


class _Name(str):
    """A PDF name object (the token after ``/``)."""


class _Ref:
    __slots__ = ("num", "gen")

    def __init__(self, num: int, gen: int):
        self.num = num
        self.gen = gen


class _ParseError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class _Cursor:
    __slots__ = ("data", "pos", "depth")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos
        self.depth = 0  # arrays and dictionaries open at pos

    def peek(self) -> int:
        if self.pos >= len(self.data):
            raise _ParseError(self.pos, "unexpected end of data")
        return self.data[self.pos]

    def at(self, token: bytes) -> bool:
        return self.data.startswith(token, self.pos)

    def skip_ws(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            b = data[self.pos]
            if b in _WHITESPACE:
                self.pos += 1
            elif b == 0x25:  # '%' comment to end of line
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                break


def _parse_name(cur: _Cursor) -> _Name:
    cur.pos += 1  # consume '/'
    start = cur.pos
    data, n = cur.data, len(cur.data)
    while cur.pos < n and data[cur.pos] not in _WHITESPACE and data[cur.pos] not in _DELIMITERS:
        cur.pos += 1
    raw = data[start : cur.pos]
    # #xx hex escapes inside names
    def _unhex(m: "re.Match[bytes]") -> bytes:
        return bytes([int(m.group(1), 16)])

    raw = re.sub(rb"#([0-9A-Fa-f]{2})", _unhex, raw)
    return _Name(raw.decode("latin-1"))


def _parse_literal_string(cur: _Cursor) -> bytes:
    cur.pos += 1  # consume '('
    out = bytearray()
    depth = 1
    data, n = cur.data, len(cur.data)
    while cur.pos < n:
        b = data[cur.pos]
        if b == 0x5C:  # backslash
            cur.pos += 1
            if cur.pos >= n:
                break
            esc = data[cur.pos]
            mapping = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}
            if esc in mapping:
                out.append(mapping[esc])
                cur.pos += 1
            elif esc in b"()\\":
                out.append(esc)
                cur.pos += 1
            elif esc in b"\r\n":  # line continuation
                cur.pos += 1
                if esc == 0x0D and cur.pos < n and data[cur.pos] == 0x0A:
                    cur.pos += 1
            elif 0x30 <= esc <= 0x37:  # up to three octal digits
                digits = bytearray()
                while len(digits) < 3 and cur.pos < n and 0x30 <= data[cur.pos] <= 0x37:
                    digits.append(data[cur.pos])
                    cur.pos += 1
                out.append(int(digits.decode(), 8) & 0xFF)
            else:
                out.append(esc)
                cur.pos += 1
        elif b == 0x28:  # '('
            depth += 1
            out.append(b)
            cur.pos += 1
        elif b == 0x29:  # ')'
            depth -= 1
            cur.pos += 1
            if depth == 0:
                return bytes(out)
            out.append(b)
        else:
            out.append(b)
            cur.pos += 1
    raise _ParseError(cur.pos, "unterminated string")


def _parse_hex_string(cur: _Cursor) -> bytes:
    cur.pos += 1  # consume '<'
    end = cur.data.find(b">", cur.pos)
    if end < 0:
        raise _ParseError(cur.pos, "unterminated hex string")
    digits = bytes(c for c in cur.data[cur.pos : end] if c not in _WHITESPACE)
    cur.pos = end + 1
    if len(digits) % 2:
        digits += b"0"
    try:
        return bytes.fromhex(digits.decode("latin-1"))
    except ValueError:
        raise _ParseError(cur.pos, "bad hex string") from None


_NUMBER_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")
_REF_AHEAD_RE = re.compile(rb"\s+(\d+)\s+R(?![a-zA-Z])")


def _parse_number_or_ref(cur: _Cursor) -> Union[int, float, _Ref]:
    m = _NUMBER_RE.match(cur.data, cur.pos)
    if not m:
        raise _ParseError(cur.pos, "expected a number")
    text = m.group(0)
    cur.pos = m.end()
    if b"." in text:
        return float(text)
    value = int(text)
    ahead = _REF_AHEAD_RE.match(cur.data, cur.pos)
    if ahead and value >= 0:
        cur.pos = ahead.end()
        return _Ref(value, int(ahead.group(1)))
    return value


#: deepest nesting of arrays and dictionaries accepted; deeper input is a
#: parse error rather than a RecursionError
_MAX_NESTING = 100


def _open_container(cur: _Cursor, width: int) -> None:
    cur.pos += width
    cur.depth += 1
    if cur.depth > _MAX_NESTING:
        raise _ParseError(cur.pos, f"arrays or dictionaries nested over {_MAX_NESTING} deep")


def _parse_value(cur: _Cursor):
    cur.skip_ws()
    b = cur.peek()
    if cur.at(b"<<"):
        _open_container(cur, 2)
        out: dict[str, object] = {}
        while True:
            cur.skip_ws()
            if cur.at(b">>"):
                cur.pos += 2
                cur.depth -= 1
                return out
            if cur.peek() != 0x2F:
                raise _ParseError(cur.pos, "expected /name key in dictionary")
            key = _parse_name(cur)
            out[str(key)] = _parse_value(cur)
    if b == 0x5B:  # '['
        _open_container(cur, 1)
        items = []
        while True:
            cur.skip_ws()
            if cur.peek() == 0x5D:
                cur.pos += 1
                cur.depth -= 1
                return items
            items.append(_parse_value(cur))
    if b == 0x28:  # '('
        return _parse_literal_string(cur)
    if cur.at(b"<"):
        return _parse_hex_string(cur)
    if b == 0x2F:  # '/'
        return _parse_name(cur)
    if cur.at(b"true"):
        cur.pos += 4
        return True
    if cur.at(b"false"):
        cur.pos += 5
        return False
    if cur.at(b"null"):
        cur.pos += 4
        return None
    return _parse_number_or_ref(cur)


def _parse_indirect_object(data: bytes, offset: int):
    cur = _Cursor(data, offset)
    cur.skip_ws()
    m = re.compile(rb"(\d+)\s+(\d+)\s+obj").match(data, cur.pos)
    if not m:
        raise _ParseError(offset, "expected 'N G obj'")
    cur.pos = m.end()
    return _parse_value(cur)


def _decode_text(raw: bytes) -> str:
    if raw.startswith(b"\xfe\xff"):
        return raw[2:].decode("utf-16-be", errors="replace")
    return raw.decode("latin-1")


def _parse_xref_tables(data: bytes):
    """Follow the startxref/Prev chain; newest entries win.

    Returns (offsets by object number, merged trailer dict).
    """
    matches = list(_STARTXREF_RE.finditer(data))
    if not matches:
        raise _ParseError(len(data), "no startxref")
    offset: Optional[int] = int(matches[-1].group(1))

    offsets: dict[int, int] = {}
    trailer: dict[str, object] = {}
    seen_tables = set()
    while offset is not None and offset not in seen_tables:
        seen_tables.add(offset)
        cur = _Cursor(data, offset)
        cur.skip_ws()
        if not cur.at(b"xref"):
            raise NotSupported(
                "cross-reference streams are not supported (classic tables only)"
            )
        cur.pos += 4
        while True:
            cur.skip_ws()
            section = re.compile(rb"(\d+)\s+(\d+)").match(data, cur.pos)
            if not section:
                break
            first, count = int(section.group(1)), int(section.group(2))
            cur.pos = section.end()
            cur.skip_ws()
            entry_re = re.compile(rb"(\d{10})\s(\d{5})\s([nf])\s{0,2}")
            for i in range(count):
                entry = entry_re.match(data, cur.pos)
                if not entry:
                    raise _ParseError(cur.pos, "malformed xref entry")
                cur.pos = entry.end()
                if entry.group(3) == b"n" and (first + i) not in offsets:
                    offsets[first + i] = int(entry.group(1))
        cur.skip_ws()
        if not cur.at(b"trailer"):
            raise _ParseError(cur.pos, "expected trailer")
        cur.pos += len(b"trailer")
        t = _parse_value(cur)
        if not isinstance(t, dict):
            raise _ParseError(cur.pos, "trailer is not a dictionary")
        for key, value in t.items():
            trailer.setdefault(key, value)
        prev = t.get("Prev")
        offset = int(prev) if isinstance(prev, (int, float)) else None
    return offsets, trailer


def _resolve(value, offsets: dict[int, int], data: bytes, errors: list[str]):
    if isinstance(value, _Ref):
        pos = offsets.get(value.num)
        if pos is None:
            errors.append(f"offset unknown for object {value.num}")
            return None
        try:
            return _parse_indirect_object(data, pos)
        except _ParseError as exc:
            errors.append(str(exc))
            return None
    return value


def _extract_xmp(data: bytes, builder: PairBuilder) -> None:
    packet = re.search(rb"<x:xmpmeta.*?</x:xmpmeta>", data, re.S)
    if packet is None:
        packet = re.search(rb"<\?xpacket begin.*?<\?xpacket end[^>]*>", data, re.S)
    if packet is None:
        return
    xmp = packet.group(0).decode("utf-8", errors="replace")

    def simple(prop: str) -> Optional[str]:
        m = re.search(rf"<{prop}>(.*?)</{prop}>", xmp, re.S)
        if m:
            return m.group(1).strip()
        m = re.search(rf'{prop}="([^"]*)"', xmp)
        return m.group(1) if m else None

    creator_tool = simple("xmp:CreatorTool")
    if creator_tool:
        builder.add("CreatorTool", creator_tool)
    metadata_date = simple("xmp:MetadataDate")
    if metadata_date:
        builder.add("MetadataDate", display(metadata_date) or metadata_date)
    document_id = simple("xmpMM:DocumentID")
    if document_id:
        builder.add("DocumentID", document_id)
    whens = re.findall(r'stEvt:when="([^"]*)"', xmp)
    whens += re.findall(r"<stEvt:when>(.*?)</stEvt:when>", xmp, re.S)
    if whens:
        shown = [display(w.strip()) or w.strip() for w in whens]
        builder.add("HistoryWhen", ", ".join(shown))


def extract_pdf_info_reference(data: bytes) -> RawMetadata:
    """Pull header, Info, page count and XMP pairs out of PDF bytes.

    Best-effort: structural problems are recorded in ``errors`` and
    whatever was recovered is still returned.  Raises NotPdf when the
    header is missing and NotSupported for xref streams or encryption.
    """
    header = _HEADER_RE.match(data)
    if not header:
        raise NotPdf("input does not start with %PDF-")
    version = header.group(1).decode("ascii")

    builder = PairBuilder()
    errors: list[str] = []
    builder.add("PDFVersion", version)

    offsets: dict[int, int] = {}
    trailer: dict[str, object] = {}
    try:
        offsets, trailer = _parse_xref_tables(data)
    except _ParseError as exc:
        errors.append(str(exc))

    if "Encrypt" in trailer:
        raise NotSupported("encrypted files are not supported")

    info = _resolve(trailer.get("Info"), offsets, data, errors)
    if isinstance(info, dict):
        for key, value in info.items():
            value = _resolve(value, offsets, data, errors)
            if isinstance(value, bytes):
                text = _decode_text(value)
            elif isinstance(value, (_Name, str)):
                text = str(value)
            elif isinstance(value, (int, float)):
                text = str(value)
            elif isinstance(value, list):
                errors.append(f"Info /{key}: array not extracted")
                continue
            elif isinstance(value, dict):
                errors.append(f"Info /{key}: dictionary not extracted")
                continue
            else:  # null is an absent entry; an unresolved reference is in errors
                continue
            builder.add(_INFO_KEY_NAMES.get(key, key), display(text) or text)

    catalog = _resolve(trailer.get("Root"), offsets, data, errors)
    page_count: Optional[int] = None
    if isinstance(catalog, dict):
        cat_version = catalog.get("Version")
        if isinstance(cat_version, (_Name, str)):
            builder.add("PDFVersion", str(cat_version))
        pages = _resolve(catalog.get("Pages"), offsets, data, errors)
        if isinstance(pages, dict) and isinstance(pages.get("Count"), int):
            page_count = int(pages["Count"])  # type: ignore[arg-type]
    if page_count is None:
        page_count = len(_PAGE_TYPE_RE.findall(data))
    builder.add("PageCount", str(page_count))

    builder.add("FileType(guessed)", f"PDF document, version {version}")
    builder.add("FileType", "PDF")
    builder.add("MIMEType", "application/pdf")
    builder.add("FileSize", str(len(data)))

    _extract_xmp(data, builder)

    return RawMetadata(
        carrier=CARRIER_PDF,
        pairs=builder.pairs(),
        errors=tuple(errors),
    )


# HTML extraction with the standard library's HTMLParser: the scanner and
# extraction loop that the one-pass scan replaced, kept as the reference
# ``ums.extractors.html`` is compared against on well-formed pages; a meta
# tag's attributes are re-read from the tag's text and unescaped by
# HTML5's attribute rule, which HTMLParser applies only from CPython
# 3.13.13 on.  Malformed markup differs on purpose: here a title holds
# parsed markup and an unterminated construct is read on as text, and how
# HTMLParser does either changes between Python releases.


def _attribute_value_reference(value: str) -> str:
    """An attribute value unescaped by HTML5's attribute rule: a named
    reference without ";" stays as written when "=" or an ASCII letter or
    digit follows it; every other reference reads as html.unescape reads
    it."""
    out, start = [], 0
    for at in [i for i, c in enumerate(value) if c == "&"]:
        name = max((n for n in html5 if value.startswith(n, at + 1)), key=len, default="")
        follows = value[at + 1 + len(name) : at + 2 + len(name)]
        if name and not name.endswith(";") and (
            follows == "=" or follows.isascii() and follows.isalnum()
        ):
            out += [unescape(value[start:at]), value[at : at + 1 + len(name)]]
            start = at + 1 + len(name)
    out.append(unescape(value[start:]))
    return "".join(out)


class _MetaScanner(HTMLParser):
    """Tolerant scanner; collects pairs in document order, never raises."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.events: list[tuple[str, str]] = []
        self._title_depth = 0
        self._title_chunks: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "title":
            self._title_depth += 1
            return
        if tag == "meta":
            found = {}
            for attr_name, attr_value in self._raw_attributes():
                if attr_name in ("name", "content") and attr_name not in found:
                    found[attr_name] = _attribute_value_reference(attr_value or "")
            if "name" in found and "content" in found and found["name"]:
                self.events.append((found["name"], found["content"]))

    def _raw_attributes(self):
        """The attributes of the start tag just read, found as
        ``parse_starttag`` finds them but with their values still escaped."""
        text = self.get_starttag_text()
        at = tagfind_tolerant.match(text, 1).end()
        while (attribute := attrfind_tolerant.match(text, at)) is not None:
            name, rest, value = attribute.group(1, 2, 3)
            if not rest:
                value = None
            elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
                value = value[1:-1]
            yield name.lower(), value
            at = attribute.end()

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag == "title" and self._title_depth:
            self._title_depth -= 1
            if self._title_depth == 0 and self._title_chunks:
                self.events.append(("Title", "".join(self._title_chunks).strip()))
                self._title_chunks = []

    def handle_data(self, data):
        if self._title_depth:
            self._title_chunks.append(data)


def html_meta_reference(data: bytes) -> RawMetadata:
    """Extract ``<title>`` as Title plus every ``<meta name=... content=...>``.

    Attribute names are matched case-insensitively, either quote style
    works, and malformed markup never fails: whatever the scanner got
    through is returned.
    """
    text = data.decode("utf-8", errors="replace")
    scanner = _MetaScanner()
    try:
        scanner.feed(text)
        scanner.close()
    except Exception:
        pass  # salvage whatever was scanned before the breakage

    builder = PairBuilder()
    for key, value in scanner.events:
        builder.add(key, value)
    builder.add("FileSize", str(len(data)))
    return RawMetadata(carrier=CARRIER_HTML, pairs=builder.pairs())


# Sidecar parsing one line at a time: the line walk that the layout
# pattern of ``ums.sidecar`` replaced, kept as the reference the parser is
# compared against, warnings, exception classes, lines and messages
# included.  Values are split and unescaped by the references above.

#: each key in key order, and the record field its values fill
_SIDECAR_FIELDS = {
    "name": "name", "synonym": "synonyms", "format": "formats", "date": "date",
    "type": "doc_type", "summary": "summary", "language": "languages",
    "location": "locations", "creator": "creators", "identifier": "identifiers",
    "access": "access", "subject": "subjects", "tag": "tags", "history": "history",
}
_SIDECAR_KEYS = tuple(_SIDECAR_FIELDS)
_SIDECAR_ONCE_ONLY = frozenset({"name", "date", "type", "summary", "access"})
_SIDECAR_REQUIRED = ("name", "format", "date")
_HISTORY_SEQ_REFERENCE_RE = re.compile(r"0|[1-9]\d*", re.ASCII)


def _escape_reference(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("|", "\\|")


def _canonical_values_reference(record: UmsRecord) -> dict[str, list[str]]:
    """The canonical value of each entry of *record*, per sidecar key."""
    def event(e):
        return f"{e.seq}|{e.timestamp}|{e.kind}|{_escape_reference(e.payload)}|{e.prev}"

    return {
        "name": [_escape_reference(record.name)] if record.name else [],
        "synonym": [_escape_reference(v) for v in record.synonyms],
        "format": list(record.formats),
        "date": [record.date] if record.date is not None else [],
        "type": [record.doc_type] if record.doc_type is not None else [],
        "summary": [_escape_reference(record.summary)] if record.summary is not None else [],
        "language": list(record.languages),
        "location": [_escape_reference(v) for v in record.locations],
        "creator": [_escape_reference(v) for v in record.creators],
        "identifier": [f"{_escape_reference(b.system)}|{_escape_reference(b.id)}"
                       for b in record.identifiers],
        "access": [str(record.access)] if record.access != ACCESS_PUBLIC else [],
        "subject": [_escape_reference(s.text) if s.source is None
                    else f"{_escape_reference(s.text)}|{_escape_reference(s.source)}"
                    for s in record.subjects],
        "tag": [_escape_reference(v) for v in record.tags],
        "history": [event(e) for e in record.history],
    }


def _decode_fields_reference(
    value: str, arity: tuple[int, ...], line: int, what: str
) -> list[str]:
    raw = split_fields_reference(value)
    if len(raw) not in arity:
        counts = " or ".join(map(str, arity))
        plural = "" if arity == (1,) else "s"
        raise SidecarSyntaxError(line, f"{what} needs {counts} field{plural}, got {len(raw)}")
    try:
        return [unescape_reference(f) for f in raw]
    except ValueError as exc:
        raise SidecarSyntaxError(line, f"{what}: {exc}") from None


def _checked_reference(rule, *args, line_no: int):
    """``rule(*args)``, a rejection raised as a syntax error on *line_no*."""
    try:
        return rule(*args)
    except (InvariantViolation, InvalidTimestamp) as exc:
        raise SidecarSyntaxError(line_no, str(exc)) from None


def _history_event_reference(value: str, line_no: int) -> ProvenanceEvent:
    seq, ts, kind, payload, prev = _decode_fields_reference(value, (5,), line_no, "history")
    if not _HISTORY_SEQ_REFERENCE_RE.fullmatch(seq):
        raise SidecarSyntaxError(line_no, f"bad history seq: {seq!r}")
    try:
        return ProvenanceEvent(seq=int(seq), timestamp=ts, kind=kind, payload=payload, prev=prev)
    except (InvariantViolation, InvalidTimestamp) as exc:
        raise SidecarSyntaxError(line_no, f"history: {exc}") from None


def _entry_reference(key: str, value: str, line_no: int):
    """The record's value of one entry under *key*, or the syntax error
    that names its line."""
    if key in ("name", "synonym", "summary", "location", "creator", "tag"):
        (text,) = _decode_fields_reference(value, (1,), line_no, key)
        return unicodedata.normalize("NFC", text)
    if key == "identifier":
        fields = _decode_fields_reference(value, (2,), line_no, key)
        return _checked_reference(IdentifierBinding, *fields, line_no=line_no)
    if key == "subject":
        fields = _decode_fields_reference(value, (1, 2), line_no, key)
        return _checked_reference(Subject, *fields, line_no=line_no)
    if key == "history":
        return _history_event_reference(value, line_no)
    rule = {"format": format_tag, "date": ensure_canonical, "type": document_type,
            "language": language_code, "access": access_level}[key]
    return _checked_reference(rule, value, line_no=line_no)


def _check_entries_reference(key: str, entries: list, line_nos: list[int]) -> None:
    """Reject the first duplicate among a key's entries, or for the
    history its first event out of order."""
    if key == "history":
        for i, (event, line_no) in enumerate(zip(entries, line_nos)):
            if event.seq != i:
                raise SidecarSyntaxError(
                    line_no, f"history seq must run 0,1,2,...; got {event.seq} at index {i}"
                )
        if entries and entries[0].kind != "create":
            raise SidecarSyntaxError(line_nos[0], "history must start with a create event")
        return
    seen = []
    for entry, line_no in zip(entries, line_nos):
        if isinstance(entry, IdentifierBinding):
            entry = (entry.system, entry.id)
        elif isinstance(entry, Subject):
            entry = (entry.text, entry.source)
        if entry in seen:
            raise SidecarSyntaxError(line_no, f"duplicate {key}: {entry!r}")
        seen.append(entry)


def parse_record_reference(data: bytes, mode: str = STRICT) -> tuple[UmsRecord, list[str]]:
    """What ``parse_record_with_warnings`` returns or raises, found one line
    at a time.  The first fault is named: grammar faults in line order,
    then key by key each entry's fault in line order and then the key's
    first duplicate or event out of order, then in strict mode the first
    line not in canonical form."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarSyntaxError(0, f"not UTF-8: {exc}") from None
    if not text.endswith("\n"):
        raise SidecarSyntaxError(max(1, text.count("\n") + 1), "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "ums: 1":
        raise SidecarSyntaxError(1, "expected header 'ums: 1'")

    warnings: list[str] = []
    values: dict[str, list[tuple[str, int]]] = {k: [] for k in _SIDECAR_KEYS}
    order_pos = 0

    for line_no, line in enumerate(lines[1:], start=2):
        key, sep, value = line.partition(": ")
        if not sep or not key or value == "":
            raise SidecarSyntaxError(line_no, f"expected 'key: value', got {line!r}")
        if key not in values:
            if mode == STRICT:
                raise UnknownKey(line_no, key)
            warnings.append(f"line {line_no}: unknown key {key!r} ignored")
            continue
        pos = _SIDECAR_KEYS.index(key)
        if pos < order_pos:
            raise SidecarSyntaxError(line_no, f"key {key!r} out of order")
        if key in _SIDECAR_ONCE_ONLY and values[key]:
            raise DuplicateSingletonKey(line_no, key)
        order_pos = pos
        values[key].append((value, line_no))

    missing = [k for k in _SIDECAR_REQUIRED if not values[k]]
    if missing:
        if mode == STRICT:
            raise SidecarSyntaxError(
                len(lines), f"missing required key(s): {', '.join(missing)}"
            )
        warnings += [f"missing required key: {k}" for k in missing]

    fields = {}
    for key, field in _SIDECAR_FIELDS.items():
        line_nos = [line_no for _, line_no in values[key]]
        entries = [_entry_reference(key, value, line_no) for value, line_no in values[key]]
        _check_entries_reference(key, entries, line_nos)
        if key in _SIDECAR_ONCE_ONLY:
            if entries:
                fields[field] = entries[0]
        else:
            fields[field] = tuple(entries)
    record = UmsRecord(**fields)

    canonical = _canonical_values_reference(record)
    for key in _SIDECAR_KEYS:
        for (value, line_no), expected in zip(values[key], canonical[key]):
            if value != expected:
                message = f"{key} is not canonical, expected {expected!r}"
                if mode == STRICT:
                    raise SidecarSyntaxError(line_no, message)
                warnings.append(f"line {line_no}: {message}")
    return record, warnings
