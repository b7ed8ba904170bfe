"""PDF metadata extraction: header, Info dictionary, page count, XMP.

Scope is classic cross-reference tables with uncompressed objects,
which covers what inspection fixtures and most pre-1.5 writers emit.
Cross-reference streams and encrypted files raise NotSupported instead
of producing silently wrong answers.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from ..errors import NotPdf, NotSupported
from ..timestamps import PDF_DATE_RE
from . import CARRIER_PDF, PairBuilder, RawMetadata

_WHITESPACE = b"\x00\t\n\x0c\r "
_DELIMITERS = b"()<>[]{}/%"

_HEADER_RE = re.compile(rb"^%PDF-(\d+\.\d+)")
_STARTXREF_RE = re.compile(rb"startxref\s+(\d+)", re.S)
_PAGE_TYPE_RE = re.compile(rb"/Type\s*/Page(?![a-zA-Z])")
_ISO_DATE_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:\d{2})?$"
)

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


def _pdf_date_to_display(value: str) -> Optional[str]:
    """``D:YYYYMMDDhhmmss±hh'mm'`` -> ``YYYY:MM:DD hh:mm:ss±hh:mm``."""
    m = PDF_DATE_RE.fullmatch(value)
    if not m:
        return None
    y, mo, d, h, mi, s, tz = m.groups()
    stamp = f"{y}:{mo or '01'}:{d or '01'} {h or '00'}:{mi or '00'}:{s or '00'}"
    if tz == "Z":
        stamp += "Z"
    elif tz:
        hours = tz[:3]
        minutes = tz[4:6] if len(tz) > 3 else "00"
        stamp += f"{hours}:{minutes or '00'}"
    return stamp


def _iso_date_to_display(value: str) -> Optional[str]:
    m = _ISO_DATE_RE.match(value)
    if not m:
        return None
    y, mo, d, h, mi, s, tz = m.groups()
    return f"{y}:{mo}:{d} {h}:{mi}:{s}{tz or ''}"


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
        builder.add("MetadataDate", _iso_date_to_display(metadata_date) or metadata_date)
    document_id = simple("xmpMM:DocumentID")
    if document_id:
        builder.add("DocumentID", document_id)
    whens = re.findall(r'stEvt:when="([^"]*)"', xmp)
    whens += re.findall(r"<stEvt:when>(.*?)</stEvt:when>", xmp, re.S)
    if whens:
        display = [(_iso_date_to_display(w.strip()) or w.strip()) for w in whens]
        builder.add("HistoryWhen", ", ".join(display))


def extract_pdf_info(data: bytes) -> RawMetadata:
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
            else:
                continue
            display = _pdf_date_to_display(text)
            builder.add(_INFO_KEY_NAMES.get(key, key), display or text)

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
        byte_size=len(data),
        errors=tuple(errors),
    )
