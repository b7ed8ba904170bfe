"""PDF metadata extraction: header, Info dictionary, page count, XMP.

Scope is classic cross-reference tables with uncompressed objects,
which covers what inspection fixtures and most pre-1.5 writers emit.

Objects are scanned with compiled patterns and a position, not byte by
byte: whitespace and comments, each number, reference, name and keyword
are one match each; a run of plain references in an array (``/Kids``)
is one loop over one pattern; literal strings copy plain bytes in bulk;
a subsection of standard 20-byte xref entries is checked at once.

NotSupported is raised only for encryption and for an xref offset that
holds an object (``N G obj``: a cross-reference stream).  Any other
fault, such as an xref offset at neither ``xref`` nor an object, is
recorded in ``errors`` as ``offset N: ...`` and extraction goes on.
"""

from __future__ import annotations

import re
from itertools import compress

from ..errors import NotPdf, NotSupported
from ..timestamps import display
from . import CARRIER_PDF, PairBuilder, RawMetadata

#: PDF whitespace and comments; unlike ``\s``, this has \x00 and lacks \x0b
_WS = rb"(?:[\x00\t\n\x0c\r ]+|%[^\r\n]*)*"
_WS_RE = re.compile(_WS)
_WHITESPACE = b"\x00\t\n\x0c\r "

_HEADER_RE = re.compile(rb"^%PDF-(\d+\.\d+)")
_STARTXREF_RE = re.compile(rb"startxref\s+(\d+)", re.S)
_PAGE_TYPE_RE = re.compile(rb"/Type\s*/Page(?![a-zA-Z])")
_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj")
#: what an xref offset holds when it points at a cross-reference stream
_XREF_STREAM_RE = re.compile(rb"[\x00\t\n\x0c\r ]*\d+\s+\d+\s+obj")
_SUBSECTION_RE = re.compile(rb"(\d+)\s+(\d+)")
_XREF_ENTRY_RE = re.compile(rb"(\d{10})\s(\d{5})\s([nf])\s{0,2}")
#: an entry's digits to 0, its ``\s`` bytes to space and its kind to n, to
#: check a subsection without a repeated pattern group, whose matcher
#: would hold about 185 bytes of state per entry
_XREF_CLASSES = bytes.maketrans(b"123456789\t\n\r\x0b\x0cf", b"000000000     n")
_XREF_SHAPE = b"0000000000 00000 n  "

_NAME_RE = re.compile(rb"/([^\x00\t\n\x0c\r ()<>\[\]{}/%]*)")
_NAME_ESCAPE_RE = re.compile(rb"#([0-9A-Fa-f]{2})")
#: a keyword, or a number and the ``G R`` that may follow it
_SCALAR_RE = re.compile(
    rb"(true|false|null)|([+-]?(?:\d+\.?\d*|\.\d+))(?:\s+(\d+)\s+R(?![a-zA-Z]))?"
)
_KEYWORDS = {b"true": True, b"false": False, b"null": None}
#: an unsigned reference and the whitespace after it, one array element
_REF_RE = re.compile(rb"(\d+)\s+(\d+)\s+R(?![a-zA-Z])" + _WS)
#: a literal string's next special byte, after the plain run before it:
#: an octal escape, a line continuation, another escape, or a parenthesis
_LITERAL_RE = re.compile(rb"([^()\\]*)(?:\\(?:([0-7]{1,3})|\r\n?|\n|(.))|([()]))", re.S)
_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f"}

#: Info dictionary keys renamed for display
_INFO_KEY_NAMES = {"CreationDate": "CreateDate", "ModDate": "ModifyDate"}


class _Ref(tuple):
    """An indirect reference: object and generation number, as written."""

    __slots__ = ()


class _ParseError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


def _unhex(m: "re.Match[bytes]") -> bytes:
    return bytes((int(m[1], 16),))


def _name(raw: bytes) -> str:
    """A name's text, with its ``#xx`` hex escapes decoded."""
    if b"#" in raw:
        raw = _NAME_ESCAPE_RE.sub(_unhex, raw)
    return raw.decode("latin-1")


def _parse_literal_string(data: bytes, pos: int) -> tuple[bytes, int]:
    out = bytearray()
    depth = 1
    pos += 1  # consume '('
    while True:
        m = _LITERAL_RE.match(data, pos)
        if m is None:
            raise _ParseError(len(data), "unterminated string")
        run, octal, escaped, paren = m.groups()
        out += run
        pos = m.end()
        if paren is None:
            if octal is not None:
                out.append(int(octal, 8) & 0xFF)
            elif escaped is not None:
                out += _ESCAPES.get(escaped, escaped)
        elif paren == b"(":
            depth += 1
            out += paren
        else:
            depth -= 1
            if depth == 0:
                return bytes(out), pos
            out += paren


def _parse_hex_string(data: bytes, pos: int) -> tuple[bytes, int]:
    pos += 1  # consume '<'
    end = data.find(b">", pos)
    if end < 0:
        raise _ParseError(pos, "unterminated hex string")
    digits = data[pos:end].translate(None, _WHITESPACE)
    if len(digits) % 2:
        digits += b"0"
    try:
        return bytes.fromhex(digits.decode("latin-1")), end + 1
    except ValueError:
        raise _ParseError(end + 1, "bad hex string") from None


def _parse_scalar(data: bytes, pos: int):
    """A keyword, a number, or a non-negative integer followed by ``G R``."""
    m = _SCALAR_RE.match(data, pos)
    if not m:
        raise _ParseError(pos, "expected a number")
    keyword, text, generation = m.groups()
    if keyword is not None:
        return _KEYWORDS[keyword], m.end()
    if b"." in text:
        return float(text), m.end(2)
    value = int(text)
    if generation is not None and value >= 0:
        return _Ref((text, generation)), m.end()
    return value, m.end(2)


#: deepest nesting of arrays and dictionaries accepted; deeper input is a
#: parse error rather than a RecursionError
_MAX_NESTING = 100


def _parse_value(data: bytes, pos: int, depth: int = 0):
    """The object after the whitespace at *pos*, and the position after
    it; *depth* arrays and dictionaries are open around *pos*."""
    pos = _WS_RE.match(data, pos).end()
    if pos >= len(data):
        raise _ParseError(pos, "unexpected end of data")
    b = data[pos]
    if b == 0x5B or data.startswith(b"<<", pos):  # '[' or '<<'
        pos += 1 if b == 0x5B else 2
        depth += 1
        if depth > _MAX_NESTING:
            raise _ParseError(pos, f"arrays or dictionaries nested over {_MAX_NESTING} deep")
        if b == 0x5B:
            items = []
            while True:
                pos = _WS_RE.match(data, pos).end()
                ref = _REF_RE.match(data, pos)
                while ref is not None:
                    items.append(_Ref(ref.groups()))
                    pos = ref.end()
                    ref = _REF_RE.match(data, pos)
                if pos >= len(data):
                    raise _ParseError(pos, "unexpected end of data")
                if data[pos] == 0x5D:  # ']'
                    return items, pos + 1
                item, pos = _parse_value(data, pos, depth)
                items.append(item)
        out: dict[str, object] = {}
        while True:
            pos = _WS_RE.match(data, pos).end()
            if data.startswith(b">>", pos):
                return out, pos + 2
            key = _NAME_RE.match(data, pos)
            if key is None:
                if pos >= len(data):
                    raise _ParseError(pos, "unexpected end of data")
                raise _ParseError(pos, "expected /name key in dictionary")
            out[_name(key[1])], pos = _parse_value(data, key.end(), depth)
    if b == 0x28:  # '('
        return _parse_literal_string(data, pos)
    if b == 0x3C:  # '<'
        return _parse_hex_string(data, pos)
    if b == 0x2F:  # '/'
        name = _NAME_RE.match(data, pos)
        return _name(name[1]), name.end()
    return _parse_scalar(data, pos)


def _parse_indirect_object(data: bytes, offset: int):
    m = _OBJ_RE.match(data, _WS_RE.match(data, offset).end())
    if not m:
        raise _ParseError(offset, "expected 'N G obj'")
    return _parse_value(data, m.end())[0]


def _decode_text(raw: bytes) -> str:
    if raw.startswith(b"\xfe\xff"):
        return raw[2:].decode("utf-16-be", errors="replace")
    return raw.decode("latin-1")


def _xref_subsection(data: bytes, pos: int, first: int, count: int):
    """Where the in-use entries of one subsection start, by object
    number, and the position after the subsection."""
    block = data[pos : pos + 20 * count]
    if len(block) == 20 * count and block.translate(_XREF_CLASSES).count(_XREF_SHAPE) == count:
        # count 20-byte entries tile the subsection: each one's place is known
        places = zip(range(first, first + count), range(pos, pos + len(block), 20))
        in_use = block[17::20].replace(b"f", b"\x00")  # n is truthy, f is not
        return dict(compress(places, in_use)), pos + len(block)
    entries = {}
    for number in range(first, first + count):
        entry = _XREF_ENTRY_RE.match(data, pos)
        if not entry:
            raise _ParseError(pos, "malformed xref entry")
        if entry[3] == b"n":
            entries[number] = pos
        pos = entry.end()
    return entries, pos


def _parse_xref_tables(data: bytes):
    """Follow the startxref/Prev chain; newest entries win.  Returns where
    each object's xref entry starts, by number, and the merged trailer."""
    at = data.rfind(b"startxref")
    while at >= 0 and not _STARTXREF_RE.match(data, at):
        at = data.rfind(b"startxref", 0, at)
    if at < 0:
        raise _ParseError(len(data), "no startxref")
    offset: int | None = int(_STARTXREF_RE.match(data, at)[1])

    subsections: list[dict[int, int]] = []
    trailer: dict[str, object] = {}
    seen_tables = set()
    while offset is not None and offset not in seen_tables:
        seen_tables.add(offset)
        pos = _WS_RE.match(data, max(offset, 0)).end()
        if offset < 0 or not data.startswith(b"xref", pos):
            if offset >= 0 and _XREF_STREAM_RE.match(data, offset):
                message = "cross-reference streams are not supported (classic tables only)"
                raise NotSupported(message)
            raise _ParseError(offset, "expected 'xref'")
        pos += 4
        while True:
            pos = _WS_RE.match(data, pos).end()
            section = _SUBSECTION_RE.match(data, pos)
            if not section:
                break
            pos = _WS_RE.match(data, section.end()).end()
            entries, pos = _xref_subsection(data, pos, int(section[1]), int(section[2]))
            subsections.append(entries)
        pos = _WS_RE.match(data, pos).end()
        if not data.startswith(b"trailer", pos):
            raise _ParseError(pos, "expected trailer")
        t, pos = _parse_value(data, pos + len(b"trailer"))
        if not isinstance(t, dict):
            raise _ParseError(pos, "trailer is not a dictionary")
        for key, value in t.items():
            trailer.setdefault(key, value)
        prev = t.get("Prev")
        offset = int(prev) if isinstance(prev, (int, float)) else None
    # the first in-use entry of a number wins: merge from the last subsection
    entries = subsections.pop() if subsections else {}
    while subsections:
        entries.update(subsections.pop())
    return entries, trailer


def _resolve(value, entries: dict[int, int], data: bytes, errors: list[str]):
    if isinstance(value, _Ref):
        num = int(value[0])
        entry = entries.get(num)
        if entry is None:
            errors.append(f"offset unknown for object {num}")
            return None
        try:
            return _parse_indirect_object(data, int(data[entry : entry + 10]))
        except _ParseError as exc:
            errors.append(str(exc))
            return None
    return value


def _xmp_prop(prop: bytes) -> tuple["re.Pattern[bytes]", "re.Pattern[bytes]"]:
    """Patterns for *prop* as an element and as an attribute."""
    return re.compile(rb"<%s>(.*?)</%s>" % (prop, prop), re.S), re.compile(rb'%s="([^"]*)"' % prop)


_CREATOR_TOOL = _xmp_prop(b"xmp:CreatorTool")
_METADATA_DATE = _xmp_prop(b"xmp:MetadataDate")
_DOCUMENT_ID = _xmp_prop(b"xmpMM:DocumentID")
_WHEN_ELEMENT, _WHEN_ATTRIBUTE = _xmp_prop(b"stEvt:when")


def _xmp_span(data: bytes) -> tuple[int, int] | None:
    """Where the first ``<x:xmpmeta>`` element is, else the first xpacket."""
    start = data.find(b"<x:xmpmeta")
    end = data.find(b"</x:xmpmeta>", start + len(b"<x:xmpmeta")) if start >= 0 else -1
    if end >= 0:
        return start, end + len(b"</x:xmpmeta>")
    start = data.find(b"<?xpacket begin")
    end = data.find(b"<?xpacket end", start + len(b"<?xpacket begin")) if start >= 0 else -1
    end = data.find(b">", end + len(b"<?xpacket end")) if end >= 0 else -1
    return (start, end + 1) if end >= 0 else None


def _extract_xmp(data: bytes, builder: PairBuilder) -> None:
    span = _xmp_span(data)
    if span is None:
        return
    start, end = span

    # the packet is searched as bytes: each value sits between ASCII
    # delimiters, so decoding it alone gives what decoding the packet would
    def text(m: "re.Match[bytes]") -> str:
        return m[1].decode("utf-8", errors="replace")

    def simple(patterns: tuple["re.Pattern[bytes]", "re.Pattern[bytes]"]) -> str | None:
        element, attribute = patterns
        m = element.search(data, start, end)
        if m:
            return text(m).strip()
        m = attribute.search(data, start, end)
        return text(m) if m else None

    creator_tool = simple(_CREATOR_TOOL)
    if creator_tool:
        builder.add("CreatorTool", creator_tool)
    metadata_date = simple(_METADATA_DATE)
    if metadata_date:
        builder.add("MetadataDate", display(metadata_date) or metadata_date)
    document_id = simple(_DOCUMENT_ID)
    if document_id:
        builder.add("DocumentID", document_id)
    patterns = (_WHEN_ATTRIBUTE, _WHEN_ELEMENT)
    whens = [text(m).strip() for p in patterns for m in p.finditer(data, start, end)]
    if whens:
        builder.add("HistoryWhen", ", ".join([display(w) or w for w in whens]))


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

    entries: dict[int, int] = {}
    trailer: dict[str, object] = {}
    try:
        entries, trailer = _parse_xref_tables(data)
    except _ParseError as exc:
        errors.append(str(exc))

    if "Encrypt" in trailer:
        raise NotSupported("encrypted files are not supported")

    info = _resolve(trailer.get("Info"), entries, data, errors)
    if isinstance(info, dict):
        for key, value in info.items():
            value = _resolve(value, entries, data, errors)
            if isinstance(value, (bytes, str, int, float)):
                text = _decode_text(value) if isinstance(value, bytes) else str(value)
                builder.add(_INFO_KEY_NAMES.get(key, key), display(text) or text)
            elif isinstance(value, (list, dict)):
                kind = "array" if isinstance(value, list) else "dictionary"
                errors.append(f"Info /{key}: {kind} not extracted")
            # a null value is an absent entry (PDF 32000-1 §7.3.7), and a
            # reference _resolve could not follow is already in errors

    catalog = _resolve(trailer.get("Root"), entries, data, errors)
    page_count: int | None = None
    if isinstance(catalog, dict):
        cat_version = catalog.get("Version")
        if isinstance(cat_version, str):
            builder.add("PDFVersion", cat_version)
        pages = _resolve(catalog.get("Pages"), entries, data, errors)
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

    return RawMetadata(carrier=CARRIER_PDF, pairs=builder.pairs(), errors=tuple(errors))
