from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums.errors import NotPdf, NotSupported
from ums.extractors import extract_pdf_info

OCTOLOGY_EXPECTED = {
    "Title": "octology",
    "Author": "Max Madman",
    "Creator": "Pages",
    "Producer": "Mac OS X 10.5.2 Quartz PDFContext",
    "PageCount": "76",
    "CreateDate": "2011:03:01 16:35:22Z",
    "ModifyDate": "2011:03:01 16:35:22Z",
}


def pairs_dict(raw):
    return dict(raw.pairs)


class TestOctologyFixture:
    def test_named_values_match(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        got = pairs_dict(raw)
        for key, value in OCTOLOGY_EXPECTED.items():
            assert got[key] == value, key

    def test_format_entries_present(self, octology_pdf):
        got = pairs_dict(extract_pdf_info(octology_pdf))
        assert got["FileType"] == "PDF"
        assert got["MIMEType"] == "application/pdf"
        assert got["PDFVersion"] == "1.4"
        assert got["PDFVersion (1)"] == "1.3"
        assert got["FileType(guessed)"] == "PDF document, version 1.4"

    def test_exact_key_set(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        keys = {k for k, _ in raw.pairs}
        assert keys == set(OCTOLOGY_EXPECTED) | {
            "PDFVersion",
            "PDFVersion (1)",
            "FileType(guessed)",
            "FileType",
            "MIMEType",
            "FileSize",
        }

    def test_file_size_is_byte_count(self, octology_pdf):
        raw = extract_pdf_info(octology_pdf)
        assert pairs_dict(raw)["FileSize"] == str(len(octology_pdf))

    def test_clean_extraction_records_no_errors(self, octology_pdf):
        assert extract_pdf_info(octology_pdf).errors == ()

    def test_reextraction_is_byte_deterministic(self, octology_pdf):
        assert extract_pdf_info(octology_pdf) == extract_pdf_info(octology_pdf)

    def test_content_values_locatable_in_input(self, octology_pdf):
        # synthesized carrier facts aside, every value is really in the file
        synthesized = {"FileType", "FileType(guessed)", "MIMEType", "FileSize", "PageCount"}
        raw = extract_pdf_info(octology_pdf)
        for key, value in raw.pairs:
            if key in synthesized:
                continue
            probe = value.split(" ")[0] if "Date" in key else value
            assert probe.replace(":", "").encode()[:8] in octology_pdf.replace(b":", b"")


class TestMinimalPdf:
    def test_empty_info_yields_carrier_facts_only(self, minimal_pdf):
        raw = extract_pdf_info(minimal_pdf)
        keys = [k for k, _ in raw.pairs]
        assert keys == [
            "PDFVersion",
            "PageCount",
            "FileType(guessed)",
            "FileType",
            "MIMEType",
            "FileSize",
        ]
        assert pairs_dict(raw)["PageCount"] == "1"


class TestXmpFixture:
    def test_creator_tool_extracted(self, preprint_pdf):
        got = pairs_dict(extract_pdf_info(preprint_pdf))
        assert got["CreatorTool"] == "Adobe InDesign CS4 (6.0.6)"

    def test_metadata_date_displayed_with_offset(self, preprint_pdf):
        got = pairs_dict(extract_pdf_info(preprint_pdf))
        assert got["MetadataDate"] == "2011:03:06 19:04:38+01:00"

    def test_document_id_and_history(self, preprint_pdf):
        got = pairs_dict(extract_pdf_info(preprint_pdf))
        assert got["DocumentID"] == "xmp.did:36A96DDD4444E011BA44C4547900889D"
        assert len(got["HistoryWhen"].split(", ")) == 57


class TestRejections:
    def test_not_pdf(self):
        with pytest.raises(NotPdf):
            extract_pdf_info(b"<html></html>")

    def test_xref_stream_not_supported(self):
        with pytest.raises(NotSupported):
            extract_pdf_info(fixtures.xref_stream_pdf())

    def test_encrypted_not_supported(self):
        with pytest.raises(NotSupported):
            extract_pdf_info(fixtures.encrypted_pdf())

    def test_deep_nesting_is_an_extraction_error(self):
        deep = b"[" * 5000 + b"]" * 5000
        objects = [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /Title (x) /Keywords " + deep + b" >>",
        ]
        raw = extract_pdf_info(fixtures._pdf(objects, root=1, info=3))
        assert any("nested" in error for error in raw.errors)
        assert pairs_dict(raw)["PageCount"] == "0"

    def test_broken_xref_is_best_effort(self):
        data = fixtures.minimal_pdf().replace(b"startxref", b"startxrEf")
        raw = extract_pdf_info(data)
        assert raw.errors
        assert pairs_dict(raw)["PDFVersion"] == "1.4"
        assert pairs_dict(raw)["PageCount"] == "1"  # regex fallback

    @pytest.mark.parametrize("offset", [0, 5, 999999])
    def test_wrong_startxref_is_best_effort(self, octology_pdf, offset):
        head, _, tail = octology_pdf.rpartition(b"startxref\n")
        data = head + b"startxref\n" + str(offset).encode() + tail[tail.index(b"\n") :]
        raw = extract_pdf_info(data)
        assert raw.errors == (f"offset {offset}: expected 'xref'",)
        assert pairs_dict(raw)["PageCount"] == "76"  # regex fallback
        assert "Title" not in pairs_dict(raw)

    @pytest.mark.parametrize("prev", [7, -5])
    def test_wrong_prev_is_best_effort(self, octology_pdf, prev):
        data = octology_pdf.replace(b"/Size 80", b"/Size 80 /Prev %d" % prev)
        raw = extract_pdf_info(data)
        assert raw.errors == (f"offset {prev}: expected 'xref'",)
        assert pairs_dict(raw)["PageCount"] == "76"


#: bytes where the object, string and xref tokenizers decide something
_EDGE_INSERTS = [
    b"\x00", b"\x0b", b"%c\n", b"%", b"\r\n", b" ", b"+", b"-", b".", b"R", b"Ra", b"R1",
    b" 0 R", b"4 0 R", b"4\x000 R", b"4\x0b0 R", b"4 %c\n0 R", b"+4 0 R", b"-4 0 R", b"4. 0 R",
    b"#41", b"#4", b"#", b"/a#20b", b"\\101", b"\\7", b"\\", b"\\\r\n", b"\\\r", b"\\n",
    b"(", b")", b"<", b">", b"<a>", b"<a b c>", b"<\x0ba>", b"<zz>", b"[", b"]", b"<<", b">>",
    b"/", b"true", b"nul", b"xref", b"trailer", b"startxref 0", b"\xe2", b"\xf0\x9f\x98",
]


_XMP_VALUE = st.sampled_from([
    b"Tool 1.0", b" Tool 1.0 ", b"\n2011-03-06T19:04:38+01:00\t", b"2011-03-06T19:04:38",
    b"T\xe2\x80\x83", b"\xe3\x80\x80y\xe3\x80\x80", b"\xe2x", b"x\xf0\x9f\x98", b"\xed\xa0\x80",
    b"", b"a<b",
])
_XMP_PROPS = (
    b"xmp:CreatorTool", b"xmp:MetadataDate", b"xmpMM:DocumentID", b"stEvt:when", b"stEvt:when"
)


@st.composite
def _xmp(draw) -> bytes:
    """An XMP packet with element and attribute forms of each property."""
    parts = []
    for prop in _XMP_PROPS:
        value = draw(_XMP_VALUE)
        if draw(st.booleans()):
            parts.append(b"<%s>%s</%s>" % (prop, value, prop))
        else:
            parts.append(b'<rdf:li %s="%s"/>' % (prop, value))
    body = b"\n".join(parts)
    return draw(st.sampled_from([
        b'<?xpacket begin="\xef\xbb\xbf"?><x:xmpmeta>' + body + b'</x:xmpmeta><?xpacket end="w"?>',
        b'<?xpacket begin="\xef\xbb\xbf"?>' + body + b'<?xpacket end="w"?>',
        b"<x:xmpmeta>" + body,
    ]))


@st.composite
def _edge_pdf(draw) -> bytes:
    """A PDF whose page tree, Info values, XMP and xref table exercise
    token edges.  Each Info value is an object of its own, so one value's
    error hides no other."""
    ref = st.builds(
        lambda sign, num, sep, gen, after: sign + num + sep + gen + b" R" + after,
        st.sampled_from([b"", b"", b"+", b"-"]),
        st.sampled_from([b"4", b"12", b"0", b"4.", b".5", b"99"]),
        st.sampled_from([b" ", b"\x00", b"\x0b", b"\n", b"%c\n", b"\r\n", b"", b"  "]),
        st.sampled_from([b"0", b"1", b"00"]),
        st.sampled_from([b"", b"", b" ", b"%c\n", b"a", b"1", b"]"]),
    )
    refs = st.lists(ref, max_size=8).map(lambda items: b"[" + b" ".join(items) + b"]")
    name = st.sampled_from(
        [b"/A", b"/a#41b", b"/x#4", b"/#20#7e", b"/", b"/Page", b"/a#zz", b"/a%c\n"]
    )
    literal = st.lists(
        st.sampled_from([
            b"a", b"(", b")", b"()", b"\\n", b"\\101", b"\\7x", b"\\0123", b"\\\r\n", b"\\\r",
            b"\\\n", b"\\q", b"\\(", b"\xe9", b"\xfe\xff",
        ]),
        max_size=8,
    ).map(lambda parts: b"(" + b"".join(parts) + b")")
    hexed = st.text("0123456789abcdefG \n\x0b\x00", max_size=9).map(
        lambda digits: b"<" + digits.encode("latin-1") + b">"
    )
    nested = st.sampled_from([99, 100, 101]).map(lambda n: b"[" * n + b"1" + b"]" * n)
    scalar = st.sampled_from(
        [b"true", b"false", b"null", b"nullx", b"truex", b"12", b"-3.5", b"+.5", b"1.", b"x"]
    )
    scalars = st.lists(scalar, max_size=3).map(lambda items: b"[" + b" ".join(items) + b"]")
    value = st.one_of(refs, name, literal, hexed, nested, scalar, scalars)
    keys = [b"Title", b"Ti#74le", b"Author", b"Creator", b"Producer", b"CreationDate", b"Keywords"]
    values = [draw(value) for _ in keys]
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids " + draw(refs) + b" /Count 1 >>",
        b"<< " + b" ".join(b"/%s %d 0 R" % (k, 6 + i) for i, k in enumerate(keys)) + b" >>",
        fixtures._page(2),
        b"<< /Type /Metadata >>\nstream\n" + draw(_xmp()) + b"\nendstream",
        *values,
    ]
    data = fixtures._pdf(objects, root=1, info=3)
    # entries with 0-3 trailing whitespace bytes, and a subsection count
    # above or below the number of entries
    if draw(st.booleans()):
        tail = draw(st.sampled_from(
            [b" \r\n", b"\r\n", b"\n", b" ", b"", b"\x00\n", b" \x0c", b" \r\n\n"]
        ))
        data = data.replace(b" n \n", b" n" + tail).replace(b" f \n", b" f" + tail)
    if draw(st.integers(0, 3)) == 0:
        count = len(objects) + 1
        wrong = count + draw(st.sampled_from([-1, 1, -5]))
        data = data.replace(b"xref\n0 %d\n" % count, b"xref\n0 %d\n" % wrong)
    if draw(st.booleans()):
        kinds = st.sampled_from([b"n", b"f"])
        data = _update(data, draw(kinds), draw(kinds))
    return data


def _update(data: bytes, info_kind: bytes, root_kind: bytes) -> bytes:
    """*data* with an incremental update: a new Info in its own
    subsection, and a second, overlapping subsection that lists the
    catalog again, each entry in use or free."""
    prev = data[data.rindex(b"startxref") :].split()[1]
    info_at = len(data)
    data += b"3 0 obj\n<< /Title (updated) >>\nendobj\n"
    xref_at = len(data)
    data += b"xref\n3 1\n%010d 00000 %s \n" % (info_at, info_kind)
    data += b"1 3\n%010d 00000 %s \n" % (data.index(b"1 0 obj"), root_kind)
    data += b"0000000000 00000 f \n" * 2
    data += b"trailer\n<< /Size 5 /Root 1 0 R /Info 3 0 R /Prev " + prev + b" >>\n"
    return data + b"startxref\n%d\n%%%%EOF\n" % xref_at


@st.composite
def _differential_pdf(draw) -> bytes:
    if draw(st.integers(0, 2)) == 0:
        data = draw(st.sampled_from([
            fixtures.octology_pdf(), fixtures.minimal_pdf(), fixtures.preprint_pdf(3),
            fixtures.encrypted_pdf(), fixtures.xref_stream_pdf(),
        ]))
    else:
        data = draw(_edge_pdf())
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        change = draw(st.sampled_from(["insert", "insert", "flip", "truncate"]))
        if change == "insert":
            data[at:at] = draw(st.sampled_from(_EDGE_INSERTS))
        elif change == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif change == "truncate":
            del data[at:]
    return bytes(data)


def _outcome(extract, data: bytes):
    try:
        raw = extract(data)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return raw.pairs, raw.errors


_WRONG_XREF = re.compile(r"offset -?\d+: expected 'xref'")


@settings(max_examples=fixtures.examples(500), deadline=None)
@given(_differential_pdf())
def test_extraction_equals_the_cursor_reference(data):
    expected = _outcome(oracles.extract_pdf_info_reference, data)
    got = _outcome(extract_pdf_info, data)
    if got != expected and expected[0] is NotSupported and "streams" in expected[1]:
        # an xref offset that holds no object is recorded, not rejected
        pairs, errors = got
        assert len(errors) == 1 and _WRONG_XREF.fullmatch(errors[0])
        assert "PageCount" in dict(pairs)
        return
    assert got == expected
