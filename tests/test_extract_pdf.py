from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums.cli import main
from ums.errors import NotPdf, NotSupported
from ums.extractors import extract_pdf_info
from ums.extractors.pdf import _MAX_NESTING

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


def _info_pdf(info: bytes, *extra: bytes) -> bytes:
    """One page whose Info dictionary is *info*; *extra* objects are
    numbered from 5 on."""
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [4 0 R] /Count 1 >>",
        info,
        fixtures._page(2),
        *extra,
    ]
    return fixtures._pdf(objects, root=1, info=3)


class TestInfoValues:
    """An Info value that is no string, name or number is reported, not
    dropped; a null value is an absent entry."""

    MIXED = b"<< /Title (t) /Keywords [(a) (b)] /Trapped null /Extra << /X 1 >> >>"

    def test_arrays_and_dictionaries_are_errors_and_null_is_absent(self):
        raw = extract_pdf_info(_info_pdf(self.MIXED))
        assert ("Title", "t") in raw.pairs
        assert not {"Keywords", "Trapped", "Extra"} & set(pairs_dict(raw))
        assert raw.errors == (
            "Info /Keywords: array not extracted",
            "Info /Extra: dictionary not extracted",
        )

    def test_referenced_values_are_reported_as_what_they_resolve_to(self):
        info = b"<< /Keywords 5 0 R /Extra 6 0 R /Trapped 7 0 R /Lost 9 0 R >>"
        raw = extract_pdf_info(_info_pdf(info, b"[(a)]", b"<< >>", b"null"))
        assert raw.errors == (
            "Info /Keywords: array not extracted",
            "Info /Extra: dictionary not extracted",
            "offset unknown for object 9",  # once: the failed reference only
        )

    def test_lint_lists_them_as_partial_extraction(self, tmp_path, capsys):
        path = tmp_path / "mixed.pdf"
        path.write_bytes(_info_pdf(self.MIXED))
        assert main(["lint", str(path)]) == 1  # a carrier's format, stated 4 times, warns
        partial = [line for line in capsys.readouterr().out.splitlines() if "EXTRACT_PARTIAL" in line]
        assert partial == [
            "EXTRACT_PARTIAL\tinfo\tInfo /Keywords: array not extracted",
            "EXTRACT_PARTIAL\tinfo\tInfo /Extra: dictionary not extracted",
        ]


def _utf16_literal(value: str) -> bytes:
    """A PDF literal string of *value* as UTF-16BE with its byte order
    mark, every byte an octal escape."""
    raw = b"\xfe\xff" + value.encode("utf-16-be")
    return b"(" + b"".join(b"\\%03o" % byte for byte in raw) + b")"


class TestUtf16Text:
    def _extract_raw(self, tmp_path, capsys, info: bytes) -> list[str]:
        path = tmp_path / "unicode.pdf"
        path.write_bytes(_info_pdf(info))
        assert main(["extract", str(path), "--raw"]) == 0
        return capsys.readouterr().out.splitlines()

    def test_hex_and_literal_strings_with_a_byte_order_mark_decode(self, tmp_path, capsys):
        title, author = "Октология: 漢字 — ½", "Zoë Ångström"
        hex_title = b"<FEFF" + title.encode("utf-16-be").hex().upper().encode("ascii") + b">"
        assert _utf16_literal(author).startswith(b"(\\376\\377")
        out = self._extract_raw(
            tmp_path, capsys, b"<< /Title " + hex_title + b" /Author " + _utf16_literal(author) + b" >>"
        )
        assert f"Title = {title}" in out
        assert f"Author = {author}" in out

    def test_an_odd_trailing_byte_reads_as_a_replacement_character(self, tmp_path, capsys):
        out = self._extract_raw(tmp_path, capsys, b"<< /Title <FEFF0041004200> >>")
        assert "Title = AB\ufffd" in out


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

    def test_unterminated_hex_string_is_an_extraction_error(self):
        data = fixtures.minimal_pdf().replace(b" >>\nstartxref", b" /ID <4142\nstartxref")
        raw = extract_pdf_info(data)
        assert raw.errors == (f"offset {data.index(b'<4142') + 1}: unterminated hex string",)
        assert pairs_dict(raw)["PageCount"] == "1"  # regex fallback

    def test_trailer_that_is_no_dictionary_is_an_extraction_error(self):
        head, _, tail = fixtures.minimal_pdf().partition(b"trailer\n")
        data = head + b"trailer\n42" + tail[tail.index(b"\nstartxref") :]
        raw = extract_pdf_info(data)
        at = data.index(b"trailer\n42") + len(b"trailer\n42")
        assert raw.errors == (f"offset {at}: trailer is not a dictionary",)
        assert pairs_dict(raw)["PageCount"] == "1"

    def test_xref_entry_pointing_at_no_object_is_an_extraction_error(self):
        data = fixtures.minimal_pdf()
        info_at, trailer_at = data.index(b"3 0 obj"), data.index(b"trailer")
        data = data.replace(b"%010d 00000 n" % info_at, b"%010d 00000 n" % trailer_at)
        raw = extract_pdf_info(data)
        assert raw.errors == (f"offset {trailer_at}: expected 'N G obj'",)
        assert pairs_dict(raw)["PageCount"] == "1"

    @pytest.mark.parametrize(
        "cut", [b"<< /Keywords [ (x)", b"<< /Title", b"<< /Title (x) "],
        ids=["in-array", "after-key", "before-key"],
    )
    def test_info_cut_off_at_the_end_of_the_file_is_an_extraction_error(self, cut):
        # the Info object moved after %%EOF, and the file ends inside it
        data = fixtures.minimal_pdf()
        info_at = data.index(b"3 0 obj")
        data = data.replace(b"%010d 00000 n" % info_at, b"%010d 00000 n" % len(data))
        data += b"3 0 obj\n" + cut
        raw = extract_pdf_info(data)
        assert raw.errors == (f"offset {len(data)}: unexpected end of data",)
        assert pairs_dict(raw)["PageCount"] == "1"

    def test_a_last_startxref_without_offset_falls_back_to_the_one_before(self):
        data = fixtures.minimal_pdf() + b"startxref\n%%EOF\n"
        raw = extract_pdf_info(data)
        assert raw.errors == ()
        assert pairs_dict(raw)["PageCount"] == "1"

    def test_object_missing_from_the_xref_is_an_extraction_error(self):
        raw = extract_pdf_info(fixtures.minimal_pdf().replace(b"/Info 3 0 R", b"/Info 9 0 R"))
        assert raw.errors == ("offset unknown for object 9",)
        assert pairs_dict(raw)["PageCount"] == "1"


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


def _hostile_info_pdf(n: int) -> bytes:
    """A PDF whose Info dictionary has 5 * *n* keys with escaped names:
    numbers, references and arrays of them, and every 50th key an array
    nested as deep as the extractor accepts inside the dictionary."""
    depth = _MAX_NESTING - 1
    nested = b"[" * depth + b"-1.5 +7 2 0 R" + b"]" * depth
    info = b"".join(
        b"/N#41%d -12.5 /R#20%d 2 0 R /I#23%d %d /A%d [1 2.5 -3 2 0 R null true] " % (i, i, i, i, i)
        + (b"/D#2f%d %s " % (i, nested) if i % 50 == 0 else b"")
        for i in range(n)
    )
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [] /Count 0 >>",
        b"<< " + info + b">>",
    ]
    return fixtures._pdf(objects, root=1, info=3)


def _best_time(n: int) -> float:
    seconds, raw = fixtures.best_time(extract_pdf_info, _hostile_info_pdf(n))
    # every key is read: the last integer's escaped name is decoded, and
    # each array, and each reference to the pages dictionary, is reported
    assert (f"I#{n - 1}", str(n - 1)) in raw.pairs
    assert raw.errors == tuple(
        error
        for i in range(n)
        for error in (
            f"Info /R {i}: dictionary not extracted",
            f"Info /A{i}: array not extracted",
            *([f"Info /D/{i}: array not extracted"] if i % 50 == 0 else []),
        )
    )
    return seconds


def test_a_hostile_info_dictionary_extracts_in_linear_time():
    # four times the input: about four times the time if linear, sixteen
    # if quadratic; a ratio, so a slow host does not fail the test
    assert _best_time(4000) / _best_time(1000) < 8
