"""Carrier fixtures built from scratch so every byte is accounted for,
the catalog files of a metabase, and the byte mutations hostile-input
properties apply to input files."""

from __future__ import annotations

import time

from hypothesis import settings, strategies as st

from ums.metabase import CATALOG_HEADER


def examples(count: int) -> int:
    """A property's example count: *count* under the default profile,
    scaled by the loaded profile's ``max_examples`` against the default's,
    so the ``ci`` profile of ``conftest.py`` runs each property longer."""
    return count * settings.default.max_examples // settings.get_profile("default").max_examples


def best_time(read, data):
    """The least wall time of three calls ``read(data)``, and what the last
    returned; a linear-time test compares it at two sizes of *data*."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        result = read(data)
        times.append(time.perf_counter() - started)
    return min(times), result


#: what hostile-input properties insert: random bytes, and the bytes where
#: the HTML, PDF and sidecar readers decide something
HOSTILE_INSERTS = st.one_of(
    st.binary(min_size=1, max_size=8),
    st.sampled_from(
        [b"<", b">", b"<!--", b"<title>", b"<meta name='", b"'", b"(", b")", b"<<", b">>", b"\\",
         b"\n", b": ", b"|", b"history: ", b"\xff", b"\xcc\x81"]
    ),
)


def mutated(draw, data: bytes, inserts: st.SearchStrategy[bytes]) -> bytes:
    """*data* after one to four byte flips, insertions drawn from
    *inserts* and truncations; *draw* is a hypothesis composite's."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        change = draw(st.sampled_from(["flip", "insert", "truncate"]))
        if change == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif change == "insert":
            data[at:at] = draw(inserts)
        elif change == "truncate":
            del data[at:]
    return bytes(data)


def _pdf(objects: list[bytes], root: int, info: int | None, version: str = "1.4") -> bytes:
    """Assemble a classic-xref PDF from numbered object bodies."""
    out = bytearray()
    out += f"%PDF-{version}\n".encode("ascii")
    out += b"%\xe2\xe3\xcf\xd3\n"
    offsets = []
    for number, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{number} 0 obj\n".encode("ascii") + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n" + f"0 {len(objects) + 1}\n".encode("ascii")
    out += b"0000000000 65535 f \n"
    for offset in offsets:
        out += f"{offset:010d} 00000 n \n".encode("ascii")
    trailer = f"<< /Size {len(objects) + 1} /Root {root} 0 R"
    if info is not None:
        trailer += f" /Info {info} 0 R"
    trailer += " >>"
    out += b"trailer\n" + trailer.encode("ascii") + b"\n"
    out += b"startxref\n" + str(xref_at).encode("ascii") + b"\n%%EOF\n"
    return bytes(out)


def _page(parent: int) -> bytes:
    return f"<< /Type /Page /Parent {parent} 0 R /MediaBox [0 0 612 792] >>".encode(
        "ascii"
    )


def octology_pdf() -> bytes:
    """76-page document whose Info mirrors the 2011 office-suite output."""
    page_count = 76
    kids = " ".join(f"{4 + i} 0 R" for i in range(page_count))
    objects = [
        b"<< /Type /Catalog /Version /1.3 /Pages 2 0 R >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {page_count} >>".encode("ascii"),
        (
            b"<< /CreationDate (D:20110301163522Z)"
            b" /Title (octology)"
            b" /Author (Max Madman)"
            b" /Creator (Pages)"
            b" /ModDate (D:20110301163522Z)"
            b" /Producer (Mac OS X 10.5.2 Quartz PDFContext) >>"
        ),
    ]
    objects += [_page(2) for _ in range(page_count)]
    return _pdf(objects, root=1, info=3)


def minimal_pdf() -> bytes:
    """One page, Info present but empty."""
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [4 0 R] /Count 1 >>",
        b"<< >>",
        _page(2),
    ]
    return _pdf(objects, root=1, info=3)


def _xmp_packet(history_entries: int) -> bytes:
    whens = []
    minute = 0
    for i in range(history_entries):
        minute = i % 60
        hour = 10 + (i // 60)
        whens.append(
            f'   <rdf:li stEvt:action="saved" stEvt:when="2010-01-08T{hour:02d}:{minute:02d}:37+01:00"/>'
        )
    body = "\n".join(
        [
            '<?xpacket begin="﻿" id="W5M0MpCehiHzreSzNTczkc9d"?>',
            '<x:xmpmeta xmlns:x="adobe:ns:meta/">',
            ' <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">',
            '  <rdf:Description rdf:about=""',
            '    xmlns:xmp="http://ns.adobe.com/xap/1.0/"',
            '    xmlns:xmpMM="http://ns.adobe.com/xap/1.0/mm/"',
            '    xmlns:stEvt="http://ns.adobe.com/xap/1.0/sType/ResourceEvent#">',
            "   <xmp:CreatorTool>Adobe InDesign CS4 (6.0.6)</xmp:CreatorTool>",
            "   <xmp:MetadataDate>2011-03-06T19:04:38+01:00</xmp:MetadataDate>",
            "   <xmpMM:DocumentID>xmp.did:36A96DDD4444E011BA44C4547900889D</xmpMM:DocumentID>",
            "   <xmpMM:History>",
            "    <rdf:Seq>",
            *whens,
            "    </rdf:Seq>",
            "   </xmpMM:History>",
            "  </rdf:Description>",
            " </rdf:RDF>",
            "</x:xmpmeta>",
            '<?xpacket end="w"?>',
        ]
    )
    return body.encode("utf-8")


def preprint_pdf(history_entries: int = 57) -> bytes:
    """Print-shop style PDF: XMP packet with a long edit history, no Info dates."""
    xmp = _xmp_packet(history_entries)
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R /Metadata 5 0 R >>",
        b"<< /Type /Pages /Kids [4 0 R] /Count 1 >>",
        b"<< /Producer (Adobe PDF Library 9.0) >>",
        _page(2),
        (
            f"<< /Type /Metadata /Subtype /XML /Length {len(xmp)} >>\nstream\n".encode(
                "ascii"
            )
            + xmp
            + b"\nendstream"
        ),
    ]
    return _pdf(objects, root=1, info=3)


def encrypted_pdf() -> bytes:
    """Structurally fine, but the trailer declares encryption."""
    data = minimal_pdf()
    return data.replace(b"/Size 5", b"/Size 5 /Encrypt 9 0 R")


def xref_stream_pdf() -> bytes:
    """startxref points at an object, the 1.5+ cross-reference stream layout."""
    body = bytearray()
    body += b"%PDF-1.5\n"
    offset = len(body)
    body += b"1 0 obj\n<< /Type /XRef /Size 2 >>\nstream\nxx\nendstream\nendobj\n"
    body += b"startxref\n" + str(offset).encode("ascii") + b"\n%%EOF\n"
    return bytes(body)


PUBMED_TITLE = (
    "Was the serine protease cathepsin G discovered by ..."
    " [Acta Biochim Pol. 2011] - PubMed result"
)

_PUBMED_DESCRIPTION = (
    "PubMed is a service of the U.S. National Library of Medicine that includes"
    " over 19 million citations from MEDLINE and other life science journals for"
    " biomedical articles back to the 1950s."
)


def pubmed_html() -> bytes:
    """Bibliographic search result page with the NCBI meta tags."""
    html = f"""<!DOCTYPE html>
<html>
<head>
<title>{PUBMED_TITLE}</title>
<meta name="keywords" content="PubMed, National Center for Biotechnology Information, NCBI" />
<meta name="description" content="{_PUBMED_DESCRIPTION}" />
<meta name="author" content="pubmeddev" />
<meta name="ncbi_app" content="entrez">
<meta name="ncbi_db" content='pubmed'>
<meta name="ncbi_uidlist" content="21383996">
<meta name="ncbi_report" content="abstract">
<meta name="ncbi_format" content="html">
<meta name="ncbi_pagesize" content="20">
<meta name="robots" content="index,nofollow,noarchive">
</head>
<body>
<p>Palesch D, Sienczyk M, Oleksyszyn J, Reich M, Wiczerzak E, Boehm BO, Burster T.</p>
</body>
</html>
"""
    return html.encode("utf-8")


def bare_html() -> bytes:
    return b"<html><head><title>  Plain page </title></head><body>hi</body></html>"


def dump_catalog(catalog) -> bytes:
    """*catalog* in the catalog file format, as a hand-written file would
    state it."""
    lines = [CATALOG_HEADER, f"catalog: {catalog.name}"]
    for entry in catalog.entries:
        lines.append(f"entry: {entry.canonical}")
        lines += [f"  synonym: {syn}" for syn in entry.synonyms]
    return ("\n".join(lines) + "\n").encode("utf-8")
