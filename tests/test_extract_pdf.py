from __future__ import annotations

import pytest

import fixtures
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
        assert raw.byte_size == len(octology_pdf)

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
