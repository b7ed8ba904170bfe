from __future__ import annotations

import contextlib
import io
import os
import random
import stat
import subprocess
import sys
import unicodedata
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import recgen
from ums import timestamps
from ums.cli import main
from ums.metabase import (
    AUTHORS,
    Catalog,
    CatalogEntry,
)
from ums.model import GENESIS_PREV, ProvenanceEvent, Subject, SystematicName, UmsRecord, replace
from ums.provenance import apply_event, event_digest
from ums.sidecar import canonical_serialize, parse_record


@pytest.fixture()
def octology_path(tmp_path, octology_pdf):
    path = tmp_path / "octology.pdf"
    path.write_bytes(octology_pdf)
    return path


def write_sidecar(path, record):
    path.write_bytes(canonical_serialize(record))
    return path


def full_record(name="octology", **overrides):
    base = dict(
        name=name,
        formats=("pdf",),
        date="2011-03-01T16:35:22Z",
        languages=("en",),
        locations=("http://www.enzymes.at/download/octology.pdf",),
        creators=("Max Madman",),
        subjects=(Subject(text="metadata"),),
    )
    base.update(overrides)
    return UmsRecord(**base)


class TestExtract:
    def test_raw_shows_the_author_pair(self, octology_path, capsys):
        assert main(["extract", str(octology_path), "--raw"]) == 0
        out = capsys.readouterr().out
        assert "Author = Max Madman" in out
        assert "CreateDate = 2011:03:01 16:35:22Z" in out

    def test_default_output_is_a_parseable_sidecar(self, octology_path, capsys):
        assert main(["extract", str(octology_path)]) == 0
        out = capsys.readouterr().out
        record = parse_record(out.encode("utf-8"))
        assert record.name == "octology"
        assert record.creators == ("Max Madman",)

    def test_pdf_date_without_a_zone_is_read_as_utc(self, tmp_path, capsys):
        objects = [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [4 0 R] /Count 1 >>",
            b"<< /CreationDate (D:20110301163522) /Title (zoneless) >>",
            fixtures._page(2),
        ]
        path = tmp_path / "zoneless.pdf"
        path.write_bytes(fixtures._pdf(objects, root=1, info=3))
        assert main(["extract", str(path)]) == 0
        assert "\ndate: 2011-03-01T16:35:22Z\n" in capsys.readouterr().out

    def test_nonexistent_path_exits_2(self, tmp_path, capsys):
        assert main(["extract", str(tmp_path / "missing.pdf")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_dateless_carrier_cannot_emit_a_sidecar(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_bytes(fixtures.pubmed_html())
        assert main(["extract", str(page)]) == 2
        assert "--raw" in capsys.readouterr().err

    def test_an_incomplete_record_names_the_extraction_errors(self, tmp_path, capsys):
        head, _, tail = fixtures.octology_pdf().rpartition(b"startxref\n")
        damaged = tmp_path / "damaged.pdf"
        damaged.write_bytes(head + b"startxref\n5" + tail[tail.index(b"\n") :])
        assert main(["extract", str(damaged)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "mapped record is incomplete" in err
        assert err.rstrip().endswith("; extraction errors: offset 5: expected 'xref'")

    def test_carrier_flag_overrides_detection(self, tmp_path, capsys):
        odd = tmp_path / "data.bin"
        odd.write_bytes(fixtures.pubmed_html())
        assert main(["extract", str(odd), "--carrier", "html", "--raw"]) == 0
        assert "pubmeddev" in capsys.readouterr().out

    def test_a_file_without_extension_starting_with_markup_is_html(self, tmp_path, capsys):
        page = tmp_path / "page"
        page.write_bytes(b" \n\t" + fixtures.pubmed_html())
        assert main(["extract", str(page), "--raw"]) == 0
        assert "author = pubmeddev\n" in capsys.readouterr().out

    def test_a_file_without_extension_or_markup_needs_the_carrier_flag(self, tmp_path, capsys):
        notes = tmp_path / "notes"
        notes.write_bytes(b"  plain text, no markup\n")
        assert main(["extract", str(notes), "--raw"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ums: cannot determine carrier of {notes}; use --carrier\n"

    def test_a_sidecar_cannot_be_extracted(self, tmp_path, capsys):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        assert main(["extract", str(path)]) == 2
        assert capsys.readouterr() == ("", "ums: extraction does not support carrier 'sidecar'\n")

    def test_a_mapping_table_with_one_more_key_changes_the_output(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_bytes(
            fixtures.pubmed_html().replace(
                b"<head>\n", b'<head>\n<meta name="citation_date" content="2011-03-01">\n', 1
            )
        )
        rules = "ums-mapping: 1\nhtml.Title -> name\nhtml.author -> creator\nhtml.citation_date -> date\n"
        base, extended = tmp_path / "base.map", tmp_path / "extended.map"
        base.write_text(rules, "utf-8")
        extended.write_text(rules + "html.ncbi_db -> tag\n", "utf-8")
        outputs = []
        for table in (base, extended):
            assert main(["--mapping", str(table), "extract", str(page)]) == 0
            outputs.append(capsys.readouterr().out)
        assert "\ndate: 2011-03-01\n" in outputs[0]
        assert "tag: pubmed\n" not in outputs[0]
        assert outputs[1] == outputs[0] + "tag: pubmed\n"

    def test_a_malformed_mapping_table_exits_2_naming_its_line(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_bytes(fixtures.pubmed_html())
        table = tmp_path / "broken.map"
        table.write_text("ums-mapping: 1\nhtml.Title -> name\n\nTitle becomes the name\n", "utf-8")
        assert main(["--mapping", str(table), "extract", str(page)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ums: {table}: line 4: expected 'carrier.Key -> field'\n"


class TestLint:
    def test_octology_lints_dirty(self, octology_path, capsys):
        assert main(["lint", str(octology_path)]) == 1
        out = capsys.readouterr().out
        assert "FORMAT_REDUNDANCY\twarning" in out
        assert "AUTHOR_AMBIGUOUS\twarning" in out
        assert "TIMESTAMP_COINCIDENT\twarning" in out

    def test_clean_sidecar_exits_0(self, tmp_path, capsys):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        assert main(["lint", str(path)]) == 0

    def test_edit_history_fixture_has_no_coincident_timestamps(self, tmp_path, capsys):
        path = tmp_path / "preprint.pdf"
        path.write_bytes(fixtures.preprint_pdf())
        main(["lint", str(path)])
        assert "TIMESTAMP_COINCIDENT" not in capsys.readouterr().out

    def test_extraction_errors_are_listed(self, tmp_path, capsys):
        deep = b"[" * 5000 + b"]" * 5000
        objects = [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /Title (x) /Keywords " + deep + b" >>",
        ]
        path = tmp_path / "deep.pdf"
        path.write_bytes(fixtures._pdf(objects, root=1, info=3))
        assert main(["lint", str(path)]) == 1  # FORMAT_REDUNDANCY, as before
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("EXTRACT_PARTIAL\tinfo\toffset ")
        assert lines[-1].endswith(": arrays or dictionaries nested over 100 deep")
        assert main(["lint", str(path), "--json"]) == 1
        import json

        last = json.loads(capsys.readouterr().out)[-1]
        assert (last["code"], last["severity"]) == ("EXTRACT_PARTIAL", "info")
        assert last["message"] == lines[-1].split("\t")[2]

    def test_parse_warnings_are_listed(self, tmp_path, capsys):
        """A sidecar rewritten as NFD, which strict commands reject, lints
        with one PARSE_WARNING info finding per lenient-parse warning, after
        the other findings; info findings leave the exit code at 0."""
        import json

        record = full_record(name="Zoë", subjects=(), tags=("Ångström",))
        text = canonical_serialize(record).decode()
        path = tmp_path / "doc.ums"
        path.write_bytes(unicodedata.normalize("NFD", text).encode())
        assert main(["history", str(path), "--verify"]) == 2
        assert "line 2: name is not canonical, expected 'Zoë'" in capsys.readouterr().err
        warnings = [
            "line 2: name is not canonical, expected 'Zoë'",
            "line 8: tag is not canonical, expected 'Ångström'",
        ]
        assert main(["lint", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "EMPTY_SUBJECTS\tinfo\trecord lists no depicted objects or phenomena",
            *(f"PARSE_WARNING\tinfo\t{w}" for w in warnings),
        ]
        assert main(["lint", str(path), "--json"]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert findings[1:] == [
            {"code": "PARSE_WARNING", "severity": "info", "message": w, "evidence": []}
            for w in warnings
        ]

    def test_json_export_mirrors_findings(self, octology_path, capsys):
        import json

        main(["lint", str(octology_path), "--json"])
        findings = json.loads(capsys.readouterr().out)
        codes = [f["code"] for f in findings]
        assert "FORMAT_REDUNDANCY" in codes
        assert all({"code", "severity", "message", "evidence"} <= set(f) for f in findings)


class TestValidate:
    def test_strict_with_missing_date_exits_1(self, tmp_path, capsys):
        path = tmp_path / "doc.ums"
        path.write_bytes(b"ums: 1\nname: octology\nformat: pdf\n")
        assert main(["--strict", "validate", str(path)]) == 1
        assert "MissingRequiredField" in capsys.readouterr().out

    def test_cataloged_record_validates_clean(self, tmp_path, capsys):
        madman = SystematicName(
            kind="person", who=("Max", "Madman"), when="1960-01-01", where="Cupertino"
        )
        authors = Catalog(
            name=AUTHORS,
            entries=(CatalogEntry(systematic_name=madman, synonyms=("Max Madman",)),),
        )
        metabase_dir = tmp_path / "metabase"
        metabase_dir.mkdir()
        (metabase_dir / "authors.catalog").write_bytes(fixtures.dump_catalog(authors))
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        code = main(
            ["--metabase", str(metabase_dir), "--strict", "validate", str(path)]
        )
        assert capsys.readouterr().out == ""
        assert code == 0

    def test_metabase_from_environment(self, tmp_path, capsys, monkeypatch):
        metabase_dir = tmp_path / "metabase"
        metabase_dir.mkdir()
        monkeypatch.setenv("UMS_METABASE", str(metabase_dir))
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        assert main(["--strict", "validate", str(path)]) == 1
        assert "CreatorNotInCatalog" in capsys.readouterr().out

    def test_a_missing_metabase_directory_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        assert main(["--metabase", str(missing), "validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"ums: metabase directory not found: {missing}\n")

    @pytest.mark.parametrize(
        "catalog, message",
        [
            (b"metabase-catalog: 1\ncatalog: \n", "line 2: empty catalog name"),
            (
                b"metabase-catalog: 1\ncatalog: authors\n\n  synonym: Max Madman\n",
                "line 4: synonym before any entry",
            ),
        ],
        ids=["empty-name", "orphan-synonym"],
    )
    def test_a_malformed_catalog_exits_2_naming_its_line(self, tmp_path, capsys, catalog, message):
        metabase_dir = tmp_path / "metabase"
        metabase_dir.mkdir()
        (metabase_dir / "authors.catalog").write_bytes(catalog)
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        assert main(["--metabase", str(metabase_dir), "validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ums: {metabase_dir / 'authors.catalog'}: {message}\n"


class TestAnnotate:
    def test_rename_adds_synonym_and_history_line(self, tmp_path, capsys):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        code = main(
            [
                "annotate",
                str(path),
                "--event",
                "rename",
                "--payload",
                "Octology",
                "--timestamp",
                "2012-05-01T00:00:00Z",
            ]
        )
        assert code == 0
        data = path.read_bytes()
        assert b"synonym: Octology\n" in data
        record = parse_record(data)
        assert [e.kind for e in record.history] == ["create", "rename"]

    def test_default_timestamp_is_the_current_instant(self, tmp_path):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        before = datetime.now(timezone.utc).replace(microsecond=0)
        assert main(["annotate", str(path), "--event", "rename", "--payload", "Octology"]) == 0
        event = parse_record(path.read_bytes()).history[-1]
        assert before <= timestamps.as_datetime(event.timestamp) <= datetime.now(timezone.utc)

    def test_annotating_twice_keeps_one_synonym_two_events(self, tmp_path):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        for stamp in ("2012-05-01T00:00:00Z", "2012-06-01T00:00:00Z"):
            assert (
                main(
                    [
                        "annotate",
                        str(path),
                        "--event",
                        "rename",
                        "--payload",
                        "Octology",
                        "--timestamp",
                        stamp,
                    ]
                )
                == 0
            )
        record = parse_record(path.read_bytes())
        assert record.synonyms == ("Octology",)
        assert [e.kind for e in record.history] == ["create", "rename", "rename"]

    def test_original_fields_survive_annotation(self, tmp_path):
        from ums.provenance import original_view

        record = full_record()
        path = write_sidecar(tmp_path / "doc.ums", record)
        main(
            [
                "annotate",
                str(path),
                "--event",
                "relocate",
                "--payload",
                "http://mirror.example/octology.pdf",
                "--timestamp",
                "2012-05-01T00:00:00Z",
            ]
        )
        rewritten = parse_record(path.read_bytes())
        view = original_view(rewritten)
        assert view.locations == record.locations
        assert view.name == record.name

    @pytest.mark.parametrize("mode", [0o644, 0o640], ids=oct)
    def test_rewrite_keeps_the_file_mode(self, tmp_path, mode):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        path.chmod(mode)
        argv = ["annotate", str(path), "--event", "rename", "--payload", "Octology",
                "--timestamp", "2012-05-01T00:00:00Z"]
        assert main(argv) == 0
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["doc.ums"]

    def test_a_failed_replace_leaves_the_sidecar_and_no_temporary_file(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        before = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        argv = ["annotate", str(path), "--event", "rename", "--payload", "Octology",
                "--timestamp", "2012-05-01T00:00:00Z"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("ums: [Errno 13] Permission denied")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["doc.ums"]

    def test_tampered_history_blocks_annotation(self, tmp_path, capsys):
        record = apply_event(full_record(), "rename", "AAA", "2012-01-01T00:00:00Z")
        path = tmp_path / "doc.ums"
        path.write_bytes(canonical_serialize(record).replace(b"|AAA|", b"|AXA|", 1))
        code = main(
            [
                "annotate",
                str(path),
                "--event",
                "rename",
                "--payload",
                "B",
                "--timestamp",
                "2012-05-01T00:00:00Z",
            ]
        )
        assert code == 2
        assert "broken" in capsys.readouterr().err

    def test_format_payload_with_line_feed_is_refused(self, tmp_path, capsys):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        before = path.read_bytes()
        code = main(
            [
                "annotate",
                str(path),
                "--event",
                "reformat",
                "--payload",
                "html\n",
                "--timestamp",
                "2012-05-01T00:00:00Z",
            ]
        )
        assert code == 2
        assert "bad format tag" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert main(["history", str(path)]) == 0

    @pytest.mark.parametrize(
        "event, payload, line",
        [
            ("rename", "\udcff", "synonym: \\udcff"),
            ("relocate", "\udcff", "location: \\udcff"),
            ("reclassify", "DOI|\udcff", "identifier: DOI|\\udcff"),
        ],
    )
    def test_a_payload_that_is_no_utf8_is_refused(self, tmp_path, capsys, event, payload, line):
        # argument bytes that are not UTF-8 reach Python as lone surrogates
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        before = path.read_bytes()
        argv = ["annotate", str(path), "--event", event, "--payload", payload,
                "--timestamp", "2012-05-01T00:00:00Z"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ums: not encodable as UTF-8: '{line}'\n"
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["doc.ums"]


class TestHistory:
    def test_verify_prints_chain_length(self, tmp_path, capsys):
        record = full_record()
        for i, payload in enumerate(["A", "B", "C"]):
            record = apply_event(record, "rename", payload, f"2012-01-0{i + 1}T00:00:00Z")
        path = write_sidecar(tmp_path / "doc.ums", record)
        assert main(["history", str(path), "--verify"]) == 0
        assert capsys.readouterr().out == "ok 4\n"

    def test_verify_flags_tampering(self, tmp_path, capsys):
        record = apply_event(full_record(), "rename", "AAA", "2012-01-01T00:00:00Z")
        path = tmp_path / "doc.ums"
        path.write_bytes(canonical_serialize(record).replace(b"|AAA|", b"|AXA|", 1))
        assert main(["history", str(path), "--verify"]) == 1
        assert "broken at seq" in capsys.readouterr().out

    def test_verify_rejects_a_sidecar_rewritten_as_nfd(self, tmp_path, capsys):
        record = full_record(creators=("Zoë Ångström",))
        for i, payload in enumerate(["Café", "Größe"]):
            record = apply_event(record, "rename", payload, f"2012-01-0{i + 1}T00:00:00Z")
        path = tmp_path / "doc.ums"
        nfd = unicodedata.normalize("NFD", canonical_serialize(record).decode())
        path.write_bytes(nfd.encode())
        assert main(["history", str(path), "--verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3: synonym is not canonical" in captured.err

    def test_verify_flags_a_genesis_with_a_payload(self, tmp_path, capsys):
        genesis = ProvenanceEvent(0, "2011-03-01T16:35:22Z", "create", "draft", GENESIS_PREV)
        path = write_sidecar(tmp_path / "doc.ums", full_record(history=(genesis,)))
        assert main(["history", str(path), "--verify"]) == 1
        assert capsys.readouterr().out == "broken at seq 0: create event carries a payload\n"

    def test_verify_flags_a_second_create_with_a_correct_prev(self, tmp_path, capsys):
        record = apply_event(full_record(), "rename", "A", "2012-01-01T00:00:00Z")
        again = ProvenanceEvent(
            2, "2012-02-01T00:00:00Z", "create", "", event_digest(record.history[-1])
        )
        record = replace(record, history=record.history + (again,))
        path = write_sidecar(tmp_path / "doc.ums", record)
        assert main(["history", str(path), "--verify"]) == 1
        assert capsys.readouterr().out == "broken at seq 2: create after genesis\n"

    def test_listing_shows_events(self, tmp_path, capsys):
        record = apply_event(full_record(), "rename", "X", "2012-01-01T00:00:00Z")
        path = write_sidecar(tmp_path / "doc.ums", record)
        assert main(["history", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("0\t2011-03-01T16:35:22Z\tcreate")
        assert out[1].startswith("1\t2012-01-01T00:00:00Z\trename\tX")


def make_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_sidecar(
        corpus / "a.ums",
        full_record("alpha", tags=("enzymes", "project:ums")),
    )
    write_sidecar(
        corpus / "b.ums",
        full_record("beta", formats=("html",), tags=("enzymes",)),
    )
    write_sidecar(corpus / "c.ums", full_record("gamma", tags=("history",)))
    return corpus


class TestGroupAndRelated:
    def test_group_by_format_prints_two_sections(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        assert main(["group", str(corpus), "--by", "format"]) == 0
        out = capsys.readouterr().out
        assert out == "== html\n  beta\n== pdf\n  alpha\n  gamma\n"

    def test_related_ranks_by_shared_tags(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        assert main(["related", str(corpus), "alpha"]) == 0
        out = capsys.readouterr().out
        assert out == "beta\t0.500000\n"

    def test_related_unknown_name_exits_2(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        assert main(["related", str(corpus), "nobody"]) == 2

    @pytest.mark.parametrize("command", [["group", "--by", "theme"], ["related", "alpha"]])
    def test_broken_sidecar_is_named_with_its_line(self, tmp_path, capsys, command):
        corpus = make_corpus(tmp_path)
        broken = corpus / "b.ums"
        lines = broken.read_bytes().split(b"\n")
        lines[2] = b"format: PDF"
        broken.write_bytes(b"\n".join(lines))
        argv = [command[0], str(corpus), *command[1:]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ums: {broken}: line 3: ")

    @pytest.mark.parametrize("command", [["group", "--by", "format"], ["related", "alpha"]])
    def test_a_file_is_not_a_corpus(self, tmp_path, capsys, command):
        path = write_sidecar(tmp_path / "doc.ums", full_record())
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"ums: not a directory: {path}\n")

    def test_an_unreadable_sidecar_is_named_once(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        unreadable = corpus / "d.ums"
        unreadable.mkdir()
        assert main(["group", str(corpus), "--by", "format"]) == 2
        assert capsys.readouterr() == ("", f"ums: cannot read {unreadable}: Is a directory\n")


#: subcommand -> (argv, exit code, a piece of stdout); run in a fresh
#: interpreter, each loads the modules its handler imports on its own
FRESH_RUNS = {
    "extract": (["extract", "{pdf}"], 0, "name: octology\n"),
    "lint": (["lint", "{pdf}"], 1, "FORMAT_REDUNDANCY\twarning"),
    "lint --json": (["lint", "{pdf}", "--json"], 1, '"code": "FORMAT_REDUNDANCY"'),
    "validate": (
        ["--metabase", "{metabase}", "--strict", "validate", "{sidecar}"],
        1,
        "CreatorNotInCatalog",
    ),
    "annotate": (
        ["annotate", "{sidecar}", "--event", "relocate", "--payload", "http://mirror.example/o.pdf",
         "--timestamp", "2012-05-01T00:00:00Z"],
        0,
        "relocate recorded as event 2\n",
    ),
    "history --verify": (["history", "{sidecar}", "--verify"], 0, "ok 2\n"),
    "group": (["group", "{corpus}", "--by", "format"], 0, "== html\n  beta\n== pdf\n  alpha\n  gamma\n"),
    "related": (["related", "{corpus}", "alpha"], 0, "beta\t0.500000\n"),
}


@pytest.mark.parametrize("command", list(FRESH_RUNS))
def test_each_subcommand_runs_in_a_fresh_interpreter(tmp_path, octology_path, command):
    argv, code, out = FRESH_RUNS[command]
    metabase = tmp_path / "metabase"
    metabase.mkdir()
    record = apply_event(full_record(), "rename", "Octology", "2012-01-01T00:00:00Z")
    paths = dict(
        pdf=octology_path,
        metabase=metabase,
        sidecar=write_sidecar(tmp_path / "doc.ums", record),
        corpus=make_corpus(tmp_path),
    )
    result = subprocess.run(
        [sys.executable, "-m", "ums.cli", *(arg.format(**paths) for arg in argv)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (code, "")
    assert out in result.stdout


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ums.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "extract" in result.stdout


#: (file name, contents, the commands run on it after mutation)
_HOSTILE_INPUTS = [
    ("page.html", fixtures.pubmed_html(), ("extract", "extract --raw", "lint")),
    ("bare.html", fixtures.bare_html(), ("extract", "extract --raw", "lint")),
    ("octology.pdf", fixtures.octology_pdf(), ("extract", "extract --raw", "lint")),
    ("minimal.pdf", fixtures.minimal_pdf(), ("extract", "extract --raw", "lint")),
    ("preprint.pdf", fixtures.preprint_pdf(3), ("extract", "extract --raw", "lint")),
    *(
        (f"doc{seed}.ums", canonical_serialize(recgen.record_with_history(random.Random(seed))),
         ("lint", "validate", "history --verify"))
        for seed in (1, 2)
    ),
]


@st.composite
def _hostile_input(draw):
    name, data, commands = draw(st.sampled_from(_HOSTILE_INPUTS))
    data = fixtures.mutated(draw, data, fixtures.HOSTILE_INSERTS)
    return name, data, draw(st.sampled_from(commands))


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=fixtures.examples(300), deadline=None)
@given(_hostile_input())
def test_hostile_input_exits_0_1_or_2(hostile_dir, case):
    name, data, command = case
    path = hostile_dir / name
    path.write_bytes(data)
    command, *flags = command.split()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, str(path), *flags]) in (0, 1, 2)
