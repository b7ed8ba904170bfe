"""What importing the package and the CLI loads."""

from __future__ import annotations

import subprocess
import sys

import pytest

import fixtures
import ums

#: modules only extract, lint and validate need
HEAVY = ("ums.extractors", "ums.lint", "ums.metabase", "ums.validation", "ums.identifiers")


def _loaded_after(statement: str) -> list[str]:
    code = f"{statement}\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_cli_import_loads_no_extractor_lint_or_metabase():
    loaded = _loaded_after("import ums.cli")
    assert "ums.sidecar" in loaded
    assert [m for m in loaded if m.startswith(HEAVY)] == []


def test_linting_a_sidecar_loads_no_extractor(tmp_path):
    sidecar = tmp_path / "doc.ums"
    sidecar.write_bytes(b"ums: 1\nname: x\nformat: pdf\ndate: 2011-03-01\n")
    loaded = _loaded_after(
        "import contextlib, io\nfrom ums import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['lint', {str(sidecar)!r}]) == 1"
    )
    assert "ums.lint" in loaded
    assert [m for m in loaded if m.startswith("ums.extractors")] == []
    assert "html.parser" not in loaded


def test_extracting_a_pdf_loads_no_html_parser(tmp_path):
    pdf = tmp_path / "doc.pdf"
    pdf.write_bytes(fixtures.octology_pdf())
    loaded = _loaded_after(
        "import contextlib, io\nfrom ums import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['extract', {str(pdf)!r}]) == 0"
    )
    assert "ums.extractors.pdf" in loaded
    assert "ums.extractors.html" not in loaded
    assert "html.parser" not in loaded


def test_grouping_loads_no_hashlib(tmp_path):
    (tmp_path / "doc.ums").write_bytes(b"ums: 1\nname: x\nformat: pdf\ndate: 2011-03-01\n")
    loaded = _loaded_after(
        "import contextlib, io\nfrom ums import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['group', {str(tmp_path)!r}, '--by', 'format']) == 0"
    )
    assert "ums.association" in loaded
    assert "hashlib" not in loaded


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import ums")
    assert [m for m in loaded if m.startswith("ums.")] == []


def test_every_public_name_resolves():
    for name in ums.__all__:
        value = getattr(ums, name)
        assert getattr(value, "__name__", name) == name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ums.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "argv, code",
    [
        (["extract", "{pdf}"], 0),
        # the default table maps no HTML date, so this one exits 2 once
        # extraction and mapping have run
        (["extract", "{html}"], 2),
        (["lint", "{pdf}"], 1),
        (["lint", "{sidecar}"], 1),
        (["validate", "{sidecar}"], 0),
        (["annotate", "{sidecar}", "--event", "rename", "--payload", "y"], 0),
        (["history", "{sidecar}", "--verify"], 0),
        (["group", "{dir}", "--by", "format"], 0),
        (["related", "{dir}", "x"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, argv, code):
    paths = {"pdf": tmp_path / "doc.pdf", "html": tmp_path / "doc.html", "sidecar": tmp_path / "doc.ums"}
    paths["pdf"].write_bytes(fixtures.octology_pdf())
    paths["html"].write_bytes(fixtures.pubmed_html())
    paths["sidecar"].write_bytes(b"ums: 1\nname: x\nformat: pdf\ndate: 2011-03-01\n")
    argv = [arg.format(dir=tmp_path, **paths) for arg in argv]
    loaded = _loaded_after(
        "import contextlib, io\nfrom ums import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == {code}"
    )
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
