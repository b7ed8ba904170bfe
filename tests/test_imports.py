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


@pytest.mark.parametrize("command", [["extract", "--raw"], ["lint"]], ids=["extract", "lint"])
def test_reading_an_html_page_loads_no_html_parser(tmp_path, command):
    page = tmp_path / "page.html"
    page.write_bytes(fixtures.pubmed_html())
    argv = [command[0], str(page), *command[1:]]
    loaded = _loaded_after(
        "import contextlib, io\nfrom ums import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    assert "ums.extractors.html" in loaded
    assert "html.parser" not in loaded
    assert "_markupbase" not in loaded


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


#: each command, on the files ``run_command`` writes, and its exit code
COMMANDS = [
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
]


def _command_id(value):
    return " ".join(value) if isinstance(value, list) else None


@pytest.fixture(scope="module")
def run_command(tmp_path_factory):
    """Runs a command of ``COMMANDS`` in a fresh interpreter, once, and
    returns the modules it loaded."""
    directory = tmp_path_factory.mktemp("commands")
    paths = {"pdf": directory / "doc.pdf", "html": directory / "doc.html", "sidecar": directory / "doc.ums"}
    paths["pdf"].write_bytes(fixtures.octology_pdf())
    paths["html"].write_bytes(fixtures.pubmed_html())
    paths["sidecar"].write_bytes(b"ums: 1\nname: x\nformat: pdf\ndate: 2011-03-01\n")
    loaded: dict[tuple, list[str]] = {}

    def run(argv: list[str], code: int) -> list[str]:
        key = tuple(argv)
        if key not in loaded:
            argv = [arg.format(dir=directory, **paths) for arg in argv]
            loaded[key] = _loaded_after(
                "import contextlib, io\nfrom ums import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main({argv!r}) == {code}"
            )
        return loaded[key]

    return run


@pytest.fixture(scope="module")
def bare_interpreter() -> set[str]:
    """The modules ``python -c pass`` loads, ``site`` and its ``.pth``
    files included."""
    return set(_loaded_after("pass"))


@pytest.mark.parametrize("argv, code", COMMANDS, ids=_command_id)
def test_no_command_loads_dataclasses_or_inspect(run_command, argv, code):
    loaded = run_command(argv, code)
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


@pytest.mark.parametrize(
    "argv, code", [c for c in COMMANDS if c[0][0] != "lint"], ids=_command_id
)
def test_no_command_but_lint_loads_typing(run_command, bare_interpreter, argv, code):
    # every annotation is a string (from __future__ import annotations), so
    # only lint's TYPE_CHECKING guard needs typing at run time
    assert "typing" not in set(run_command(argv, code)) - bare_interpreter
