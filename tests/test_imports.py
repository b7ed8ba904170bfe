"""What importing the package and the CLI loads."""

from __future__ import annotations

import subprocess
import sys

import pytest

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
