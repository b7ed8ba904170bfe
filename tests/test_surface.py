"""The toolkit's surface: every public definition is used or exported.

A top-level public function or class of ``src/ums`` must be named
somewhere else in ``src/ums`` (called, imported, read from its module)
or be exported through ``ums.__init__._SOURCES``; code whose only
callers are tests does not belong in the toolkit.  A definition naming
itself does not count, and neither does naming a class as the base of
another: an exception base that nothing raises, catches or exports is a
layer no caller can reach.

No value class writes its own ``__init__``: :class:`ums.model.Value`
builds each one from the class's ``_fields`` and refuses, when the
class is defined, one written in the class body.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import ums

SRC = Path(ums.__file__).parent


def _parsed() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(SRC)): ast.parse(path.read_text("utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _names_used(tree: ast.Module) -> Counter:
    """How often *tree* names each name: as a name, as an imported name,
    or as an attribute of an imported name.  A top-level definition's
    references to itself and class bases are left out."""
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    inside: dict[int, str] = {}  # node -> the top-level definition holding it
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside.update((id(inner), node.name) for inner in ast.walk(node))
    bases = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for base in node.bases
        for inner in ast.walk(base)
    }
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
        ):
            name = node.attr
        else:
            continue
        if id(node) not in bases and inside.get(id(node)) != name:
            used[name] += 1
    return used


def unused_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each public top-level function or class that no
    code of the package names and ``ums`` does not export."""
    exported = {name for names in ums._SOURCES.values() for name in names.split()}
    used: Counter = Counter()
    for tree in trees.values():
        used += _names_used(tree)
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in _definitions(tree)
        if node.name not in exported and not used[node.name]
    ]


def test_every_public_definition_is_used_or_exported():
    assert unused_definitions(_parsed()) == []


def test_a_definition_only_tests_reach_is_found():
    trees = _parsed()
    trees["metabase.py"].body.append(
        ast.parse("def dump_catalog(catalog):\n    return dump_catalog(catalog)\n").body[0]
    )
    trees["errors.py"].body.extend(
        ast.parse(
            "class CatalogError(UmsError):\n    pass\n\n"
            "class CatalogClash(CatalogError):\n    pass\n"
        ).body
    )
    assert unused_definitions(trees) == [
        "errors.py:CatalogError",
        "errors.py:CatalogClash",
        "metabase.py:dump_catalog",
    ]


def test_every_value_constructor_is_built():
    """Every module loads (so no value class writes ``__init__``), and
    each value class's constructor is the one :class:`ums.model.Value`
    wrote out."""
    for path in SRC.rglob("*.py"):
        module = ".".join(("ums", *path.relative_to(SRC).with_suffix("").parts))
        importlib.import_module(module.removesuffix(".__init__"))
    found = [cls for cls in ums.model.Value.__subclasses__() if cls.__module__.startswith("ums.")]
    assert len(found) == 18
    for cls in found:
        assert cls.__init__.__code__.co_filename == ums.model._WRITTEN_OUT
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__


def test_a_written_value_constructor_is_refused():
    with pytest.raises(TypeError, match=r"\.Written writes __init__; Value builds it from _fields$"):

        class Written(ums.model.Value):
            __slots__ = _fields = ("text",)

            def __init__(self, text):
                pass
