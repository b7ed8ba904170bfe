"""Raw metadata extraction from real document carriers.

Each extractor is imported on first use (PEP 562), so extracting a PDF
loads no HTML parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module

from ..model import CARRIER_HTML, CARRIER_PDF, CARRIER_SIDECAR


@dataclass(frozen=True)
class RawMetadata:
    """Carrier-level key-value pairs exactly as found in a file.

    Keys are preserved verbatim; a repeated key gets an exiftool-style
    `` (n)`` suffix so repeats stay distinguishable.  ``errors`` records
    what best-effort extraction had to skip.
    """

    carrier: str
    pairs: tuple[tuple[str, str], ...]
    byte_size: int
    errors: tuple[str, ...] = ()


def base_key(key: str) -> str:
    """Strip the `` (n)`` repeat suffix, if present."""
    if key.endswith(")") and " (" in key:
        stem, _, suffix = key.rpartition(" (")
        if suffix[:-1].isdigit():
            return stem
    return key


class PairBuilder:
    """Accumulates pairs, suffixing repeated keys with `` (n)``."""

    def __init__(self):
        self._pairs: list[tuple[str, str]] = []
        self._counts: dict[str, int] = {}

    def add(self, key: str, value: str) -> None:
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        self._pairs.append((key if n == 0 else f"{key} ({n})", value))

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._pairs)


# The mapping loads with the package: every extract maps, and its target
# table binds timestamps.normalize at import, before perfbench/spans.py
# wraps that name for a traced run (a later import would keep the wrapper).
from .mapping import (  # noqa: E402
    DEFAULT_MAPPING,
    MappingRule,
    MappingTable,
    load_mapping,
    map_raw_to_ums,
)

#: extractor submodule -> the public names it defines
_SOURCES = {"html": "extract_html_meta", "pdf": "extract_pdf_info"}
_HOME = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = [
    "CARRIER_HTML",
    "CARRIER_PDF",
    "CARRIER_SIDECAR",
    "DEFAULT_MAPPING",
    "MappingRule",
    "MappingTable",
    "PairBuilder",
    "RawMetadata",
    "base_key",
    "extract_html_meta",
    "extract_pdf_info",
    "load_mapping",
    "map_raw_to_ums",
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
