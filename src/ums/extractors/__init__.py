"""Raw metadata extraction from real document carriers.

Each extractor is imported on first use (PEP 562), so extracting a PDF
loads no HTML parser.
"""

from __future__ import annotations

from .. import lazy_loader
from ..model import CARRIER_HTML, CARRIER_PDF, CARRIER_SIDECAR, Value


class RawMetadata(Value):
    """Carrier-level key-value pairs exactly as found in a file.

    Keys are preserved verbatim; a repeated key gets an exiftool-style
    `` (n)`` suffix so repeats stay distinguishable.  ``errors`` records
    what best-effort extraction had to skip.
    """

    __slots__ = _fields = ("carrier", "pairs", "errors")
    _defaults = ((),)


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

__getattr__ = lazy_loader(
    __name__, globals(), {"html": "extract_html_meta", "pdf": "extract_pdf_info"}
)
