"""Offline syntactic validation of identity numbers.

Live resolution is out of scope by design: registries go stale and
lookups fail, so only checksum and lexical shape are checked here and
resolvability stays unknown.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import UnknownSystem
from .model import Value, set_slot

#: classification systems registered out of the box
BUILTIN_SYSTEMS = ("DOI", "ISBN", "PMID", "URN", "PURL", "ISNI", "OCLC")

_DOI_RE = re.compile(r"10\.\d{4,9}/\S+", re.ASCII)
_PMID_RE = re.compile(r"[1-9]\d{0,7}", re.ASCII)
_URN_NID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9-]{0,31}")
_URN_NSS_RE = re.compile(r"(?:[A-Za-z0-9()+,\-.:=@;$_!*']|%[0-9A-Fa-f]{2})+")


class IdentifierCheck(Value):
    """valid, or invalid with a reason token."""

    __slots__ = _fields = ("valid", "reason")

    def __init__(self, valid: bool, reason: Optional[str] = None):
        set_slot(self, "valid", valid)
        set_slot(self, "reason", reason)


def _digit_value(ch: str) -> Optional[int]:
    if ch.isdigit() and ch.isascii():
        return int(ch)
    if ch in ("X", "x"):
        return 10
    return None


def check_isbn(value: str) -> IdentifierCheck:
    """ISBN-10 or ISBN-13, hyphens and spaces ignored."""
    compact = value.replace("-", "").replace(" ", "")
    if len(compact) == 13:
        if not (compact.isdigit() and compact.isascii()):
            return IdentifierCheck(False, "BadCharacter")
        digits = [int(c) for c in compact]
        weighted = sum(d * (1 if i % 2 == 0 else 3) for i, d in enumerate(digits[:12]))
        expected = (10 - weighted % 10) % 10
        if digits[12] != expected:
            return IdentifierCheck(False, "Checksum")
        return IdentifierCheck(True)
    if len(compact) == 10:
        head, last = compact[:9], compact[9]
        if not (head.isdigit() and head.isascii()):
            return IdentifierCheck(False, "BadCharacter")
        last_value = _digit_value(last)
        if last_value is None:
            return IdentifierCheck(False, "BadCharacter")
        partial = sum((10 - i) * int(c) for i, c in enumerate(head))
        expected = (11 - partial % 11) % 11
        if last_value != expected:
            return IdentifierCheck(False, "Checksum")
        return IdentifierCheck(True)
    return IdentifierCheck(False, "BadLength")


def check_doi(value: str) -> IdentifierCheck:
    """DOI shape ``10.<4-9 digits>/<non-space suffix>``."""
    if not value.startswith("10."):
        return IdentifierCheck(False, "BadPrefix")
    if not _DOI_RE.fullmatch(value):
        return IdentifierCheck(False, "BadSyntax")
    return IdentifierCheck(True)


def check_pmid(value: str) -> IdentifierCheck:
    """PMID: integer of one to eight digits."""
    if not _PMID_RE.fullmatch(value):
        return IdentifierCheck(False, "BadSyntax")
    return IdentifierCheck(True)


def check_urn(value: str) -> IdentifierCheck:
    """RFC 2141 lexical shape ``urn:<nid>:<nss>``."""
    parts = value.split(":", 2)
    if len(parts) != 3 or parts[0].lower() != "urn":
        return IdentifierCheck(False, "BadSyntax")
    nid, nss = parts[1], parts[2]
    if not _URN_NID_RE.fullmatch(nid) or nid.lower() == "urn":
        return IdentifierCheck(False, "BadSyntax")
    if not _URN_NSS_RE.fullmatch(nss):
        return IdentifierCheck(False, "BadSyntax")
    return IdentifierCheck(True)


_CHECKERS = {
    "ISBN": check_isbn,
    "DOI": check_doi,
    "PMID": check_pmid,
    "URN": check_urn,
}


def validate_identifier(system: str, id: str) -> IdentifierCheck:
    """Check *id* against the rules of *system*, one of the built-in
    systems.  Systems without a bespoke rule get a non-empty check
    only.  Raises UnknownSystem for any other token.
    """
    token = system.upper()
    if token not in BUILTIN_SYSTEMS:
        raise UnknownSystem(f"system not registered: {system!r}")
    checker = _CHECKERS.get(token)
    if checker is not None:
        return checker(id)
    if not id.strip():
        return IdentifierCheck(False, "Empty")
    return IdentifierCheck(True)
