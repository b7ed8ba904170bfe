"""Offline syntactic validation of identity numbers.

Live resolution is out of scope by design: registries go stale and
lookups fail, so only checksum and lexical shape are checked here and
resolvability stays unknown.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .errors import UnknownSystem
from .model import Value, set_slot

#: classification systems registered out of the box
BUILTIN_SYSTEMS = ("DOI", "ISBN", "PMID", "URN", "PURL", "ISNI", "OCLC")

_DOI_RE = re.compile(r"10\.\d{4,9}/\S+", re.ASCII)
_PMID_RE = re.compile(r"[1-9]\d{0,7}", re.ASCII)
_URN_NID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9-]{0,31}")
_URN_NSS_CHAR_RE = re.compile(r"[A-Za-z0-9()+,\-.:=@;$_!*']")


class IdentifierCheck(Value):
    """valid, or invalid with a reason token."""

    __slots__ = _fields = ("valid", "reason")

    def __init__(self, valid: bool, reason: Optional[str] = None):
        set_slot(self, "valid", valid)
        set_slot(self, "reason", reason)

    @staticmethod
    def ok() -> "IdentifierCheck":
        return IdentifierCheck(valid=True)

    @staticmethod
    def bad(reason: str) -> "IdentifierCheck":
        return IdentifierCheck(valid=False, reason=reason)


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
            return IdentifierCheck.bad("BadCharacter")
        digits = [int(c) for c in compact]
        weighted = sum(d * (1 if i % 2 == 0 else 3) for i, d in enumerate(digits[:12]))
        expected = (10 - weighted % 10) % 10
        if digits[12] != expected:
            return IdentifierCheck.bad("Checksum")
        return IdentifierCheck.ok()
    if len(compact) == 10:
        head, last = compact[:9], compact[9]
        if not (head.isdigit() and head.isascii()):
            return IdentifierCheck.bad("BadCharacter")
        last_value = _digit_value(last)
        if last_value is None:
            return IdentifierCheck.bad("BadCharacter")
        partial = sum((10 - i) * int(c) for i, c in enumerate(head))
        expected = (11 - partial % 11) % 11
        if last_value != expected:
            return IdentifierCheck.bad("Checksum")
        return IdentifierCheck.ok()
    return IdentifierCheck.bad("BadLength")


def check_doi(value: str) -> IdentifierCheck:
    """DOI shape ``10.<4-9 digits>/<non-space suffix>``."""
    if not value.startswith("10."):
        return IdentifierCheck.bad("BadPrefix")
    if not _DOI_RE.fullmatch(value):
        return IdentifierCheck.bad("BadSyntax")
    return IdentifierCheck.ok()


def check_pmid(value: str) -> IdentifierCheck:
    """PMID: integer of one to eight digits."""
    if not _PMID_RE.fullmatch(value):
        return IdentifierCheck.bad("BadSyntax")
    return IdentifierCheck.ok()


def check_urn(value: str) -> IdentifierCheck:
    """RFC 2141 lexical shape ``urn:<nid>:<nss>``."""
    parts = value.split(":", 2)
    if len(parts) != 3 or parts[0].lower() != "urn":
        return IdentifierCheck.bad("BadSyntax")
    nid, nss = parts[1], parts[2]
    if not _URN_NID_RE.fullmatch(nid) or nid.lower() == "urn":
        return IdentifierCheck.bad("BadSyntax")
    if not nss:
        return IdentifierCheck.bad("BadSyntax")
    i = 0
    while i < len(nss):
        ch = nss[i]
        if ch == "%":
            if not re.match(r"%[0-9A-Fa-f]{2}", nss[i:]):
                return IdentifierCheck.bad("BadSyntax")
            i += 3
        elif _URN_NSS_CHAR_RE.match(ch):
            i += 1
        else:
            return IdentifierCheck.bad("BadSyntax")
    return IdentifierCheck.ok()


_CHECKERS = {
    "ISBN": check_isbn,
    "DOI": check_doi,
    "PMID": check_pmid,
    "URN": check_urn,
}


def validate_identifier(
    system: str, id: str, registered: Optional[Iterable[str]] = None
) -> IdentifierCheck:
    """Check *id* against the rules of *system*.

    *registered* is the set of admissible system tokens (the built-in
    seven when omitted).  Systems without a bespoke rule get a
    non-empty check only.  Raises UnknownSystem for unregistered tokens.
    """
    token = system.upper()
    known = {s.upper() for s in (registered if registered is not None else BUILTIN_SYSTEMS)}
    if token not in known:
        raise UnknownSystem(f"system not registered: {system!r}")
    checker = _CHECKERS.get(token)
    if checker is not None:
        return checker(id)
    if not id.strip():
        return IdentifierCheck.bad("Empty")
    return IdentifierCheck.ok()
