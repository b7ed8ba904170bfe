"""Metadata pathology detection.

Raw-level rules catch what carrier files typically get wrong: the same
format stated over and over, two different creatorship claims, creation
and modification timestamps that coincide and so say nothing, invalid
identity numbers.  Record-level rules catch gaps in an already-normalized
description.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .identifiers import BUILTIN_SYSTEMS, validate_identifier
# perfbench/spans.py wraps ums.lint.resolve, and a traced run fails if it is unbound
from .metabase import Metabase, resolve  # noqa: F401
from .model import UmsRecord, Value, missing_fields, set_slot
from .validation import RECOMMENDED_FIELDS, uncatalogued_creators

if TYPE_CHECKING:
    from .extractors import RawMetadata

ERROR = "error"
WARNING = "warning"
INFO = "info"
_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}

#: related-systems table of system tokens: presence in one side suggests
#: the other
DEFAULT_RELATED_SYSTEMS = (("OCLC", "PMID"),)


class LintFinding(Value):
    __slots__ = _fields = ("code", "severity", "message", "evidence")

    def __init__(
        self, code: str, severity: str, message: str, evidence: tuple[tuple[str, str], ...] = ()
    ):
        set_slot(self, "code", code)
        set_slot(self, "severity", severity)
        set_slot(self, "message", message)
        set_slot(self, "evidence", evidence)

    def line(self) -> str:
        return f"{self.code}\t{self.severity}\t{self.message}"


def at_least_warning(findings: Iterable[LintFinding]) -> bool:
    return any(_SEVERITY_RANK[f.severity] >= _SEVERITY_RANK[WARNING] for f in findings)


def _format_evidence(raw: RawMetadata) -> tuple[tuple[str, str], ...]:
    """Pairs that state the carrier format: format-bearing keys, or the
    carrier token inside the value."""
    token = raw.carrier.lower()
    version_key = f"{token}version"
    hits = []
    for key, value in raw.pairs:
        folded = key.lower()
        if "filetype" in folded or "mimetype" in folded or version_key in folded:
            hits.append((key, value))
        elif token in value.lower():
            hits.append((key, value))
    return tuple(hits)


def lint_raw(raw: RawMetadata) -> list[LintFinding]:
    """Diagnose raw carrier pairs; deterministic rule and evidence order."""
    # imported here so that linting a sidecar loads no extractor
    from .extractors import base_key

    findings: list[LintFinding] = []

    fmt = _format_evidence(raw)
    if len(fmt) > 1:
        findings.append(
            LintFinding(
                code="FORMAT_REDUNDANCY",
                severity=WARNING,
                message=f"the carrier format is stated {len(fmt)} times",
                evidence=fmt,
            )
        )

    # one pass: the first pair of each base key (case folded), and the
    # pairs whose base key names an identifier system
    first: dict[str, tuple[str, str]] = {}
    identifiers: list[tuple[str, str, str]] = []
    for key, value in raw.pairs:
        base = base_key(key)
        first.setdefault(base.lower(), (key, value))
        token = base.upper()
        if token in BUILTIN_SYSTEMS:
            identifiers.append((token, key, value))

    author, creator = first.get("author"), first.get("creator")
    if author is not None and creator is not None and author[1] != creator[1]:
        findings.append(
            LintFinding(
                code="AUTHOR_AMBIGUOUS",
                severity=WARNING,
                message=f"author {author[1]!r} and creator {creator[1]!r} disagree",
                evidence=(author, creator),
            )
        )

    created, modified = first.get("createdate"), first.get("modifydate")
    if created is not None and modified is not None and created[1] == modified[1]:
        findings.append(
            LintFinding(
                code="TIMESTAMP_COINCIDENT",
                severity=WARNING,
                message="creation and modification timestamps coincide",
                evidence=(created, modified),
            )
        )

    for token, key, value in identifiers:
        check = validate_identifier(token, value)
        if not check.valid:
            findings.append(
                LintFinding(
                    code="IDENTIFIER_INVALID",
                    severity=ERROR,
                    message=f"{token} value {value!r} is invalid ({check.reason})",
                    evidence=((key, value),),
                )
            )

    # what best-effort extraction had to skip, so a partial read is seen
    for error in raw.errors:
        findings.append(LintFinding(code="EXTRACT_PARTIAL", severity=INFO, message=error))

    return findings


def lint_record(record: UmsRecord, metabase: Optional[Metabase] = None) -> list[LintFinding]:
    """Diagnose a normalized record.

    Catalog-dependent rules only run when a metabase is supplied.
    """
    findings: list[LintFinding] = []

    for key in missing_fields(record, RECOMMENDED_FIELDS):
        findings.append(
            LintFinding(
                code="MISSING_RECOMMENDED",
                severity=WARNING,
                message=f"record has no {key}",
            )
        )

    if metabase is not None:
        for creator in uncatalogued_creators(record, metabase):
            findings.append(
                LintFinding(
                    code="UNCATALOGED_CREATOR",
                    severity=WARNING,
                    message=f"creator not in author/organization catalogs: {creator}",
                )
            )

    present = {binding.system for binding in record.identifiers}
    for left, right in DEFAULT_RELATED_SYSTEMS:
        for have, missing in ((left, right), (right, left)):
            if have in present and missing not in present:
                findings.append(
                    LintFinding(
                        code="SYSTEM_GAP",
                        severity=WARNING,
                        message=(
                            f"record is identified in {have} but not in the"
                            f" related system {missing}"
                        ),
                    )
                )

    if not record.subjects:
        findings.append(
            LintFinding(
                code="EMPTY_SUBJECTS",
                severity=INFO,
                message="record lists no depicted objects or phenomena",
            )
        )

    return findings
