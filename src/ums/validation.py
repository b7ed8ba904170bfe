"""Record validation against a metabase."""

from __future__ import annotations

from dataclasses import dataclass

from .metabase import AUTHORS, ORGANIZATIONS, SUBJECTS_PREFIX, Metabase, resolve
from .model import LENIENT, STRICT, UmsRecord

#: fields every description should carry (the identification triple)
REQUIRED_FIELDS = ("name", "format", "date")
#: fields a good description should carry
RECOMMENDED_FIELDS = ("language", "location", "creator")


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def creator_known(metabase: Metabase, creator: str) -> bool:
    """True when *creator* resolves exactly in the author or organization
    catalog."""
    for catalog_name in (AUTHORS, ORGANIZATIONS):
        catalog = metabase.get(catalog_name)
        if catalog is not None and resolve(catalog, creator).kind == "exact":
            return True
    return False


def validate_record(
    record: UmsRecord, metabase: Metabase, mode: str = STRICT
) -> ValidationReport:
    """Report admissibility violations; never raises on record content.

    Strict mode checks required and recommended fields and that every
    creator resolves in the author or organization catalogs.  Both modes
    check that identifier systems are registered and that each subject's
    declared source catalog exists.
    """
    if mode not in (STRICT, LENIENT):
        raise ValueError(f"unknown validation mode: {mode!r}")
    violations: list[Violation] = []

    if mode == STRICT:
        present = {
            "name": record.name != "",
            "format": bool(record.formats),
            "date": record.date is not None,
        }
        for field in REQUIRED_FIELDS:
            if not present[field]:
                violations.append(
                    Violation("MissingRequiredField", f"record has no {field}")
                )
        recommended = {
            "language": bool(record.languages),
            "location": bool(record.locations),
            "creator": bool(record.creators),
        }
        for field in RECOMMENDED_FIELDS:
            if not recommended[field]:
                violations.append(
                    Violation("MissingRecommendedField", f"record has no {field}")
                )
        for creator in record.creators:
            if not creator_known(metabase, creator):
                violations.append(
                    Violation(
                        "CreatorNotInCatalog",
                        f"creator not in author/organization catalogs: {creator}",
                    )
                )

    for binding in record.identifiers:
        if not metabase.is_registered_system(binding.system):
            violations.append(
                Violation(
                    "UnknownIdentifierSystem",
                    f"identifier system not registered: {binding.system}",
                )
            )

    for subject in record.subjects:
        if subject.source is None:
            continue
        if metabase.get(SUBJECTS_PREFIX + subject.source) is None:
            violations.append(
                Violation(
                    "UnknownSubjectSource",
                    f"no catalog for subject source: {subject.source}",
                )
            )

    return ValidationReport(violations=tuple(violations))
