"""Record validation against a metabase."""

from __future__ import annotations

from .metabase import AUTHORS, ORGANIZATIONS, SUBJECTS_PREFIX, Metabase, resolve
from .model import LENIENT, STRICT, UmsRecord, Value, missing_fields, set_slot

#: fields a good description should carry: key -> record field
RECOMMENDED_FIELDS = {"language": "languages", "location": "locations", "creator": "creators"}


class Violation(Value):
    __slots__ = _fields = ("code", "message")

    def __init__(self, code: str, message: str):
        set_slot(self, "code", code)
        set_slot(self, "message", message)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationReport(Value):
    __slots__ = _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        set_slot(self, "violations", violations)

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


def uncatalogued_creators(record: UmsRecord, metabase: Metabase) -> list[str]:
    """The creators of *record* that no catalog entry names exactly."""
    return [c for c in record.creators if not creator_known(metabase, c)]


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
        for key in missing_fields(record):
            violations.append(Violation("MissingRequiredField", f"record has no {key}"))
        for key in missing_fields(record, RECOMMENDED_FIELDS):
            violations.append(Violation("MissingRecommendedField", f"record has no {key}"))
        for creator in uncatalogued_creators(record, metabase):
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
