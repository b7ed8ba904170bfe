"""Universal metadata toolkit.

Extract raw metadata from document carriers, normalize it into
canonical records with sidecar serialization, validate against
controlled-vocabulary catalogs, lint for the usual pathologies, and
track every modification in an append-only, tamper-evident history.

``import ums`` loads no submodule: each public name below is imported
from its submodule on first use (PEP 562), so a command that only
parses sidecars never loads the extractors, lint or the metabase.
``from ums import X`` works as before, loading X's submodule then.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines
_SOURCES = {
    "association": "CorpusIndex build_index group_by related",
    "errors": (
        "BrokenChain DuplicateEntry DuplicateSingletonKey InvalidTimestamp"
        " InvariantViolation MalformedPayload MappingError MissingComponent"
        " NotPdf NotSupported RuleConflict SidecarSyntaxError UmsError"
        " UnknownKey UnknownRecord UnknownSystem"
    ),
    "extractors": "RawMetadata extract_html_meta extract_pdf_info load_mapping map_raw_to_ums",
    "identifiers": "IdentifierCheck validate_identifier",
    "lint": "LintFinding lint_raw lint_record",
    "metabase": (
        "Catalog CatalogEntry Metabase Resolution empty_metabase load_catalog"
        " load_metabase resolve"
    ),
    "model": (
        "IdentifierBinding ProvenanceEvent Subject SystematicName UmsRecord"
        " parse_systematic_name"
    ),
    "provenance": "VerifyResult apply_event original_view verify_history",
    "sidecar": "canonical_serialize parse_record parse_record_with_warnings",
    "validation": "ValidationReport Violation validate_record",
}
__all__ = sorted(" ".join(_SOURCES.values()).split())


def lazy_loader(package: str, namespace: dict, sources: dict[str, str]):
    """A PEP 562 ``__getattr__`` for *package*, whose globals are
    *namespace*: each name *sources* lists (submodule -> the public names
    it defines) is imported from its submodule on first use and then kept
    in *namespace*."""
    home = {name: module for module, names in sources.items() for name in names.split()}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = lazy_loader(__name__, globals(), _SOURCES)
