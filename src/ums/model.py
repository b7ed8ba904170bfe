"""Core record model: canonical names, identifier bindings, records.

Every value is immutable after construction and normalized to Unicode
NFC, so equality and duplicate detection are plain string comparisons.
Records are allowed to be *partial* (empty name, no formats, no date);
completeness is enforced where it matters, at serialization and in
validation reports.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import timestamps
from .errors import InvalidTimestamp, InvariantViolation, MissingComponent
from .escaping import escape, split_fields, unescape
from .languages import is_language_code

DOC_TYPES = ("text", "image", "photo", "video", "sound")

#: carrier names; defined here so the CLI can name them without loading
#: the extractors (``ums.extractors`` re-exports them)
CARRIER_PDF = "pdf"
CARRIER_HTML = "html"
CARRIER_SIDECAR = "sidecar"

NAME_KINDS = ("person", "organization", "document", "other")
EVENT_KINDS = ("create", "rename", "reclassify", "relocate", "reformat", "translate")

ACCESS_PUBLIC, ACCESS_INTERNAL, ACCESS_RESTRICTED, ACCESS_SECRET = range(4)
_ACCESS_TOKENS = {str(level): level for level in range(4)}

#: keys (sidecar lines and mapping targets) that hold at most one value
SINGLETON_KEYS = frozenset({"name", "date", "type", "summary", "access"})
#: the identification triple of a complete record: key -> record field
REQUIRED_FIELDS = {"name": "name", "format": "formats", "date": "date"}

#: strictness of sidecar parsing and of record validation
STRICT = "strict"
LENIENT = "lenient"

#: a format tag (whole-string match); every format is checked with
#: :func:`format_tag`
FORMAT_RE = re.compile(r"[a-z0-9]+")
_SYSTEM_RE = re.compile(r"[A-Z0-9]+")
_PREV_RE = re.compile(r"[0-9a-f]{16}")
_QUALIFIER_RE = re.compile(r"\d+", re.ASCII)

GENESIS_PREV = "0" * 16

#: separator between who-parts inside a canonical name; never produced by
#: escaping (a literal backslash-comma escapes to backslash-backslash-comma)
_WHO_SEP = "\\,"
#: one escaped who-part: plain text and escape pairs other than the
#: marker; a backslash at the very end stays in the part, for unescape
#: to reject
_WHO_PART_RE = re.compile(r"(?:[^\\]+|\\[^,]|\\\Z)*")


def nfc(value: str) -> str:
    return unicodedata.normalize("NFC", value)


def _rejected(message: str, field: str, index: int = 0) -> InvariantViolation:
    """A record check's rejection, naming the field and the entry's index."""
    exc = InvariantViolation(message)
    exc.field, exc.index = field, index
    return exc


def checked(
    field: Optional[str], values: Iterable, rule=nfc, what: Optional[str] = None
) -> tuple:
    """Each value through *rule*; given *what*, a value must be non-empty
    text first.  A rejection names *field* and the index of the value it
    rejects."""
    out: list = []
    try:
        for v in values:
            if what is not None and (not isinstance(v, str) or v == ""):
                raise InvariantViolation(f"empty or non-text {what} entry")
            out.append(rule(v))
    except InvariantViolation as exc:
        exc.field, exc.index = field, len(out)
        raise
    return tuple(out)


def _reject_duplicates(values: Sequence, what: str, field: str) -> None:
    if len(set(values)) == len(values):
        return
    seen = set()
    for index, v in enumerate(values):
        if v in seen:
            raise _rejected(f"duplicate {what}: {v!r}", field, index)
        seen.add(v)


def format_tag(value: str) -> str:
    """A format tag as records store it (NFC, lowercase), or raise."""
    tag = nfc(value).lower()
    if not FORMAT_RE.fullmatch(tag):
        raise InvariantViolation(f"bad format tag: {tag!r}")
    return tag


def language_code(value: str) -> str:
    """A language code as records store it (NFC, lowercase), or raise."""
    code = nfc(value).lower()
    if not is_language_code(code):
        raise InvariantViolation(f"not a natural-language code: {code!r}")
    return code


def document_type(value: str) -> str:
    """*value* if it names a document type, or raise."""
    if value not in DOC_TYPES:
        raise _rejected(f"unknown document type: {value!r}", "doc_type")
    return value


def access_level(token: str) -> int:
    """The access level a token ``0`` to ``3`` states, or raise."""
    try:
        return _ACCESS_TOKENS[token]
    except KeyError:
        raise InvariantViolation(f"bad access level: {token!r}") from None


@dataclass(frozen=True)
class IdentifierBinding:
    """One (classification system, identity number) pair."""

    system: str
    id: str

    def __post_init__(self):
        system = nfc(self.system).upper()
        if not _SYSTEM_RE.fullmatch(system):
            raise InvariantViolation(f"bad system token: {self.system!r}")
        if self.id == "":
            raise InvariantViolation("empty identity number")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "id", nfc(self.id))


@dataclass(frozen=True)
class Subject:
    """A depicted object or phenomenon, optionally tied to a source catalog."""

    text: str
    source: Optional[str] = None

    def __post_init__(self):
        if self.text == "":
            raise InvariantViolation("empty subject")
        object.__setattr__(self, "text", nfc(self.text))
        if self.source is not None:
            if self.source == "":
                raise InvariantViolation("empty subject source")
            object.__setattr__(self, "source", nfc(self.source))


@dataclass(frozen=True)
class ProvenanceEvent:
    """One append-only history entry."""

    seq: int
    timestamp: str
    kind: str
    payload: str
    prev: str

    def __post_init__(self):
        if self.seq < 0:
            raise InvariantViolation("negative event seq")
        if self.kind not in EVENT_KINDS:
            raise InvariantViolation(f"unknown event kind: {self.kind!r}")
        timestamps.ensure_canonical(self.timestamp)
        if not _PREV_RE.fullmatch(self.prev):
            raise InvariantViolation(f"bad prev digest: {self.prev!r}")
        object.__setattr__(self, "payload", nfc(self.payload))


@dataclass(frozen=True)
class SystematicName:
    """Who/what + where + when designation with a deterministic string form."""

    kind: str
    who: tuple[str, ...]
    when: Optional[str] = None
    where: Optional[str] = None
    qualifier: Optional[str] = None

    def __post_init__(self):
        if self.kind not in NAME_KINDS:
            raise InvariantViolation(f"unknown name kind: {self.kind!r}")
        who = checked(None, self.who, what="name component")
        if not who:
            raise MissingComponent("a systematic name needs a who-part")
        object.__setattr__(self, "who", who)
        if self.when is not None:
            object.__setattr__(self, "when", timestamps.ensure_canonical(self.when))
        if self.where is not None:
            if self.where == "":
                raise InvariantViolation("empty where component")
            object.__setattr__(self, "where", nfc(self.where))
        if self.qualifier is not None and not _QUALIFIER_RE.fullmatch(self.qualifier):
            raise InvariantViolation(f"qualifier must be digits: {self.qualifier!r}")

    @property
    def canonical(self) -> str:
        """Deterministic string form ``kind:who|when|where[|qualifier]``.

        Who-parts are escaped and joined with a backslash-comma marker,
        which escaped text cannot contain, so the string is a bijective
        function of the fields.
        """
        who = _WHO_SEP.join(escape(p) for p in self.who)
        parts = [who, escape(self.when or ""), escape(self.where or "")]
        if self.qualifier is not None:
            parts.append(self.qualifier)
        return f"{self.kind}:" + "|".join(parts)


def make_systematic_name(
    kind: str,
    who: Iterable[str],
    when: Optional[str] = None,
    where: Optional[str] = None,
    qualifier: Optional[str] = None,
    scope: str = "strict",
) -> SystematicName:
    """Build a systematic name, enforcing the identification minimum.

    In strict scope a person needs at least a given and a family name
    plus birth date and place; an organization needs its founding date
    and place.  Local scope relaxes those requirements.
    """
    if scope not in ("strict", "local"):
        raise InvariantViolation(f"unknown scope: {scope!r}")
    who = tuple(who)
    if not who or any(p == "" for p in who):
        raise MissingComponent("who-part must have non-empty components")
    if when is not None:
        when = timestamps.normalize(when)
    if scope == "strict" and kind in ("person", "organization"):
        if kind == "person" and len(who) < 2:
            raise MissingComponent("a person needs a family name in strict scope")
        if when is None:
            raise MissingComponent(f"a {kind} needs a date in strict scope")
        if where is None:
            raise MissingComponent(f"a {kind} needs a place in strict scope")
    return SystematicName(kind=kind, who=who, when=when, where=where, qualifier=qualifier)


def _split_who(segment: str) -> list[str]:
    """Split an escaped who-segment on the backslash-comma marker; the
    parts stay escaped."""
    if "\\" not in segment:
        return [segment]
    parts: list[str] = []
    match = _WHO_PART_RE.match
    start = 0
    while True:
        end = match(segment, start).end()
        parts.append(segment[start:end])
        if end == len(segment):
            return parts
        start = end + len(_WHO_SEP)


def parse_systematic_name(canonical: str) -> SystematicName:
    """Inverse of :attr:`SystematicName.canonical`."""
    kind, sep, rest = canonical.partition(":")
    if not sep or kind not in NAME_KINDS:
        raise InvariantViolation(f"bad canonical name: {canonical!r}")
    segments = split_fields(rest)
    if len(segments) not in (3, 4):
        raise InvariantViolation(f"bad canonical name arity: {canonical!r}")
    try:
        who = tuple(unescape(p) for p in _split_who(segments[0]))
        when = unescape(segments[1]) or None
        where = unescape(segments[2]) or None
    except ValueError as exc:
        raise InvariantViolation(f"bad canonical name: {exc}") from None
    qualifier = segments[3] if len(segments) == 4 else None
    return SystematicName(kind=kind, who=who, when=when, where=where, qualifier=qualifier)


@dataclass(frozen=True)
class UmsRecord:
    """Canonical metadata description of one document.

    ``name`` is the primary systematic name and never changes once set;
    every modification is appended to ``history`` and mirrored into the
    grow-only lists.  A record with an empty name, no formats or no date
    is *partial*: storable in memory, not serializable.
    """

    name: str = ""
    synonyms: tuple[str, ...] = ()
    formats: tuple[str, ...] = ()
    date: Optional[str] = None
    doc_type: Optional[str] = None
    summary: Optional[str] = None
    languages: tuple[str, ...] = ()
    locations: tuple[str, ...] = ()
    creators: tuple[str, ...] = ()
    identifiers: tuple[IdentifierBinding, ...] = ()
    access: int = ACCESS_PUBLIC
    subjects: tuple[Subject, ...] = ()
    tags: tuple[str, ...] = ()
    history: tuple[ProvenanceEvent, ...] = ()

    def __post_init__(self):
        """Normalize and check every value; a rejection names the record
        field and the index of the entry it rejects."""
        set_ = object.__setattr__
        set_(self, "name", nfc(self.name))
        set_(self, "synonyms", checked("synonyms", self.synonyms, what="synonym"))
        set_(self, "formats", checked("formats", self.formats, format_tag, "format"))
        if self.date is not None:
            try:
                timestamps.ensure_canonical(self.date)
            except InvalidTimestamp as exc:
                exc.field = "date"
                raise
        if self.doc_type is not None:
            document_type(self.doc_type)
        if self.summary is not None:
            if self.summary == "":
                raise _rejected("empty summary", "summary")
            set_(self, "summary", nfc(self.summary))
        languages = checked("languages", self.languages, language_code, "language")
        set_(self, "languages", languages)
        set_(self, "locations", checked("locations", self.locations, what="location"))
        set_(self, "creators", checked("creators", self.creators, what="creator"))
        set_(self, "identifiers", tuple(self.identifiers))
        set_(self, "subjects", tuple(self.subjects))
        set_(self, "tags", checked("tags", self.tags, what="tag"))
        set_(self, "history", tuple(self.history))

        if not isinstance(self.access, int) or not 0 <= self.access <= 3:
            raise _rejected(f"access level out of range: {self.access!r}", "access")

        _reject_duplicates(self.synonyms, "synonym", "synonyms")
        _reject_duplicates(self.formats, "format", "formats")
        _reject_duplicates(self.languages, "language", "languages")
        _reject_duplicates(self.locations, "location", "locations")
        _reject_duplicates(self.creators, "creator", "creators")
        bindings = [(b.system, b.id) for b in self.identifiers]
        _reject_duplicates(bindings, "identifier", "identifiers")
        subjects = [(s.text, s.source) for s in self.subjects]
        _reject_duplicates(subjects, "subject", "subjects")
        _reject_duplicates(self.tags, "tag", "tags")

        for i, event in enumerate(self.history):
            if event.seq != i:
                message = f"history seq must run 0,1,2,...; got {event.seq} at index {i}"
                raise _rejected(message, "history", i)
        if self.history and self.history[0].kind != "create":
            raise _rejected("history must start with a create event", "history")


def missing_fields(
    record: UmsRecord, fields: dict[str, str] = REQUIRED_FIELDS
) -> list[str]:
    """The keys of *fields* whose record field is empty or unset."""
    return [key for key, field in fields.items() if not getattr(record, field)]


def is_complete(record: UmsRecord) -> bool:
    """True when the record carries the required identification triple."""
    return not missing_fields(record)


def require_complete(record: UmsRecord) -> None:
    absent = missing_fields(record)
    if absent:
        raise InvariantViolation(f"record incomplete, missing: {', '.join(absent)}")
