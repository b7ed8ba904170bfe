"""Core record model: canonical names, identifier bindings, records.

Every value is immutable after construction and normalized to Unicode
NFC, so equality and duplicate detection are plain string comparisons.
Records are allowed to be *partial* (empty name, no formats, no date);
completeness is enforced where it matters, at serialization and in
validation reports.

The toolkit's value objects (here and in the other modules) derive from
:class:`Value`.  Each class lists its constructor parameters in
``_fields`` and has ``__slots__`` and a hand-written ``__init__``; the
classes of this module check and normalize in a ``__post_init__`` that
``__init__`` calls once.  :class:`Value` supplies the rest from
``_fields``: attributes cannot be set or deleted (``AttributeError``),
``==`` holds only between two values of one class with equal fields,
the hash covers the same fields, the repr is
``Class(field=value, ...)``, and copying and pickling build a new value
through ``__init__``.  :func:`replace` does the same with some fields
changed, so every check runs again.  A slot outside ``_fields`` holds
something derived from the fields and takes part in none of this.  The
functions of :mod:`dataclasses` accept values too (``replace`` then
also builds through ``__init__``), though no value is built by it and
:mod:`dataclasses` is loaded only when one of them is called.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable, Sequence
from operator import attrgetter

from . import timestamps
from .errors import InvalidTimestamp, InvariantViolation, MissingComponent
from .escaping import escape, split_escaped, split_fields, unescape
from .languages import LANGUAGE_CODES

#: the closed vocabularies map each token to the registry's own string,
#: which every record holding the token then shares; a token read from
#: input is looked up here, never interned (an interned string is immortal
#: on CPython 3.12, so a long-lived importer would keep every hostile token)
DOC_TYPES = {t: t for t in ("text", "image", "photo", "video", "sound")}

#: carrier names; defined here so the CLI can name them without loading
#: the extractors (``ums.extractors`` re-exports them)
CARRIER_PDF = "pdf"
CARRIER_HTML = "html"
CARRIER_SIDECAR = "sidecar"

NAME_KINDS = {k: k for k in ("person", "organization", "document", "other")}
EVENT_KINDS = {
    k: k for k in ("create", "rename", "reclassify", "relocate", "reformat", "translate")
}

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
#: an identifier system token as records store it (whole-string match)
SYSTEM_RE = re.compile(r"[A-Z0-9]+")
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


#: sets a slot of a value object past its frozen ``__setattr__``; every
#: hand-written constructor of the toolkit uses it
set_slot = object.__setattr__


class _DataclassFields:
    """A value class's ``__dataclass_fields__``: the attribute by which
    the functions of :mod:`dataclasses` (``replace``, ``fields``,
    ``asdict``, ``is_dataclass``) know a dataclass, so code written for
    the toolkit's former dataclasses keeps working.  Built on first use
    per class; only a caller that asks for it loads :mod:`dataclasses`."""

    def __init__(self):
        self.of_class: dict[type, dict] = {}

    def __get__(self, value, cls):
        fields = self.of_class.get(cls)
        if fields is None:
            import dataclasses

            spec = [
                name
                if name in cls._fields
                else (name, object, dataclasses.field(init=False, repr=False, compare=False))
                for name in cls.__slots__
            ]
            mirror = dataclasses.make_dataclass(cls.__name__, spec)
            fields = self.of_class[cls] = mirror.__dataclass_fields__
        return fields


class Value:
    """Base of the toolkit's immutable value objects; see the module
    docstring for what it supplies."""

    __slots__ = ()
    #: the constructor's parameters, in order
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def replace(value: Value, /, **changes) -> Value:
    """A copy of *value* with *changes*, built, and so checked, by its class."""
    for name in value._fields:
        if name not in changes:
            changes[name] = getattr(value, name)
    return value.__class__(**changes)


def _rejected(message: str, field: str, index: int = 0) -> InvariantViolation:
    """A record check's rejection, naming the field and the entry's index."""
    exc = InvariantViolation(message)
    exc.field, exc.index = field, index
    return exc


def checked(
    field: str | None, values: Iterable, rule=nfc, what: str | None = None
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
    """A format tag as records store it (NFC, lowercase), or raise; a
    tag already in that form is returned as given."""
    tag = nfc(value)
    if not FORMAT_RE.fullmatch(tag):
        tag = tag.lower()
        if not FORMAT_RE.fullmatch(tag):
            raise InvariantViolation(f"bad format tag: {tag!r}")
    return tag


def language_code(value: str) -> str:
    """The registry's string for a language code (after NFC and
    lowercasing), or raise."""
    code = nfc(value).lower()
    try:
        return LANGUAGE_CODES[code]
    except KeyError:
        raise InvariantViolation(f"not a natural-language code: {code!r}") from None


def document_type(value: str) -> str:
    """The registry's string for a document type, or raise."""
    try:
        return DOC_TYPES[value]
    except (KeyError, TypeError):
        raise _rejected(f"unknown document type: {value!r}", "doc_type") from None


def access_level(token: str) -> int:
    """The access level a token ``0`` to ``3`` states, or raise."""
    try:
        return _ACCESS_TOKENS[token]
    except KeyError:
        raise InvariantViolation(f"bad access level: {token!r}") from None


class IdentifierBinding(Value):
    """One (classification system, identity number) pair."""

    __slots__ = _fields = ("system", "id")

    def __init__(self, system: str, id: str):
        set_slot(self, "system", system)
        set_slot(self, "id", id)
        self.__post_init__()

    def __post_init__(self):
        system = self.system
        if not SYSTEM_RE.fullmatch(system):
            system = nfc(system).upper()
            if not SYSTEM_RE.fullmatch(system):
                raise InvariantViolation(f"bad system token: {self.system!r}")
        if self.id == "":
            raise InvariantViolation("empty identity number")
        set_slot(self, "system", system)
        set_slot(self, "id", nfc(self.id))


class Subject(Value):
    """A depicted object or phenomenon, optionally tied to a source catalog."""

    __slots__ = _fields = ("text", "source")

    def __init__(self, text: str, source: str | None = None):
        set_slot(self, "text", text)
        set_slot(self, "source", source)
        self.__post_init__()

    def __post_init__(self):
        if self.text == "":
            raise InvariantViolation("empty subject")
        set_slot(self, "text", nfc(self.text))
        if self.source is not None:
            if self.source == "":
                raise InvariantViolation("empty subject source")
            set_slot(self, "source", nfc(self.source))


class ProvenanceEvent(Value):
    """One append-only history entry."""

    __slots__ = _fields = ("seq", "timestamp", "kind", "payload", "prev")

    def __init__(self, seq: int, timestamp: str, kind: str, payload: str, prev: str):
        set_slot(self, "seq", seq)
        set_slot(self, "timestamp", timestamp)
        set_slot(self, "kind", kind)
        set_slot(self, "payload", payload)
        set_slot(self, "prev", prev)
        self.__post_init__()

    def __post_init__(self):
        if self.seq < 0:
            raise InvariantViolation("negative event seq")
        try:
            set_slot(self, "kind", EVENT_KINDS[self.kind])
        except (KeyError, TypeError):
            raise InvariantViolation(f"unknown event kind: {self.kind!r}") from None
        timestamps.ensure_canonical(self.timestamp)
        if not _PREV_RE.fullmatch(self.prev):
            raise InvariantViolation(f"bad prev digest: {self.prev!r}")
        set_slot(self, "payload", nfc(self.payload))


class SystematicName(Value):
    """Who/what + where + when designation with a deterministic string form."""

    __slots__ = _fields = ("kind", "who", "when", "where", "qualifier")

    def __init__(
        self,
        kind: str,
        who: tuple[str, ...],
        when: str | None = None,
        where: str | None = None,
        qualifier: str | None = None,
    ):
        set_slot(self, "kind", kind)
        set_slot(self, "who", who)
        set_slot(self, "when", when)
        set_slot(self, "where", where)
        set_slot(self, "qualifier", qualifier)
        self.__post_init__()

    def __post_init__(self):
        try:
            set_slot(self, "kind", NAME_KINDS[self.kind])
        except (KeyError, TypeError):
            raise InvariantViolation(f"unknown name kind: {self.kind!r}") from None
        who = checked(None, self.who, what="name component")
        if not who:
            raise MissingComponent("a systematic name needs a who-part")
        set_slot(self, "who", who)
        if self.when is not None:
            set_slot(self, "when", timestamps.ensure_canonical(self.when))
        if self.where is not None:
            if self.where == "":
                raise InvariantViolation("empty where component")
            set_slot(self, "where", nfc(self.where))
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


def parse_systematic_name(canonical: str) -> SystematicName:
    """Inverse of :attr:`SystematicName.canonical`."""
    kind, sep, rest = canonical.partition(":")
    if not sep or kind not in NAME_KINDS:
        raise InvariantViolation(f"bad canonical name: {canonical!r}")
    segments = split_fields(rest)
    if len(segments) not in (3, 4):
        raise InvariantViolation(f"bad canonical name arity: {canonical!r}")
    who_parts = split_escaped(segments[0], _WHO_SEP, _WHO_PART_RE)
    try:
        who = tuple(unescape(p) for p in who_parts)
        when = unescape(segments[1]) or None
        where = unescape(segments[2]) or None
    except ValueError as exc:
        raise InvariantViolation(f"bad canonical name: {exc}") from None
    qualifier = segments[3] if len(segments) == 4 else None
    return SystematicName(kind=kind, who=who, when=when, where=where, qualifier=qualifier)


class UmsRecord(Value):
    """Canonical metadata description of one document.

    ``name`` is the primary systematic name and never changes once set;
    every modification is appended to ``history`` and mirrored into the
    grow-only lists.  A record with an empty name, no formats or no date
    is *partial*: storable in memory, not serializable.
    """

    #: in sidecar key order
    __slots__ = _fields = (
        "name", "synonyms", "formats", "date", "doc_type", "summary", "languages",
        "locations", "creators", "identifiers", "access", "subjects", "tags", "history",
    )

    def __init__(
        self,
        name: str = "",
        synonyms: tuple[str, ...] = (),
        formats: tuple[str, ...] = (),
        date: str | None = None,
        doc_type: str | None = None,
        summary: str | None = None,
        languages: tuple[str, ...] = (),
        locations: tuple[str, ...] = (),
        creators: tuple[str, ...] = (),
        identifiers: tuple[IdentifierBinding, ...] = (),
        access: int = ACCESS_PUBLIC,
        subjects: tuple[Subject, ...] = (),
        tags: tuple[str, ...] = (),
        history: tuple[ProvenanceEvent, ...] = (),
    ):
        set_slot(self, "name", name)
        set_slot(self, "synonyms", synonyms)
        set_slot(self, "formats", formats)
        set_slot(self, "date", date)
        set_slot(self, "doc_type", doc_type)
        set_slot(self, "summary", summary)
        set_slot(self, "languages", languages)
        set_slot(self, "locations", locations)
        set_slot(self, "creators", creators)
        set_slot(self, "identifiers", identifiers)
        set_slot(self, "access", access)
        set_slot(self, "subjects", subjects)
        set_slot(self, "tags", tags)
        set_slot(self, "history", history)
        self.__post_init__()

    def __post_init__(self):
        """Normalize and check every value; a rejection names the record
        field and the index of the entry it rejects."""
        set_slot(self, "name", nfc(self.name))
        set_slot(self, "synonyms", checked("synonyms", self.synonyms, what="synonym"))
        set_slot(self, "formats", checked("formats", self.formats, format_tag, "format"))
        if self.date is not None:
            try:
                timestamps.ensure_canonical(self.date)
            except InvalidTimestamp as exc:
                exc.field = "date"
                raise
        if self.doc_type is not None:
            set_slot(self, "doc_type", document_type(self.doc_type))
        if self.summary is not None:
            if self.summary == "":
                raise _rejected("empty summary", "summary")
            set_slot(self, "summary", nfc(self.summary))
        languages = checked("languages", self.languages, language_code, "language")
        set_slot(self, "languages", languages)
        set_slot(self, "locations", checked("locations", self.locations, what="location"))
        set_slot(self, "creators", checked("creators", self.creators, what="creator"))
        set_slot(self, "identifiers", tuple(self.identifiers))
        set_slot(self, "subjects", tuple(self.subjects))
        set_slot(self, "tags", checked("tags", self.tags, what="tag"))
        set_slot(self, "history", tuple(self.history))

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
