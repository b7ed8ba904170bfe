"""Core record model: canonical names, identifier bindings, records.

Every value is immutable after construction and normalized to Unicode
NFC, so equality and duplicate detection are plain string comparisons.
Records are allowed to be *partial* (empty name, no formats, no date);
completeness is enforced where it matters, at serialization and in
validation reports.

A record's fields are the rows of one table, :data:`FIELDS`: per sidecar
key, in key order, the record field, how many values it holds, how a
sidecar value is read, the rule that makes one value, the event kind that
appends to it and how mapped carrier values fill it.  The record's
constructor, its checks, the sidecar grammar, parser and serializer,
completeness, the mapping targets and the events' derived values all read
it, so a new field is one new row.

The toolkit's value objects (here and in the other modules) derive from
:class:`Value`.  Each class lists its constructor parameters in
``_fields``, the defaults of the last of them in ``_defaults`` (as a
function's ``__defaults__``), and has ``__slots__``.  :class:`Value`
supplies the rest from ``_fields``: an ``__init__`` with those
parameters hands the values, as one tuple, to the class's
``__post_init__``, which stores them as given or, where the class
defines its own, checks and normalizes each value, stores it once and
fills the slots derived from them.  A class body that writes
``__init__`` is refused with ``TypeError``.  Attributes cannot be set
or deleted (``AttributeError``), ``==`` holds only between two values of
one class with equal fields, the hash covers the same fields, the repr is
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


#: sets a slot of a value object past its frozen ``__setattr__``
set_slot = object.__setattr__


#: the file name of the code :func:`_constructor` writes out
_WRITTEN_OUT = "<value constructor>"


def _constructor(cls: type) -> None:
    """Give ``cls`` an ``__init__`` with a parameter per name of ``_fields``,
    defaulting as ``_defaults`` says, that hands the values to the
    ``__post_init__`` of the value's class, looked up at each call; and, if
    no class writes ``__post_init__``, one that stores each value, written
    out (the loop of :meth:`Value.__post_init__` doubles a plain value's cost)."""
    names = ", ".join(cls._fields)
    source = f"def __init__(self, {names}):\n    self.__post_init__(({names},))\n"
    post = cls.__post_init__
    if post is Value.__post_init__ or post.__code__.co_filename == _WRITTEN_OUT:
        source += "def __post_init__(self, values):" + "".join(
            f"\n    set_slot(self, {name!r}, values[{i}])" for i, name in enumerate(cls._fields)
        )
    scope, written = {"__name__": cls.__module__, "set_slot": set_slot}, {}
    exec(compile(source, _WRITTEN_OUT, "exec"), scope, written)
    for name, function in written.items():
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, function)
    cls.__init__.__defaults__ = cls._defaults


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

            spec = list(cls._fields) + [
                (name, object, dataclasses.field(init=False, repr=False, compare=False))
                for name in cls.__slots__
                if name not in cls._fields
            ]
            mirror = dataclasses.make_dataclass(cls.__name__, spec)
            fields = self.of_class[cls] = mirror.__dataclass_fields__
        return fields


class Value:
    """Base of the toolkit's immutable value objects; see the module
    docstring for what it supplies.  A class may store a field in a
    derived form, in a slot of another name, and give the field back
    through a property (``metabase.CatalogEntry`` keeps its name as the
    canonical string); comparison, hashing, the repr, copying and
    :func:`replace` then read the property."""

    __slots__ = ()
    #: the constructor's parameters, in order, and the defaults of the last
    #: of them
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} writes __init__; Value builds it from _fields")
        cls._key = attrgetter(*cls._fields)
        _constructor(cls)

    def __post_init__(self, values: tuple) -> None:
        """Store *values*, one per name of ``_fields``, as given."""
        for name, value in zip(self._fields, values):
            set_slot(self, name, value)

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


def _reject_duplicate(values: Sequence, what: str, field: str) -> None:
    """Reject the first of *values* that repeats an earlier one."""
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
        raise InvariantViolation(f"unknown document type: {value!r}") from None


def access_level(token: str) -> int:
    """The access level a token ``0`` to ``3`` states, or raise."""
    try:
        return _ACCESS_TOKENS[token]
    except KeyError:
        raise InvariantViolation(f"bad access level: {token!r}") from None


class IdentifierBinding(Value):
    """One (classification system, identity number) pair."""

    __slots__ = _fields = ("system", "id")

    def __post_init__(self, values: tuple) -> None:
        system, id = values
        if not SYSTEM_RE.fullmatch(system):
            token = nfc(system).upper()
            if not SYSTEM_RE.fullmatch(token):
                raise InvariantViolation(f"bad system token: {system!r}")
            system = token
        if id == "":
            raise InvariantViolation("empty identity number")
        set_slot(self, "system", system)
        set_slot(self, "id", nfc(id))


class Subject(Value):
    """A depicted object or phenomenon, optionally tied to a source catalog."""

    __slots__ = _fields = ("text", "source")
    _defaults = (None,)

    def __post_init__(self, values: tuple) -> None:
        text, source = values
        if text == "":
            raise InvariantViolation("empty subject")
        set_slot(self, "text", nfc(text))
        if source is not None:
            if source == "":
                raise InvariantViolation("empty subject source")
            source = nfc(source)
        set_slot(self, "source", source)


class ProvenanceEvent(Value):
    """One append-only history entry; its fields are checked in order."""

    __slots__ = _fields = ("seq", "timestamp", "kind", "payload", "prev")

    def __post_init__(self, values: tuple) -> None:
        seq, timestamp, kind, payload, prev = values
        if seq < 0:
            raise InvariantViolation("negative event seq")
        timestamps.ensure_canonical(timestamp)
        try:
            kind = EVENT_KINDS[kind]
        except (KeyError, TypeError):
            raise InvariantViolation(f"unknown event kind: {kind!r}") from None
        if not _PREV_RE.fullmatch(prev):
            raise InvariantViolation(f"bad prev digest: {prev!r}")
        set_slot(self, "seq", seq)
        set_slot(self, "timestamp", timestamp)
        set_slot(self, "kind", kind)
        set_slot(self, "payload", nfc(payload))
        set_slot(self, "prev", prev)


class SystematicName(Value):
    """Who/what + where + when designation with a deterministic string form."""

    __slots__ = _fields = ("kind", "who", "when", "where", "qualifier")
    _defaults = (None, None, None)

    def __post_init__(self, values: tuple) -> None:
        kind, who, when, where, qualifier = values
        try:
            kind = NAME_KINDS[kind]
        except (KeyError, TypeError):
            raise InvariantViolation(f"unknown name kind: {kind!r}") from None
        who = checked(None, who, what="name component")
        if not who:
            raise MissingComponent("a systematic name needs a who-part")
        if when is not None:
            when = timestamps.ensure_canonical(when)
        if where is not None:
            if where == "":
                raise InvariantViolation("empty where component")
            where = nfc(where)
        if qualifier is not None and not _QUALIFIER_RE.fullmatch(qualifier):
            raise InvariantViolation(f"qualifier must be digits: {qualifier!r}")
        set_slot(self, "kind", kind)
        set_slot(self, "who", who)
        set_slot(self, "when", when)
        set_slot(self, "where", where)
        set_slot(self, "qualifier", qualifier)

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


#: how many values a field holds, written as in the sidecar grammar
ONE, OPTIONAL, ONE_OR_MORE, ANY = "", "?", "+", "*"
MANY = (ONE_OR_MORE, ANY)
#: how a sidecar value becomes a record value: escaped text and tokens pass
#: the row's rule in the record; an access level token, ``|``-separated
#: fields (two for a pair, one or two for a subject) and a history event are
#: built by the rule before the record gets them
TEXT, TOKEN, LEVEL, PAIR, SUBJECT, HISTORY = "text", "token", "level", "pair", "subject", "history"
#: which mapped carrier values fill a field: the first only, or each distinct one
FIRST, EACH = "first", "each"


class Field:
    """One row of :data:`FIELDS`."""

    __slots__ = ("key", "name", "count", "decoder", "rule", "event", "mapped", "default")

    def __init__(self, key, name, count, decoder, rule, event=None, mapped=None, default=None):
        self.key, self.name, self.count, self.decoder = key, name, count, decoder
        self.rule, self.event, self.mapped = rule, event, mapped
        #: the value of a record with no entry under the key
        self.default = () if count in MANY else default


#: the record's fields, one row per sidecar key in key order: the key, the
#: record field, the count, the decoder, the rule that makes one value, the
#: event kind that appends to the field (if any), which mapped carrier
#: values fill it (None: no mapping target names it) and, for a single
#: value, its absent value if not None; a message about an entry names the key
FIELDS = (
    Field("name", "name", ONE, TEXT, nfc, mapped=FIRST, default=""),
    Field("synonym", "synonyms", ANY, TEXT, nfc, "rename"),
    Field("format", "formats", ONE_OR_MORE, TOKEN, format_tag, "reformat", FIRST),
    Field("date", "date", ONE, TOKEN, timestamps.ensure_canonical, mapped=FIRST),
    Field("type", "doc_type", OPTIONAL, TOKEN, document_type, mapped=FIRST),
    Field("summary", "summary", OPTIONAL, TEXT, nfc, mapped=FIRST),
    Field("language", "languages", ANY, TOKEN, language_code, "translate", EACH),
    Field("location", "locations", ANY, TEXT, nfc, "relocate", EACH),
    Field("creator", "creators", ANY, TEXT, nfc, mapped=FIRST),
    Field("identifier", "identifiers", ANY, PAIR, IdentifierBinding, "reclassify", EACH),
    Field("access", "access", OPTIONAL, LEVEL, access_level, mapped=FIRST, default=ACCESS_PUBLIC),
    Field("subject", "subjects", ANY, SUBJECT, Subject, mapped=EACH),
    Field("tag", "tags", ANY, TEXT, nfc, mapped=EACH),
    Field("history", "history", ANY, HISTORY, ProvenanceEvent),
)
#: the rows a complete record has a value under: name, format and date
REQUIRED = tuple(row for row in FIELDS if row.count in (ONE, ONE_OR_MORE))


def _reject_out_of_order(history: tuple, field: str) -> None:
    """Reject the first event of *history* out of seq order, or a first
    event that is no create event."""
    for i, event in enumerate(history):
        if event.seq != i:
            message = f"history seq must run 0,1,2,...; got {event.seq} at index {i}"
            raise _rejected(message, field, i)
    if history[0].kind != "create":
        raise _rejected("history must start with a create event", field)


class UmsRecord(Value):
    """Canonical metadata description of one document.

    ``name`` is the primary systematic name and never changes once set;
    every modification is appended to ``history`` and mirrored into the
    grow-only lists.  A record with an empty name, no formats or no date
    is *partial*: storable in memory, not serializable.
    """

    __slots__ = _fields = tuple(row.name for row in FIELDS)
    _defaults = tuple(row.default for row in FIELDS)

    def __post_init__(self, values: tuple):
        """Check and store *values*, one per row of :data:`FIELDS`, in key
        order, raising the first fault found: a row's entries pass its rule
        in turn (identifiers, subjects and events come built), then its
        duplicates or history order are checked.  A rejection names the
        record field and the entry's index, so of two faults the one under
        the earlier key is named."""
        for (name, key, many, decoder, rule, default, store), value in zip(_CHECKS, values):
            if many:
                if decoder is TEXT or decoder is TOKEN:
                    if value != ():
                        value = checked(name, value, rule, key)
                        if len(set(value)) != len(value):
                            _reject_duplicate(value, key, name)
                else:
                    value = tuple(value)
                    if value:
                        if decoder is HISTORY:
                            _reject_out_of_order(value, name)
                        else:
                            entries = list(map(rule._key, value))
                            if len(set(entries)) != len(entries):
                                _reject_duplicate(entries, key, name)
            elif decoder is LEVEL:
                if not isinstance(value, int) or not 0 <= value <= ACCESS_SECRET:
                    raise _rejected(f"access level out of range: {value!r}", name)
            elif value != default:
                # a name may be "", as that is its absent value; a summary may not
                if value == "" and decoder is TEXT:
                    raise _rejected(f"empty {key}", name)
                try:
                    value = rule(value)
                except (InvariantViolation, InvalidTimestamp) as exc:
                    exc.field, exc.index = name, 0
                    raise
            store(self, value)


#: per row: the record field, the key, whether it holds a list, the decoder,
#: the rule, the absent value and the setter of the record's slot
_CHECKS = tuple(
    (r.name, r.key, r.count in MANY, r.decoder, r.rule, r.default, getattr(UmsRecord, r.name).__set__)
    for r in FIELDS
)


def missing_keys(record: UmsRecord, rows: Iterable[Field] = REQUIRED) -> list[str]:
    """The keys of *rows* under which *record* has no value."""
    return [row.key for row in rows if not getattr(record, row.name)]


def is_complete(record: UmsRecord) -> bool:
    """True when the record carries the required identification triple."""
    return not missing_keys(record)


def require_complete(record: UmsRecord) -> None:
    absent = missing_keys(record)
    if absent:
        raise InvariantViolation(f"record incomplete, missing: {', '.join(absent)}")
