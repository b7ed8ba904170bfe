"""Exception types shared across the toolkit."""

from __future__ import annotations


class UmsError(Exception):
    """Base class for all toolkit errors."""

    #: set when a record check rejects a value: the record field and the
    #: index of the rejected entry (0 for a single-valued field)
    field: str | None = None
    index: int = 0


class InvariantViolation(UmsError):
    """A record or value breaks a structural invariant."""


class InvalidTimestamp(UmsError):
    """A timestamp is not in an accepted lexical form."""


class MissingComponent(UmsError):
    """A systematic name lacks its who-part."""


class SidecarSyntaxError(UmsError):
    """Sidecar input violates the grammar."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownKey(SidecarSyntaxError):
    """Strict parsing met a key outside the sidecar vocabulary."""

    def __init__(self, line: int, key: str):
        super().__init__(line, f"unknown key {key!r}")
        self.key = key


class DuplicateSingletonKey(SidecarSyntaxError):
    """A once-only sidecar key appeared twice."""

    def __init__(self, line: int, key: str):
        super().__init__(line, f"duplicate key {key!r}")
        self.key = key


class DuplicateEntry(UmsError):
    """A catalog already holds this canonical string or synonym."""


class UnknownSystem(UmsError):
    """Identifier validation was asked about an unregistered system."""


class MalformedPayload(UmsError):
    """An event payload does not fit its event kind."""


class BrokenChain(UmsError):
    """A provenance history failed verification."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"history broken at seq {seq}: {message}")
        self.seq = seq
        self.detail = message


class NotPdf(UmsError):
    """Input bytes do not start with a PDF header."""


class NotSupported(UmsError):
    """The carrier uses a feature outside the supported subset."""


class MappingError(UmsError):
    """A mapping table cannot be loaded."""


class RuleConflict(MappingError):
    """Two mapping rules target the same singleton field for one carrier."""


class UnknownRecord(UmsError):
    """A corpus query referenced a record that is not in the index."""
