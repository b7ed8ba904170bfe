"""Append-only modification history with a tamper-evident digest chain.

Originals are never edited: each change appends one event and mirrors
its payload into the matching grow-only record list.  Every event
carries a truncated SHA-256 of the previous event's serialized line,
so edits to recorded history surface on verification.
"""

from __future__ import annotations

from . import timestamps
from .errors import BrokenChain, InvariantViolation, MalformedPayload
from .model import (
    FIELDS,
    GENESIS_PREV,
    PAIR,
    IdentifierBinding,
    ProvenanceEvent,
    UmsRecord,
    Value,
    replace,
)
from .sidecar import serialize_event

#: event kind -> the row of the record list its payload appends to
_DERIVED = {row.event: row for row in FIELDS if row.event is not None}


def event_digest(event: ProvenanceEvent) -> str:
    """16 hex chars of SHA-256 over the event's serialized line; raises
    InvariantViolation for a line that is no UTF-8 (a lone surrogate)."""
    import hashlib  # here, so that group and related never load it

    line = serialize_event(event)
    try:
        data = line.encode("utf-8")
    except UnicodeEncodeError:
        raise InvariantViolation(f"not encodable as UTF-8: {line!r}") from None
    return hashlib.sha256(data).hexdigest()[:16]


def _derived(kind: str, payload: str) -> tuple[str | None, object]:
    """The record list an event of *kind* appends to and the value its
    *payload* appends ((None, None) for create), or raise MalformedPayload."""
    if kind == "create":
        if payload != "":
            raise MalformedPayload("create carries no payload")
        return None, None
    if kind not in _DERIVED:
        raise MalformedPayload(f"unknown event kind: {kind!r}")
    if payload == "":
        raise MalformedPayload(f"{kind} needs a payload")
    row = _DERIVED[kind]
    try:
        if row.decoder is PAIR:
            first, sep, second = payload.partition("|")
            if not sep or not first or not second:
                raise InvariantViolation(f"{kind} payload must be SYSTEM|id")
            return row.name, row.rule(first, second)
        return row.name, row.rule(payload)
    except InvariantViolation as exc:
        raise MalformedPayload(str(exc)) from None


def apply_event(
    record: UmsRecord, kind: str, payload: str, timestamp: str
) -> UmsRecord:
    """Append one event and its derived value; returns a new record.

    The original name, first format, first location and creation date
    are untouched by construction.  A record with no history yet gets a
    genesis create event inserted first.  Duplicate derived values are
    skipped, but the event is still recorded.
    """
    timestamp = timestamps.normalize(timestamp)
    field, value = _derived(kind, payload)
    if isinstance(value, IdentifierBinding):
        payload = f"{value.system}|{value.id}"
    elif value is not None:
        payload = value

    history = list(record.history)
    if kind == "create":
        if history:
            raise MalformedPayload("create is only valid as the first event")
    elif not history:
        genesis_ts = record.date if record.date is not None else timestamp
        history.append(
            ProvenanceEvent(
                seq=0, timestamp=genesis_ts, kind="create", payload="", prev=GENESIS_PREV
            )
        )

    prev = event_digest(history[-1]) if history else GENESIS_PREV
    if history:
        last_dt = timestamps.as_datetime(history[-1].timestamp)
        if timestamps.as_datetime(timestamp) < last_dt:
            import logging  # only this warning needs it; keeps start-up lean

            logging.getLogger(__name__).warning(
                "event timestamp %s precedes previous event %s; recorded anyway",
                timestamp,
                history[-1].timestamp,
            )
    event = ProvenanceEvent(
        seq=len(history), timestamp=timestamp, kind=kind, payload=payload, prev=prev
    )
    history.append(event)

    updates = {"history": tuple(history)}
    if field is not None:
        current = getattr(record, field)
        if value not in current:
            updates[field] = current + (value,)
    return replace(record, **updates)


class VerifyResult(Value):
    """Outcome of a history verification."""

    __slots__ = _fields = ("ok", "chain_length", "broken_at", "detail")
    _defaults = (None, "")


def _reconstruct_original(final: tuple, contributions: list) -> tuple:
    """Find the creation-time list consistent with the recorded events.

    Events only ever append, so the original is some prefix of the final
    list; the shortest prefix that replays to the final list wins
    (attributing as much as possible to recorded events).  Every
    contribution is in the final list, which holds no duplicates, so each
    split is replayed against positions in it: a value before the split
    end is a skipped duplicate, a value at the split end extends it, and
    any other value diverges.  The whole list always replays.
    """
    position = {value: at for at, value in enumerate(final)}
    for split in range(len(final)):
        end = split
        for value in contributions:
            at = position[value]
            if at == end:
                end += 1
            elif at > end:
                break
        else:
            if end == len(final):
                return final[:split]
    return final


def _replay(record: UmsRecord) -> dict[str, list]:
    """Check a non-empty history: the genesis, then each event in seq
    order, its link in the digest chain before its derived value against
    its record list.  Returns the values each list got from events, in seq
    order, or raises BrokenChain at the first break.  As events only
    append, the whole final list always replays, so a malformed payload or
    a value missing from its list is the only way the derived lists can
    break."""
    history = record.history
    genesis = history[0]  # a create event: UmsRecord rejects any other first
    if genesis.payload != "":
        raise BrokenChain(0, "create event carries a payload")
    if genesis.prev != GENESIS_PREV:
        raise BrokenChain(0, "genesis prev is not all zeros")
    if record.date is not None and genesis.timestamp != record.date:
        raise BrokenChain(0, "create timestamp differs from record date")

    present = {row.name: set(getattr(record, row.name)) for row in _DERIVED.values()}
    contributions: dict[str, list] = {field: [] for field in present}
    for before, event in zip(history, history[1:]):
        if event.kind == "create":
            raise BrokenChain(event.seq, "create after genesis")
        expected = event_digest(before)
        if event.prev != expected:
            raise BrokenChain(event.seq, f"prev digest mismatch (expected {expected})")
        try:
            field, value = _derived(event.kind, event.payload)
        except MalformedPayload as exc:
            raise BrokenChain(event.seq, str(exc)) from None
        if value not in present[field]:
            raise BrokenChain(event.seq, "derived values do not match recorded events")
        contributions[field].append(value)
    return contributions


def verify_history(record: UmsRecord) -> VerifyResult:
    """Check the digest chain and the derived lists; report the first break."""
    history = record.history
    if not history:
        return VerifyResult(ok=True, chain_length=0)
    try:
        _replay(record)
    except BrokenChain as exc:
        return VerifyResult(False, len(history), exc.seq, exc.detail)
    return VerifyResult(ok=True, chain_length=len(history))


def original_view(record: UmsRecord) -> UmsRecord:
    """The record as of its create event, with derived appends removed."""
    if not record.history:
        return record
    originals = {
        field: _reconstruct_original(getattr(record, field), values)
        for field, values in _replay(record).items()
    }
    return replace(record, history=record.history[:1], **originals)
