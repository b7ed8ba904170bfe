"""Append-only modification history with a tamper-evident digest chain.

Originals are never edited: each change appends one event and mirrors
its payload into the matching grow-only record list.  Every event
carries a truncated SHA-256 of the previous event's serialized line,
so edits to recorded history surface on verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import timestamps
from .errors import BrokenChain, InvariantViolation, MalformedPayload
from .model import (
    GENESIS_PREV,
    IdentifierBinding,
    ProvenanceEvent,
    UmsRecord,
    format_tag,
    language_code,
    nfc,
)
from .sidecar import serialize_event


def _binding(payload: str) -> IdentifierBinding:
    """The identifier binding a ``SYSTEM|id`` payload names."""
    system, sep, ident = payload.partition("|")
    if not sep or not system or not ident:
        raise InvariantViolation("reclassify payload must be SYSTEM|id")
    return IdentifierBinding(system=system, id=ident)


#: event kind -> the record list its payload appends to and the model's
#: rule that turns the payload into the appended value
_DERIVED = {
    "rename": ("synonyms", nfc),
    "reclassify": ("identifiers", _binding),
    "relocate": ("locations", nfc),
    "reformat": ("formats", format_tag),
    "translate": ("languages", language_code),
}


def event_digest(event: ProvenanceEvent) -> str:
    """16 hex chars of SHA-256 over the event's serialized line."""
    import hashlib  # here, so that group and related never load it

    line = serialize_event(event)
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def _derived(kind: str, payload: str) -> tuple[Optional[str], object]:
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
    field, rule = _DERIVED[kind]
    try:
        return field, rule(payload)
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


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a history verification."""

    ok: bool
    chain_length: int
    broken_at: Optional[int] = None
    detail: str = ""


class _Inconsistent(Exception):
    def __init__(self, seq: int, detail: str):
        super().__init__(detail)
        self.seq = seq
        self.detail = detail


def _reconstruct_original(final: tuple, contributions: list) -> tuple:
    """Find the creation-time list consistent with the recorded events.

    Events only ever append, so the original is some prefix of the final
    list; the shortest prefix that replays to the final list wins
    (attributing as much as possible to recorded events).  A recorded
    value missing from the final list raises _Inconsistent at its seq.
    Otherwise each split is replayed against the positions in the final
    list, which holds no duplicates: a value before the split end is a
    skipped duplicate, a value at the split end extends it, and any
    other value diverges.  The whole list always replays.
    """
    position = {value: at for at, value in enumerate(final)}
    for seq, value in contributions:
        if value not in position:
            raise _Inconsistent(seq, "derived values do not match recorded events")
    for split in range(len(final)):
        end = split
        for _, value in contributions:
            at = position[value]
            if at == end:
                end += 1
            elif at > end:
                break
        else:
            if end == len(final):
                return final[:split]
    return final


def _original_fields(record: UmsRecord) -> dict[str, tuple]:
    """Original value of every derived list, or raise _Inconsistent at the
    lowest seq that breaks any of them."""
    contributions: dict[str, list] = {field: [] for field, _ in _DERIVED.values()}
    malformed: dict[str, _Inconsistent] = {}
    for event in record.history:
        if event.kind not in _DERIVED:
            continue
        field = _DERIVED[event.kind][0]
        if field in malformed:
            continue
        try:
            _, value = _derived(event.kind, event.payload)
        except MalformedPayload as exc:
            malformed[field] = _Inconsistent(event.seq, str(exc))
            continue
        contributions[field].append((event.seq, value))
    out: dict[str, tuple] = {}
    broken: list[_Inconsistent] = []
    for field, values in contributions.items():
        try:
            # an earlier value missing from the list breaks before a
            # malformed payload
            out[field] = _reconstruct_original(getattr(record, field), values)
            if field in malformed:
                raise malformed[field]
        except _Inconsistent as exc:
            broken.append(exc)
    if broken:
        raise min(broken, key=lambda exc: exc.seq)
    return out


def _replay(record: UmsRecord) -> dict[str, tuple]:
    """Check the digest chain of a non-empty history, then replay it;
    the original derived lists, or raise _Inconsistent at the first break."""
    history = record.history
    genesis = history[0]
    if genesis.kind != "create":
        raise _Inconsistent(0, "first event is not create")
    if genesis.payload != "":
        raise _Inconsistent(0, "create event carries a payload")
    if genesis.prev != GENESIS_PREV:
        raise _Inconsistent(0, "genesis prev is not all zeros")
    if record.date is not None and genesis.timestamp != record.date:
        raise _Inconsistent(0, "create timestamp differs from record date")

    for i in range(1, len(history)):
        if history[i].kind == "create":
            raise _Inconsistent(history[i].seq, "create after genesis")
        expected = event_digest(history[i - 1])
        if history[i].prev != expected:
            raise _Inconsistent(
                history[i].seq, f"prev digest mismatch (expected {expected})"
            )
    return _original_fields(record)


def verify_history(record: UmsRecord) -> VerifyResult:
    """Recompute the digest chain and replay consistency; report first break."""
    history = record.history
    if not history:
        return VerifyResult(ok=True, chain_length=0)
    try:
        _replay(record)
    except _Inconsistent as exc:
        return VerifyResult(False, len(history), exc.seq, exc.detail)
    return VerifyResult(ok=True, chain_length=len(history))


def original_view(record: UmsRecord) -> UmsRecord:
    """The record as of its create event, with derived appends removed."""
    if not record.history:
        return record
    try:
        originals = _replay(record)
    except _Inconsistent as exc:
        raise BrokenChain(exc.seq, exc.detail) from None
    return replace(record, history=record.history[:1], **originals)
