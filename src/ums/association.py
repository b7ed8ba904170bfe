"""Documentography: grouping records and finding related ones.

Records are grouped by the usual filing criteria (alphabet, date,
theme, project, format, location) and related by shared thematic tags,
scored with Jaccard similarity over tag sets.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from .errors import UnknownRecord
from .model import UmsRecord, Value, set_slot

PROJECT_TAG_PREFIX = "project:"

#: bucket names for records a criterion cannot place
UNTAGGED = "~untagged"
UNDATED = "~undated"
UNASSIGNED = "~unassigned"
UNKNOWN = "~unknown"


def _project(record: UmsRecord) -> str:
    for tag in record.tags:
        if tag.startswith(PROJECT_TAG_PREFIX):
            return tag[len(PROJECT_TAG_PREFIX) :]
    return UNASSIGNED


#: grouping criterion -> the group key of a record
_GROUP_KEYS = {
    "alphabet": lambda r: r.name[:1] if r.name else UNKNOWN,
    "date": lambda r: r.date[:4] if r.date else UNDATED,
    "theme": lambda r: r.tags[0] if r.tags else UNTAGGED,
    "project": _project,
    "format": lambda r: r.formats[0] if r.formats else UNKNOWN,
    "location": lambda r: r.locations[0] if r.locations else UNKNOWN,
}
CRITERIA = tuple(_GROUP_KEYS)


def group_by(
    records: Iterable[UmsRecord], criterion: str
) -> list[tuple[str, list[UmsRecord]]]:
    """Partition records into named groups; every record lands in
    exactly one group, and groups and members sort lexicographically."""
    key_of = _GROUP_KEYS.get(criterion)
    if key_of is None:
        raise ValueError(f"unknown grouping criterion: {criterion!r}")
    buckets: dict[str, list[UmsRecord]] = {}
    for record in records:
        buckets.setdefault(key_of(record), []).append(record)
    out = []
    for key in sorted(buckets):
        members = sorted(buckets[key], key=lambda r: r.name)
        out.append((key, members))
    return out


class CorpusIndex(Value):
    """Immutable snapshot of a record corpus plus its tag postings.

    ``tag_index`` maps each tag to the records carrying it, in corpus
    order; ``untagged`` maps ``id(record)`` to each record without tags,
    so membership of an indexed record never scans the corpus.
    """

    __slots__ = _fields = ("records", "tag_index", "untagged")

    def __init__(
        self,
        records: tuple[UmsRecord, ...],
        tag_index: dict[str, tuple[UmsRecord, ...]],
        untagged: dict[int, UmsRecord],
    ):
        set_slot(self, "records", records)
        set_slot(self, "tag_index", tag_index)
        set_slot(self, "untagged", untagged)


def build_index(records: Sequence[UmsRecord]) -> CorpusIndex:
    """One-pass index build; rebuilding from the same records is identical."""
    tag_index: dict[str, list[UmsRecord]] = {}
    untagged: dict[int, UmsRecord] = {}
    for record in records:
        if not record.tags:
            untagged[id(record)] = record
        for tag in record.tags:
            tag_index.setdefault(tag, []).append(record)
    return CorpusIndex(
        records=tuple(records),
        tag_index={tag: tuple(rs) for tag, rs in tag_index.items()},
        untagged=untagged,
    )


def related(index: CorpusIndex, record: UmsRecord) -> list[tuple[str, float]]:
    """Rank other records sharing at least one tag by Jaccard similarity.

    Candidates come from the postings of the record's own tags.  Ties
    break on name; the record itself, and any record equal to it, is
    excluded.  Raises UnknownRecord when *record* is not part of the
    index.
    """
    mine = record.tags
    if not mine:
        untagged = index.untagged
        if untagged.get(id(record)) is not record and record not in untagged.values():
            raise UnknownRecord(f"record not in index: {record.name!r}")
        return []
    indexed = False
    counts: dict[int, int] = {}  # id -> postings of *mine* that hold it
    others: dict[int, UmsRecord] = {}
    for tag in mine:
        for other in index.tag_index.get(tag, ()):
            key = id(other)
            if key in counts:
                counts[key] += 1
            elif other is record or (other.name == record.name and other == record):
                indexed = True
            else:
                counts[key] = 1
                others[key] = other
    if not indexed:
        raise UnknownRecord(f"record not in index: {record.name!r}")
    # A record listed k times in the corpus sits k times in each of its
    # postings, so its count is k * shared.  Tags are unique per record,
    # so |mine | theirs| = |mine| + |theirs| - shared.
    scored: list[tuple[str, float]] = []
    for key, count in counts.items():
        other = others[key]
        shared = 1 if count == 1 else len(set(mine).intersection(other.tags))
        pair = (other.name, shared / (len(mine) + len(other.tags) - shared))
        scored.append(pair)
        if count > shared:
            scored += [pair] * (count // shared - 1)
    scored.sort(key=itemgetter(0))
    scored.sort(key=itemgetter(1), reverse=True)  # stable: ties stay by name
    return scored
