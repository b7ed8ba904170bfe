"""Documentography: grouping records and finding related ones.

Records are grouped by the usual filing criteria (alphabet, date,
theme, project, format, location) and related by shared thematic tags,
scored with Jaccard similarity over tag sets.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import attrgetter, itemgetter

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

    ``records``, the corpus in its own order, is the only field, so
    indexes compare and hash by their records; the constructor derives
    the rest from it.  ``by_name`` holds the same records sorted by name
    (a stable sort, so namesakes keep their corpus order).  ``tag_index``
    maps each tag to the ascending positions in ``by_name`` of the
    records carrying it; a record listed k times has k positions.
    ``untagged`` maps ``id(record)`` to each record without tags, so
    membership of an indexed record never scans the corpus.
    """

    _fields = ("records",)
    __slots__ = _fields + ("by_name", "tag_index", "untagged")

    def __post_init__(self, values: tuple) -> None:
        super().__post_init__(values)
        by_name = tuple(sorted(self.records, key=attrgetter("name")))
        postings: dict[str, list[int]] = {}
        untagged: dict[int, UmsRecord] = {}
        for position, record in enumerate(by_name):
            if not record.tags:
                untagged[id(record)] = record
            for tag in record.tags:
                postings.setdefault(tag, []).append(position)
        set_slot(self, "by_name", by_name)
        set_slot(self, "tag_index", {tag: tuple(ps) for tag, ps in postings.items()})
        set_slot(self, "untagged", untagged)


def build_index(records: Sequence[UmsRecord]) -> CorpusIndex:
    """The index of *records*: one name sort and one pass over that
    order, both in :class:`CorpusIndex`'s constructor.  Rebuilding from
    the same records gives an equal index."""
    return CorpusIndex(tuple(records))


def related(index: CorpusIndex, record: UmsRecord) -> list[tuple[str, float]]:
    """Rank other records sharing at least one tag by Jaccard similarity.

    Counter counts, in C, how many of the record's tags each position in
    the postings of those tags carries: the tags the two records share,
    as tags are unique per record.  Positions ascend in name order, so
    one stable sort by score leaves ties by name.  The record itself,
    and any record equal to it, shares all its tags and is excluded.
    Raises UnknownRecord when *record* is not part of the index.
    """
    mine = record.tags
    if not mine:
        untagged = index.untagged
        if untagged.get(id(record)) is not record and record not in untagged.values():
            raise UnknownRecord(f"record not in index: {record.name!r}")
        return []
    tag_index, by_name, size = index.tag_index, index.by_name, len(mine)
    counts = Counter(chain.from_iterable([tag_index.get(tag, ()) for tag in mine]))
    indexed = False
    scored: list[tuple[str, float]] = []
    for position in sorted(counts):
        other, shared = by_name[position], counts[position]
        if shared == size and (
            other is record or (other.name == record.name and other == record)
        ):
            indexed = True
        else:
            scored.append((other.name, shared / (size + len(other.tags) - shared)))
    if not indexed:
        raise UnknownRecord(f"record not in index: {record.name!r}")
    scored.sort(key=itemgetter(1), reverse=True)  # stable: ties stay by name
    return scored
