"""Expected outputs, re-derived the slow and obvious way from what the
generators put in.  Nothing here calls the code paths it checks; the
rules restate ``tests/oracles.py`` (``group_key``, ``bucket_records``,
``related_ranking``) and the validation rules in ``ums.validation``.
"""

from __future__ import annotations

CRITERIA = ("alphabet", "date", "theme", "project", "format", "location")


def group_key(rec, criterion: str) -> str:
    if criterion == "alphabet":
        return rec.name[0] if rec.name else "~unknown"
    if criterion == "date":
        return rec.date.split("-")[0]
    if criterion == "theme":
        return rec.tags[0] if rec.tags else "~untagged"
    if criterion == "project":
        projects = [t for t in rec.tags if t.startswith("project:")]
        return projects[0][len("project:") :] if projects else "~unassigned"
    if criterion == "format":
        return rec.formats[0]
    if criterion == "location":
        return rec.locations[0] if rec.locations else "~unknown"
    raise AssertionError(criterion)


def group_stdout(records, criterion: str) -> str:
    """What ``ums group --by criterion`` prints for *records*."""
    buckets: dict[str, list] = {}
    for rec in records:
        buckets.setdefault(group_key(rec, criterion), []).append(rec)
    lines = []
    for key in sorted(buckets):
        lines.append(f"== {key}")
        lines += [f"  {rec.name}" for rec in sorted(buckets[key], key=lambda r: r.name)]
    return "".join(line + "\n" for line in lines)


def related_ranking(records, target: int, tag_sets=None) -> list[tuple[str, float]]:
    """Exhaustive pairwise Jaccard over tag sets; *tag_sets* caches
    ``set(rec.tags)`` per record."""
    sets = tag_sets or [set(rec.tags) for rec in records]
    mine = sets[target]
    scored = []
    for i, rec in enumerate(records):
        if i == target:
            continue
        shared = mine & sets[i]
        if shared:
            scored.append((rec.name, len(shared) / len(mine | sets[i])))
    return sorted(scored, key=lambda item: (-item[1], item[0]))


def related_stdout(ranking) -> str:
    return "".join(f"{name}\t{score:.6f}\n" for name, score in ranking)


def violations(rec, catalogued: set) -> list[str]:
    """Strict-mode violations for a complete record whose identifier
    systems are all built in and for which no subject catalog exists."""
    out = [
        f"MissingRecommendedField: record has no {field}"
        for field, values in (
            ("language", rec.languages),
            ("location", rec.locations),
            ("creator", rec.creators),
        )
        if not values
    ]
    out += [
        f"CreatorNotInCatalog: creator not in author/organization catalogs: {c}"
        for c in rec.creators
        if c not in catalogued
    ]
    out += [
        f"UnknownSubjectSource: no catalog for subject source: {source}"
        for _, source in rec.subjects
        if source is not None
    ]
    return out
