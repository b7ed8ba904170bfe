"""Acceptance criteria, one test per criterion, timed and printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Randomized criteria use fixed seeds so the suite is
byte-deterministic.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import oracles
import recgen
from ums.errors import UmsError
from ums.extractors import (
    RawMetadata,
    extract_html_meta,
    extract_pdf_info,
    map_raw_to_ums,
)
from ums.identifiers import validate_identifier
from ums.association import CRITERIA, build_index, group_by, related
from ums.lint import lint_raw
from ums.model import IdentifierBinding, UmsRecord
from ums.provenance import apply_event, original_view, verify_history
from ums.sidecar import canonical_serialize, parse_record


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"took {elapsed:.2f}s, budget {budget_seconds:.0f}s"
            )
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_octology_extraction(octology_pdf):
    with criterion(1, "octology fixture reproduces the published key set", 1.0):
        raw = extract_pdf_info(octology_pdf)
        got = dict(raw.pairs)
        assert got["Title"] == "octology"
        assert got["Author"] == "Max Madman"
        assert got["Creator"] == "Pages"
        assert got["Producer"] == "Mac OS X 10.5.2 Quartz PDFContext"
        assert got["PageCount"] == "76"
        assert got["CreateDate"] == "2011:03:01 16:35:22Z"
        assert got["ModifyDate"] == got["CreateDate"]
        assert got["FileType"] == "PDF"
        assert got["MIMEType"] == "application/pdf"
        assert got["PDFVersion"] == "1.4"
        assert got["PDFVersion (1)"] == "1.3"
        assert set(got) == {
            "Title",
            "Author",
            "Creator",
            "Producer",
            "PageCount",
            "CreateDate",
            "ModifyDate",
            "FileType",
            "FileType(guessed)",
            "MIMEType",
            "PDFVersion",
            "PDFVersion (1)",
            "FileSize",
        }


def test_criterion_2_lint_parity(octology_pdf):
    with criterion(2, "lint findings match the documented critique exactly"):
        raw = extract_pdf_info(octology_pdf)
        findings = lint_raw(raw)
        warned = [f for f in findings if f.severity in ("warning", "error")]
        assert [f.code for f in warned] == [
            "FORMAT_REDUNDANCY",
            "AUTHOR_AMBIGUOUS",
            "TIMESTAMP_COINCIDENT",
        ]
        redundancy = warned[0]
        assert len(redundancy.evidence) == 6

        extended = RawMetadata(
            carrier=raw.carrier,
            pairs=raw.pairs + (("DOI", "details/Octology"),),
        )
        extended_codes = [f.code for f in lint_raw(extended)]
        assert extended_codes == [f.code for f in findings] + ["IDENTIFIER_INVALID"]


def test_criterion_3_pubmed_html(pubmed_html):
    with criterion(3, "bibliographic HTML fixture extracts and maps to a PMID"):
        raw = extract_html_meta(pubmed_html)
        got = dict(raw.pairs)
        assert got["author"] == "pubmeddev"
        assert got["ncbi_uidlist"] == "21383996"
        assert got["ncbi_db"] == "pubmed"
        record, _ = map_raw_to_ums(raw)
        assert IdentifierBinding(system="PMID", id="21383996") in record.identifiers


def test_criterion_4_round_trip_law():
    with criterion(4, "1,000 random records round-trip byte-exactly", 10.0):
        rng = random.Random(0x5EED04)
        for _ in range(1000):
            record = recgen.record_with_history(rng)
            data = canonical_serialize(record)
            reparsed = parse_record(data)
            assert reparsed == record
            assert canonical_serialize(reparsed) == data


def _rotate_byte(value: int) -> int:
    """A same-class single-byte mutation: digits stay digits, letters stay
    letters, everything else becomes a tilde (never produced by the
    record generator, so the mutation is always a real change)."""
    if 0x30 <= value <= 0x39:
        return 0x30 + (value - 0x30 + 1) % 10
    if 0x61 <= value <= 0x7A:
        return 0x61 + (value - 0x61 + 1) % 26
    if 0x41 <= value <= 0x5A:
        return 0x41 + (value - 0x41 + 1) % 26
    return 0x7E if value != 0x7E else 0x21


def _field_spans(value_start: int, line: bytes) -> list[tuple[int, int]]:
    """Byte spans of the five |-separated fields of a history line."""
    spans = []
    start = value_start
    i = value_start
    while i < len(line):
        if line[i : i + 1] == b"\\" and i + 1 < len(line):
            i += 2
            continue
        if line[i : i + 1] == b"|":
            spans.append((start, i))
            start = i + 1
        i += 1
    spans.append((start, len(line)))
    return spans


def _tamper_detected(data: bytes) -> bool:
    try:
        record = parse_record(data)
    except UmsError:
        return True
    return not verify_history(record).ok


def _mutation_for(position: int, line_start: int, line: bytes, is_last_line: bool) -> int:
    """Pick the mutation for one byte of a serialized history line.

    The final event's timestamp and payload have no redundant copy
    anywhere else in the record, so a same-class flip there can produce
    a record that is indistinguishable from an honestly built one; for
    those two spans the mutation steps outside the value alphabet
    instead, which is always a detectable corruption.  Every other byte
    gets the same-class flip, the strongest mutation available.
    """
    offset = position - line_start
    original = line[offset]
    if is_last_line:
        spans = _field_spans(len(b"history: "), line)
        for field_index in (1, 3):  # timestamp, payload
            lo, hi = spans[field_index]
            if lo <= offset < hi:
                return 0x7E if original != 0x7E else 0x21
    return _rotate_byte(original)


def test_criterion_5_append_only_law():
    with criterion(
        5,
        "1,000 event sequences: append-only, replay-equivalent, tamper-evident",
        30.0,
    ):
        rng = random.Random(0x5EED05)
        for index in range(1000):
            base = recgen.base_record(rng)
            events = recgen.random_events(rng, rng.randint(1, 20))

            record = base
            for kind, payload, when in events:
                before = record
                record = apply_event(record, kind, payload, when)
                for field in (
                    "synonyms",
                    "formats",
                    "languages",
                    "locations",
                    "creators",
                    "identifiers",
                    "subjects",
                    "tags",
                ):
                    old = getattr(before, field)
                    assert getattr(record, field)[: len(old)] == old

            view = original_view(record)
            replayed = view
            for event in record.history[1:]:
                replayed = apply_event(
                    replayed, event.kind, event.payload, event.timestamp
                )
            assert replayed == record

            data = canonical_serialize(record)
            line_ranges = []
            cursor = 0
            for line in data.split(b"\n")[:-1]:
                if line.startswith(b"history: "):
                    line_ranges.append((cursor, line))
                cursor += len(line) + 1

            if index % 40 == 0:
                # exhaustive pass: every byte of every history line,
                # including each line's terminating newline
                for rank, (line_start, line) in enumerate(line_ranges):
                    is_last = rank == len(line_ranges) - 1
                    for position in range(line_start, line_start + len(line) + 1):
                        if position == line_start + len(line):
                            mutated = 0x7E  # the newline separator
                        else:
                            mutated = _mutation_for(position, line_start, line, is_last)
                        tampered = data[:position] + bytes([mutated]) + data[position + 1 :]
                        assert _tamper_detected(tampered), (
                            f"undetected tamper at byte {position - line_start}"
                            f" of history line {rank}"
                        )
            else:
                for _ in range(2):
                    rank = rng.randrange(len(line_ranges))
                    line_start, line = line_ranges[rank]
                    position = line_start + rng.randrange(len(line))
                    mutated = _mutation_for(
                        position, line_start, line, rank == len(line_ranges) - 1
                    )
                    tampered = data[:position] + bytes([mutated]) + data[position + 1 :]
                    assert _tamper_detected(tampered)


def test_criterion_6_identifier_oracle_equivalence():
    with criterion(6, "ISBN validation agrees with the brute-force oracle"):
        assert validate_identifier("ISBN", "9781608454310").valid
        assert validate_identifier("PMID", "21383996").valid
        assert not validate_identifier("DOI", "details/Octology").valid

        rng = random.Random(0x5EED06)
        digits = "0123456789"
        checked = 0
        while checked < 10000:
            roll = rng.random()
            if roll < 0.4:
                candidate = "".join(rng.choice(digits) for _ in range(13))
                expected = oracles.isbn13_valid(candidate)
            elif roll < 0.5:
                body = "".join(rng.choice(digits) for _ in range(12))
                for check in digits:
                    if oracles.isbn13_valid(body + check):
                        break
                candidate = list(body + check)
                flip = rng.randrange(13)
                candidate[flip] = rng.choice(digits.replace(candidate[flip], ""))
                candidate = "".join(candidate)
                expected = oracles.isbn13_valid(candidate)
            elif roll < 0.9:
                candidate = "".join(rng.choice(digits) for _ in range(9))
                candidate += rng.choice(digits + "X")
                expected = oracles.isbn10_valid(candidate)
            else:
                body = "".join(rng.choice(digits) for _ in range(9))
                for check in digits + "X":
                    if oracles.isbn10_valid(body + check):
                        break
                candidate = body + rng.choice((digits + "X").replace(check, ""))
                expected = oracles.isbn10_valid(candidate)
            assert validate_identifier("ISBN", candidate).valid == expected, candidate
            checked += 1


def test_criterion_7_association_oracle_equivalence():
    with criterion(7, "grouping and relatedness match exhaustive oracles", 5.0):
        rng = random.Random(0x5EED07)
        for _ in range(20):
            records = [recgen.base_record(rng) for _ in range(rng.randint(0, 50))]
            for by in CRITERIA:
                expected = oracles.bucket_records(
                    records, lambda r: oracles.group_key(r, by)
                )
                assert group_by(records, by) == expected, by
            index = build_index(records)
            for record in records:
                assert related(index, record) == oracles.related_ranking(
                    records, record
                )
