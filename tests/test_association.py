from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
import recgen
from ums.association import CRITERIA, build_index, group_by, related
from ums.errors import UnknownRecord
from ums.model import UmsRecord, replace


def rec(name, *, tags=(), formats=("pdf",), date="2011-01-01", locations=()):
    return UmsRecord(
        name=name, formats=formats, date=date, tags=tags, locations=locations
    )


class TestGroupBy:
    def test_two_formats_give_two_groups(self):
        records = [rec("a", formats=("pdf",)), rec("b", formats=("html",))]
        groups = group_by(records, "format")
        assert [key for key, _ in groups] == ["html", "pdf"]
        assert [[r.name for r in members] for _, members in groups] == [["b"], ["a"]]

    def test_empty_corpus_gives_empty_partition(self):
        assert group_by([], "alphabet") == []

    def test_untagged_records_form_their_own_theme_group(self):
        groups = dict(group_by([rec("a"), rec("b", tags=("x",))], "theme"))
        assert {r.name for r in groups["~untagged"]} == {"a"}
        assert {r.name for r in groups["x"]} == {"b"}

    def test_project_namespace_tags(self):
        records = [
            rec("a", tags=("project:ums", "misc")),
            rec("b", tags=("misc",)),
        ]
        groups = dict(group_by(records, "project"))
        assert {r.name for r in groups["ums"]} == {"a"}
        assert {r.name for r in groups["~unassigned"]} == {"b"}

    def test_every_criterion_partitions(self):
        rng = random.Random(42)
        records = [recgen.base_record(rng) for _ in range(30)]
        for criterion in CRITERIA:
            groups = group_by(records, criterion)
            members = [r for _, rs in groups for r in rs]
            assert len(members) == len(records)
            assert {id(r) for r in members} == {id(r) for r in records}

    @settings(max_examples=fixtures.examples(30), deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_naive_bucket_oracle(self, seed):
        rng = random.Random(seed)
        records = [recgen.base_record(rng) for _ in range(rng.randint(0, 20))]
        for criterion in CRITERIA:
            expected = oracles.bucket_records(
                records, lambda r: oracles.group_key(r, criterion)
            )
            got = [
                (key, members) for key, members in group_by(records, criterion)
            ]
            assert got == expected, criterion

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            group_by([], "color")


class TestRelated:
    def test_untagged_record_relates_to_nothing(self):
        records = [rec("a"), rec("b", tags=("x",))]
        index = build_index(records)
        assert related(index, records[0]) == []

    def test_identical_tag_sets_score_one(self):
        records = [rec("a", tags=("x", "y")), rec("b", tags=("y", "x"))]
        index = build_index(records)
        assert related(index, records[0]) == [("b", 1.0)]
        assert related(index, records[1]) == [("a", 1.0)]

    def test_score_is_symmetric(self):
        rng = random.Random(7)
        records = [recgen.base_record(rng) for _ in range(20)]
        index = build_index(records)
        scores = {}
        for record in records:
            for name, score in related(index, record):
                scores[(record.name, name)] = score
        for (a, b), score in scores.items():
            assert scores.get((b, a)) == pytest.approx(score)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(99)
        for _ in range(10):
            records = [recgen.base_record(rng) for _ in range(rng.randint(2, 25))]
            index = build_index(records)
            for record in records:
                assert related(index, record) == oracles.related_ranking(
                    records, record
                )

    @settings(max_examples=fixtures.examples(60), deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_oracle_with_copies_namesakes_and_untagged(self, seed):
        """Equal copies, records sharing a name, untagged records and one
        object listed twice all rank as the exhaustive scan ranks them."""
        rng = random.Random(seed)
        pool = ("x", "y", "z", "project:ums")
        records = []
        for i in range(rng.randint(1, 12)):
            tags = tuple(rng.sample(pool, rng.randint(0, len(pool))))
            records.append(rec(f"r{rng.randrange(4)}", tags=tags, date=f"20{i:02d}-01-01"))
            roll = rng.random()
            if roll < 0.2:
                records.append(copy.copy(records[-1]))  # equal, not identical
            elif roll < 0.3:
                records.append(records[-1])  # the same object again
            elif roll < 0.4:
                records.append(replace(records[-1], tags=()))
        rng.shuffle(records)
        index = build_index(records)
        for record in records:
            expected = oracles.related_ranking(records, record)
            assert related(index, record) == expected
            assert related(index, copy.copy(record)) == expected

    @settings(max_examples=fixtures.examples(40), deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_oracle_over_long_postings(self, seed):
        """Up to about 60 records over a pool of four tags, so each tag's
        postings hold many records: namesakes with other tag sets (one
        name at several scores), equal copies, one object listed two or
        three times and untagged records, in shuffled corpus order."""
        rng = random.Random(seed)
        pool = ("x", "y", "z", "w")

        def tagged(name):
            tags = tuple(rng.sample(pool, rng.randint(1, len(pool))))
            return rec(name, tags=tags, date=f"20{rng.randrange(100):02d}-01-01")

        records = [tagged(f"r{rng.randrange(8)}") for _ in range(rng.randint(1, 40))]
        namesake = records[0]
        records += [tagged(namesake.name) for _ in range(rng.randint(1, 4))]
        records += [copy.copy(rng.choice(records)) for _ in range(rng.randint(1, 4))]
        listed = rng.choice(records)
        records += [listed] * rng.randint(1, 2)
        records += [rec(f"r{rng.randrange(8)}") for _ in range(rng.randint(1, 4))]
        rng.shuffle(records)
        index = build_index(records)
        for record in records:
            expected = oracles.related_ranking(records, record)
            assert related(index, record) == expected
            assert related(index, copy.copy(record)) == expected

    def test_a_record_listed_k_times_ranks_k_times(self):
        listed = rec("b", tags=("x", "y"))
        records = [listed, rec("a", tags=("x",)), listed, rec("c", tags=("y",)), listed]
        assert related(build_index(records), records[1]) == [("b", 0.5)] * 3
        with_copy = records + [copy.copy(records[1])]
        assert related(build_index(with_copy), records[1]) == [("b", 0.5)] * 3

    def test_ties_break_by_name_whatever_the_corpus_order(self):
        records = [
            rec("d", tags=("x",)),
            rec("b", tags=("x", "y")),
            rec("c", tags=("x",)),
            rec("a", tags=("x",)),
            rec("b", tags=("x",)),
        ]
        assert related(build_index(records), records[1]) == [
            ("a", 0.5), ("b", 0.5), ("c", 0.5), ("d", 0.5)
        ]

    def test_equal_copy_is_accepted_and_excluded(self):
        records = [rec("a", tags=("x",)), rec("b", tags=("x",)), rec("u")]
        index = build_index(records)
        assert related(index, copy.copy(records[0])) == [("b", 1.0)]
        assert related(index, copy.copy(records[2])) == []

    def test_unknown_record_rejected(self):
        index = build_index([rec("a")])
        with pytest.raises(UnknownRecord):
            related(index, rec("ghost"))

    def test_unknown_tagged_record_rejected(self):
        index = build_index([rec("a", tags=("x",)), rec("b")])
        with pytest.raises(UnknownRecord):
            related(index, rec("ghost", tags=("x",)))
        with pytest.raises(UnknownRecord):
            related(index, rec("ghost", tags=("never-indexed",)))
        with pytest.raises(UnknownRecord):  # same name and tags, other date
            related(index, rec("a", tags=("x",), date="1999-01-01"))

    def test_unknown_untagged_record_rejected(self):
        index = build_index([rec("a", tags=("x",)), rec("b")])
        with pytest.raises(UnknownRecord):
            related(index, rec("ghost"))
        with pytest.raises(UnknownRecord):
            related(index, rec("b", date="1999-01-01"))


class TestIndex:
    def test_rebuild_is_identical(self):
        rng = random.Random(3)
        records = [recgen.base_record(rng) for _ in range(15)]
        assert build_index(records) == build_index(records)

    def test_indexes_reflect_records(self):
        records = [
            rec("b", tags=("x", "y")),
            rec("a", tags=("x",)),
        ]
        index = build_index(records)
        assert index.by_name == (records[1], records[0])
        names = {
            tag: [index.by_name[p].name for p in ps] for tag, ps in index.tag_index.items()
        }
        assert names == {"x": ["a", "b"], "y": ["b"]}
        assert index.untagged == {}

    def test_records_keep_corpus_order(self):
        # perfbench's catalog-query looks its targets up as
        # index.records[i] and checks each against the i-th generated
        # record, so the name order lives in by_name, never in records
        rng = random.Random(11)
        records = [recgen.base_record(rng) for _ in range(30)] + [rec("0"), rec("a")]
        rng.shuffle(records)
        index = build_index(records)
        assert index.records == tuple(records)
        assert [r.name for r in index.by_name] == sorted(r.name for r in records)
        for ps in index.tag_index.values():
            assert list(ps) == sorted(set(ps))
