"""The escaping functions against the character-at-a-time references."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums.escaping import split_fields, unescape

#: backslashes, pipes, ``n`` and line feeds make up most of each value, so
#: escape pairs, stray escapes and separators meet in every combination
_HEAVY = st.text(
    alphabet=st.sampled_from(["\\", "\\", "|", "|", "n", "n", "\n", "a", "é"]),
    max_size=30,
)
VALUES = st.one_of(_HEAVY, _HEAVY.map(lambda s: s + "\\"), st.text(max_size=20))


def outcome(fn, value):
    try:
        return "ok", fn(value)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=fixtures.examples(500), deadline=None)
@given(VALUES)
def test_split_fields_matches_reference(value):
    assert split_fields(value) == oracles.split_fields_reference(value)


@settings(max_examples=fixtures.examples(500), deadline=None)
@given(VALUES)
def test_unescape_matches_reference_results_and_errors(value):
    assert outcome(unescape, value) == outcome(oracles.unescape_reference, value)


@pytest.mark.parametrize(
    "value, message",
    [("abc\\", "dangling backslash"), ("\\", "dangling backslash"), ("a\\qb", "bad escape \\q")],
)
def test_stray_backslash_errors(value, message):
    with pytest.raises(ValueError, match=message.replace("\\", "\\\\")):
        unescape(value)

