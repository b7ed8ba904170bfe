from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums import timestamps
from ums.errors import InvalidTimestamp


def test_canonical_forms_pass_through():
    assert timestamps.normalize("2011-03-01T16:35:22Z") == "2011-03-01T16:35:22Z"
    assert timestamps.normalize("2011-03-01") == "2011-03-01"


def test_display_form_is_converted():
    assert timestamps.normalize("2011:03:01 16:35:22Z") == "2011-03-01T16:35:22Z"
    # a carrier instant without a zone is UTC
    assert timestamps.normalize("2011:03:01 16:35:22") == "2011-03-01T16:35:22Z"


def test_display_form_with_offset_moves_to_utc():
    assert timestamps.normalize("2011:03:06 19:04:38+01:00") == "2011-03-06T18:04:38Z"


def test_pdf_date_strings():
    assert timestamps.normalize("D:20110301163522Z") == "2011-03-01T16:35:22Z"
    assert timestamps.normalize("D:20110301163522+01'00'") == "2011-03-01T15:35:22Z"
    assert timestamps.normalize("D:2011") == "2011-01-01T00:00:00Z"
    assert timestamps.normalize("D:20110301163522+01") == "2011-03-01T15:35:22Z"
    assert timestamps.normalize("D:20110301163522") == "2011-03-01T16:35:22Z"


def test_years_below_1000_keep_four_digits():
    assert timestamps.normalize("D:0999") == "0999-01-01T00:00:00Z"
    assert timestamps.normalize("0999:01:01 00:00:00Z") == "0999-01-01T00:00:00Z"


@pytest.mark.parametrize(
    "beyond", ["D:99991231230000-12'00'", "0001:01:01 00:00:00+01:00"]
)
def test_offset_beyond_the_calendar_is_rejected(beyond):
    with pytest.raises(InvalidTimestamp):
        timestamps.normalize(beyond)


def test_iso_offset_is_converted():
    assert timestamps.normalize("2011-03-06T19:04:38+01:00") == "2011-03-06T18:04:38Z"
    assert timestamps.normalize("2011-03-06T19:04:38") == "2011-03-06T19:04:38Z"


@pytest.mark.parametrize(
    "bad",
    ["", "yesterday", "2011-13-01", "2011-02-30", "2011-03-01T25:00:00Z", "11 MB"],
)
def test_garbage_is_rejected(bad):
    with pytest.raises(InvalidTimestamp):
        timestamps.normalize(bad)


def test_calendar_validity_enforced_in_canonical_check():
    assert timestamps.is_canonical("2012-02-29")  # leap day
    assert not timestamps.is_canonical("2011-02-29")


def test_as_datetime_orders_date_and_instant():
    assert timestamps.as_datetime("2011-03-01") < timestamps.as_datetime(
        "2011-03-01T00:00:01Z"
    )


@pytest.mark.parametrize(
    "value, expected",
    [
        ("1900-02-29", False),
        ("2000-02-29", True),
        ("2024-02-29", True),
        ("2023-02-29", False),
        ("0000-01-01", False),
        ("0001-01-01", True),
        ("2011-00-01", False),
        ("2011-13-01", False),
        ("2011-03-00", False),
        ("2011-03-32", False),
        ("2011-04-31", False),
        ("2011-12-31T23:59:59Z", True),
        ("2011-03-01T24:00:00Z", False),
        ("2011-03-01T00:60:00Z", False),
        ("2011-03-01T00:00:60Z", False),
        ("٢٠١١-03-01", False),
        ("2011-03-01\n", False),
        ("2011-03-01T16:35:22Z\n", False),
        ("2011-3-01", False),
        ("2011-03-01T16:35:22", False),
    ],
)
def test_canonical_check_agrees_with_strptime(value, expected):
    assert timestamps.is_canonical(value) is expected
    assert oracles.canonical_timestamp_reference(value) is expected


_YEARS = st.one_of(
    st.integers(0, 9999).map("{:04d}".format), st.sampled_from(["٢٠١١", "20 1", "+011"])
)
_TWO = st.one_of(st.integers(0, 32), st.integers(0, 99)).map("{:02d}".format)
_NEAR_CANONICAL = st.builds(
    lambda y, mo, d, clock, tail: f"{y}-{mo}-{d}{clock}{tail}",
    _YEARS,
    _TWO,
    _TWO,
    st.one_of(st.just(""), st.builds("T{}:{}:{}Z".format, _TWO, _TWO, _TWO)),
    st.sampled_from(["", "", "", "\n", " ", "Z"]),
)


@settings(max_examples=fixtures.examples(1000), deadline=None)
@given(_NEAR_CANONICAL)
def test_canonical_check_matches_strptime_reference(value):
    canonical = timestamps.is_canonical(value)
    assert canonical == oracles.canonical_timestamp_reference(value)
    if canonical:
        fmt = "%Y-%m-%d" if len(value) == 10 else "%Y-%m-%dT%H:%M:%SZ"
        expected = datetime.strptime(value, fmt).replace(tzinfo=timezone.utc)
        assert timestamps.as_datetime(value) == expected
    else:
        with pytest.raises(InvalidTimestamp):
            timestamps.as_datetime(value)


_HOURS = st.integers(0, 99).map("{:02d}".format)
_SIGN = st.sampled_from("+-")
_PDF_ZONE = st.one_of(
    st.just(""),
    st.just("Z"),
    st.builds("{}{}".format, _SIGN, _HOURS),
    st.builds("{}{}'{}'".format, _SIGN, _HOURS, _HOURS),
    st.builds("{}{}'{}".format, _SIGN, _HOURS, _HOURS),
)
_PDF_DATE = st.builds(
    lambda y, fields, zone: f"D:{y}{''.join(fields)}{zone}",
    _YEARS,
    st.integers(0, 5).flatmap(lambda n: st.lists(_TWO, min_size=n, max_size=n)),
    _PDF_ZONE,
)
_ISO_INSTANT = st.builds(
    "{}-{}-{}T{}:{}:{}{}".format,
    _YEARS,
    _TWO,
    _TWO,
    _TWO,
    _TWO,
    _TWO,
    st.one_of(st.sampled_from(["", "Z"]), st.builds("{}{}:{}".format, _SIGN, _HOURS, _HOURS)),
)


def _normalized(value):
    try:
        return timestamps.normalize(value)
    except InvalidTimestamp:
        return InvalidTimestamp


@settings(max_examples=fixtures.examples(1000), deadline=None)
@given(st.one_of(_PDF_DATE, _ISO_INSTANT, st.text(max_size=25)))
def test_display_form_normalizes_as_its_source(value):
    shown = timestamps.display(value)
    if shown is not None:
        assert _normalized(shown) == _normalized(value)


@settings(max_examples=fixtures.examples(1000), deadline=None)
@given(
    st.one_of(
        _PDF_DATE,
        _ISO_INSTANT,
        st.text(max_size=25),
        st.builds("D:{}".format, st.one_of(_ISO_INSTANT, st.text(max_size=20))),
        st.builds("{}{}".format, st.one_of(_PDF_DATE, _ISO_INSTANT), st.text(max_size=4)),
    )
)
def test_display_picks_the_pattern_the_two_tries_would(value):
    assert timestamps.display(value) == oracles.display_reference(value)


@pytest.mark.parametrize(
    "value, shown",
    [
        ("D:20110301163522", "2011:03:01 16:35:22"),
        ("D:20110301163522Z", "2011:03:01 16:35:22Z"),
        ("D:20110301163522+01", "2011:03:01 16:35:22+01:00"),
        ("D:20110301163522-05'30'", "2011:03:01 16:35:22-05:30"),
        ("D:2011", "2011:01:01 00:00:00"),
        ("2011-03-01T16:35:22", "2011:03:01 16:35:22"),
        ("2011-03-06T19:04:38+01:00", "2011:03:06 19:04:38+01:00"),
        ("2011-03-01", None),
        ("2011-03-01T16:35:22Z\n", None),
        ("yesterday", None),
    ],
)
def test_display_form_of_carrier_dates(value, shown):
    assert timestamps.display(value) == shown
