from __future__ import annotations

import html
import time

import pytest
from hypothesis import given, settings, strategies as st

import fixtures
import oracles
from ums.extractors import extract_html_meta


def pairs_dict(raw):
    return dict(raw.pairs)


def test_pubmed_page_yields_the_ncbi_pairs(pubmed_html):
    got = pairs_dict(extract_html_meta(pubmed_html))
    assert got["author"] == "pubmeddev"
    assert got["ncbi_uidlist"] == "21383996"
    assert got["ncbi_db"] == "pubmed"
    assert got["Title"] == fixtures.PUBMED_TITLE


def test_single_and_double_quotes_read_identically():
    single = b"<html><head><meta name='k' content='v'></head></html>"
    double = b'<html><head><meta name="k" content="v"></head></html>'
    assert extract_html_meta(single).pairs[:1] == extract_html_meta(double).pairs[:1]


def test_attribute_name_case_is_insensitive():
    shouty = b'<META NAME="k" CONTENT="v">'
    assert ("k", "v") in extract_html_meta(shouty).pairs


def test_page_without_meta_tags_yields_title_only(pubmed_html):
    raw = extract_html_meta(fixtures.bare_html())
    keys = [k for k, _ in raw.pairs]
    assert keys == ["Title", "FileSize"]
    assert pairs_dict(raw)["Title"] == "Plain page"


def test_meta_without_name_is_skipped():
    data = b'<meta http-equiv="refresh" content="5"><meta name="a" content="1">'
    assert [k for k, _ in extract_html_meta(data).pairs] == ["a", "FileSize"]


def test_malformed_markup_never_fails():
    mangled = b"<html><head><title>ok</title><meta name= content><div<<>>"
    raw = extract_html_meta(mangled)
    assert ("Title", "ok") in raw.pairs


def test_repeated_meta_names_get_suffixes():
    data = b'<meta name="a" content="1"><meta name="a" content="2">'
    assert extract_html_meta(data).pairs[:2] == (("a", "1"), ("a (1)", "2"))


def test_attribute_values_keep_legacy_references_before_a_letter_digit_or_equals():
    page = (
        b"<title>&copy=2 &notit;</title>"
        b'<meta name="a" content="?a=1&copy=2 &notit; &amp=x &copy 2 &amp;x &ampx &#38x &copy'
        b' &copy\xc3\xa9">'
    )
    assert extract_html_meta(page).pairs[:2] == (
        ("Title", "\u00a9=2 \u00acit;"),
        ("a", "?a=1&copy=2 &notit; &amp=x \u00a9 2 &x &ampx &x \u00a9 \u00a9\u00e9"),
    )


def test_a_reference_no_name_starts_is_kept_as_written():
    page = b'<meta name="x" content="&zzzz a">'
    assert extract_html_meta(page).pairs[0] == ("x", "&zzzz a")


@pytest.mark.parametrize(
    "reference",
    ["&#0;", "&#9;", "&#11;", "&#13;", "&#31;", "&#32;", "&#126;", "&#127;", "&#128;", "&#159;",
     "&#160;", "&#xD7FF;", "&#xD800;", "&#xFDD0;", "&#xFFFE;", "&#x10FFFF;", "&#x110000;",
     "&#99999999999;", "&#x41", "&#65"],
)
def test_numeric_references_in_attribute_values_read_as_html_unescape_reads_them(reference):
    page = f'<meta name="a" content="x{reference}y">'.encode()
    assert extract_html_meta(page).pairs[0] == ("a", html.unescape(f"x{reference}y"))


def test_file_size_in_bytes(pubmed_html):
    raw = extract_html_meta(pubmed_html)
    assert pairs_dict(raw)["FileSize"] == str(len(pubmed_html))


# --- the one-pass scan against the HTMLParser reference ----------------------

_TEXT = st.text(st.sampled_from("abcXYZ019 .,;:!?é漢\n"), max_size=10)
#: references with and without ";", named legacy ones among them, which
#: an attribute value keeps as written before "=", a letter or a digit,
#: and numeric ones that html.unescape maps by its own tables
_REFERENCE = st.sampled_from(
    ["&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&#62;", "&#x5b57;", "&eacute;", "&uuml;",
     "&amp", "&copy", "&not", "&notin", "&eacute", "&#38", "&ampx", "&copy=",
     "&#0;", "&#9;", "&#11;", "&#13;", "&#127;", "&#128;", "&#159;", "&#160;", "&#xD7FF;",
     "&#xD800;", "&#xFDD0;", "&#xFFFE;", "&#x10FFFF;", "&#x110000;", "&#99999999999;"]
)
#: text with character references and no "<"
_CHUNK = st.lists(st.one_of(_TEXT, _REFERENCE, st.just(">")), max_size=5).map("".join)


def _any_case(word: str):
    return st.tuples(*[st.sampled_from((c.lower(), c.upper())) for c in word]).map("".join)


def _quoted(quote: str):
    other = "'" if quote == '"' else '"'
    inner = st.lists(st.one_of(_CHUNK, st.sampled_from([other, "<", "/>", " = "])), max_size=4)
    return inner.map(lambda parts: quote + "".join(parts) + quote)


_BARE = st.lists(
    st.one_of(st.text(st.sampled_from("abcXYZ019.,;:_-é"), min_size=1, max_size=8), _REFERENCE),
    min_size=1,
    max_size=3,
).map("".join)
_VALUE = st.one_of(_quoted('"'), _quoted("'"), _BARE)
_ATTRIBUTE = st.tuples(
    st.one_of(
        st.sampled_from(["name", "content"]).flatmap(_any_case),
        st.sampled_from(["http-equiv", "lang", "charset", "property", "data-x"]),
    ),
    st.one_of(st.just(""), st.tuples(st.sampled_from(["=", " = ", "\n="]), _VALUE).map("".join)),
).map("".join)
_SEPARATOR = st.sampled_from([" ", "  ", "\n", "\t", " \n "])
_META = st.tuples(
    _any_case("meta"),
    st.lists(st.tuples(_SEPARATOR, _ATTRIBUTE).map("".join), max_size=5).map("".join),
    st.sampled_from([">", " >", "/>", " />", "\n>"]),
).map(lambda parts: "<" + "".join(parts))
_TITLE = st.tuples(
    _any_case("title"), _CHUNK, _any_case("title"), st.sampled_from([">", " >", "\n>"])
).map(lambda t: f"<{t[0]}>{t[1]}</{t[2]}{t[3]}")
#: meta-like text a script or style element holds, with no "</" that ends it
_RAW_TEXT = st.lists(
    st.one_of(
        _TEXT,
        st.sampled_from(
            ['<meta name="s" content="t">', "<title>no", 'var a = "<b>";', "<!-- x", "</scripts>", "</styles x>"]
        ),
    ),
    max_size=4,
).map("".join)
_RAW_BLOCK = st.sampled_from(["script", "style"]).flatmap(
    lambda tag: st.tuples(
        _any_case(tag),
        st.sampled_from(["", ' type="text/javascript"', " media='a>b'"]),
        _RAW_TEXT,
        _any_case(tag),
        st.sampled_from([">", " >", "\n>"]),
    )
).map(lambda t: f"<{t[0]}{t[1]}>{t[2]}</{t[3]}{t[4]}")
_COMMENT = st.lists(
    st.one_of(_TEXT, st.sampled_from(['<meta name="c" content="d">', "<title>x</title>", "<p>"])),
    max_size=4,
).map(lambda parts: "<!--" + "".join(parts) + "-->")
_OTHER = st.sampled_from(
    ["<p>", "</p>", "<br/>", "<br />", '<div class="a>b">', "</div>", "<img src=x alt='y>'/>",
     '<a href="/x?a=1&amp;b=2">', "</a>", "<html>", "<head>", "</head>", "<body>", "<script/>",
     " 1 < 2 ", "<?xml version='1.0'?>", "<!x <meta name=d content=e>", "<?x <meta name=p content=q>",
     "</p <meta name=e content=f>"]
)
_PAGE = st.lists(
    st.one_of(
        st.sampled_from(["<!DOCTYPE html>", "<!doctype html>\n"]),
        _COMMENT, _RAW_BLOCK, _TITLE, _META, _META, _OTHER, _CHUNK,
    ),
    max_size=12,
).map(lambda parts: "".join(parts).encode("utf-8"))


@settings(max_examples=fixtures.examples(400), deadline=None)
@given(_PAGE)
def test_well_formed_pages_extract_as_the_reference(page):
    assert extract_html_meta(page).pairs == oracles.html_meta_reference(page).pairs


def test_a_lt_that_starts_no_markup_is_text():
    page = b"1 < 2 <3 <=4 <a\x00 <meta name=a content=b>"
    assert extract_html_meta(page).pairs[:-1] == (("a", "b"),)


# --- where the scan differs from the reference, on purpose -------------------


def test_text_ends_only_at_its_own_end_tag():
    page = b"<script>a</scripts><meta name=x content=y></SCRIPT\n><title>t</titlex>u</title >"
    assert extract_html_meta(page).pairs[:-1] == (("Title", "t</titlex>u"),)


def test_a_title_holding_markup_is_literal_text():
    page = b'<title>a<b>c</b> &amp; <meta name="x" content="y"></title><title>a<!-- x -- >b</title>'
    assert extract_html_meta(page).pairs[:2] == (
        ("Title", 'a<b>c</b> & <meta name="x" content="y">'),
        ("Title (1)", "a<!-- x -- >b"),
    )


_FOUND_BEFORE = b'<meta name="k" content="v">'
#: what would be found if the scan went on: it closes none of the constructs
#: below, though HTMLParser reads on after the ">" and finds the meta
_FOUND_AFTER = b"><meta name=a content=1><p>t</p>"


@pytest.mark.parametrize(
    "construct",
    [b"<!-- x -- >", b"<p title='x", b'<p title="x', b"<script>", b"<STYLE media=a>", b"<title>x"],
    ids=["comment", "single-quoted value", "double-quoted value", "script", "style", "title"],
)
def test_an_unterminated_construct_ends_the_scan(construct):
    page = _FOUND_BEFORE + construct + _FOUND_AFTER
    assert extract_html_meta(page).pairs == (("k", "v"), ("FileSize", str(len(page))))


@pytest.mark.parametrize(
    "construct", [b"<!DOCTYPE html", b"<?xml", b"</p", b"<p class=x"],
    ids=["declaration", "processing instruction", "end tag", "start tag"],
)
def test_a_construct_without_its_closing_bracket_ends_the_scan(construct):
    page = _FOUND_BEFORE + construct + b" & text < no bracket"
    assert extract_html_meta(page).pairs == (("k", "v"), ("FileSize", str(len(page))))


@pytest.mark.parametrize(
    "unit", [b"</ ", b"<?x", b"<!x", b"<!--", b"<a x='", b"<meta name='", b"<title>"]
)
def test_hostile_markup_extracts_in_linear_time(unit):
    page = b"<title>t</title>" + unit * (400_000 // len(unit))
    started = time.perf_counter()
    raw = extract_html_meta(page)
    assert time.perf_counter() - started < 2.0
    assert ("Title", "t") in raw.pairs
