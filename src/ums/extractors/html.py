"""HTML metadata extraction: the title and every named meta tag."""

from __future__ import annotations

from html.parser import HTMLParser

from . import CARRIER_HTML, PairBuilder, RawMetadata


class _MetaScanner(HTMLParser):
    """Tolerant scanner; collects pairs in document order, never raises."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.events: list[tuple[str, str]] = []
        self._title_depth = 0
        self._title_chunks: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "title":
            self._title_depth += 1
            return
        if tag == "meta":
            found = {}
            for attr_name, attr_value in attrs:
                if attr_name in ("name", "content") and attr_name not in found:
                    found[attr_name] = attr_value if attr_value is not None else ""
            if "name" in found and "content" in found and found["name"]:
                self.events.append((found["name"], found["content"]))

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag == "title" and self._title_depth:
            self._title_depth -= 1
            if self._title_depth == 0 and self._title_chunks:
                self.events.append(("Title", "".join(self._title_chunks).strip()))
                self._title_chunks = []

    def handle_data(self, data):
        if self._title_depth:
            self._title_chunks.append(data)


def extract_html_meta(data: bytes) -> RawMetadata:
    """Extract ``<title>`` as Title plus every ``<meta name=... content=...>``.

    Attribute names are matched case-insensitively, either quote style
    works, and malformed markup never fails: whatever the scanner got
    through is returned.
    """
    text = data.decode("utf-8", errors="replace")
    scanner = _MetaScanner()
    try:
        scanner.feed(text)
        scanner.close()
    except Exception:
        pass  # salvage whatever was scanned before the breakage

    builder = PairBuilder()
    for key, value in scanner.events:
        builder.add(key, value)
    builder.add("FileSize", str(len(data)))
    return RawMetadata(carrier=CARRIER_HTML, pairs=builder.pairs())
