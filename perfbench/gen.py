"""Seeded input generators for the benchmark workloads.

Nothing here imports the toolkit: sidecars, catalogs, PDFs and HTML
pages are written by this module's own serializers, so the program
under test receives only generated bytes, and the same seed always
gives the same bytes.  Each generator also returns what it put in, for
the correctness checks.
"""

from __future__ import annotations

import hashlib
import random
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timedelta

# recgen's alphabet: escapes (| \ newline), Cyrillic, CJK, and
# combining marks that NFC folds into one character
_TEXT_CHOICES = tuple(
    "abcdefghijklmnopqrstuvwxyzABCDERSTUVWXYZ0123456789"
    " .,:;!?()[]/-_+'\"|\\\n"
    "абвгдежзийклмнопрстуфхцчшщъыьэюя"
    "ÀÁÂÃÄÅàáâãäåēõ"
    "漢字かなカナ"
) + ("Á", "ë")

FORMATS = ("pdf", "html", "txt", "jpg", "png", "gif", "doc", "mp4", "wav", "psd")
LANGUAGES = ("en", "de", "fr", "ru", "uk", "es", "it", "ja", "zh", "eng", "deu", "rus")
SYSTEMS = ("DOI", "ISBN", "PMID", "OCLC", "URN", "PURL", "ISNI")
DOC_TYPES = (None, "text", "image", "photo", "video", "sound")
EVENT_KINDS = ("rename", "reclassify", "relocate", "reformat", "translate")
DERIVED = {
    "rename": "synonyms",
    "reclassify": "identifiers",
    "relocate": "locations",
    "reformat": "formats",
    "translate": "languages",
}
GENESIS_PREV = "0" * 16

TAG_VOCABULARY = 500
PROJECTS = 16
PROJECT_SHARE = 0.2


def rng_for(workload: str, seed: int) -> random.Random:
    """One independent stream per workload and seed."""
    return random.Random(f"{workload}:{seed}")


def text(rng: random.Random, lo: int = 1, hi: int = 14) -> str:
    raw = "".join(rng.choices(_TEXT_CHOICES, k=rng.randint(lo, hi)))
    return unicodedata.normalize("NFC", raw)


def unique_texts(rng: random.Random, count: int) -> list[str]:
    taken: set[str] = set()
    out = []
    while len(out) < count:
        candidate = text(rng)
        if candidate not in taken:
            taken.add(candidate)
            out.append(candidate)
    return out


def _date(rng: random.Random) -> datetime:
    return datetime(
        rng.randint(1970, 2035), rng.randint(1, 12), rng.randint(1, 28),
        rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
    )


def instant(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


# -- sidecars -----------------------------------------------------------


def escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("|", "\\|")


@dataclass
class Record:
    """Field values of one sidecar, already NFC and de-duplicated."""

    name: str
    formats: list[str]
    date: str
    synonyms: list[str] = field(default_factory=list)
    doc_type: str | None = None
    summary: str | None = None
    languages: list[str] = field(default_factory=list)
    locations: list[str] = field(default_factory=list)
    creators: list[str] = field(default_factory=list)
    identifiers: list[tuple[str, str]] = field(default_factory=list)
    access: int = 0
    subjects: list[tuple[str, str | None]] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    history: list[tuple] = field(default_factory=list)  # (seq, ts, kind, payload, prev)


def event_value(seq: int, ts: str, kind: str, payload: str, prev: str) -> str:
    return f"{seq}|{ts}|{kind}|{escape(payload)}|{prev}"


def _digest(value: str) -> str:
    return hashlib.sha256(value.encode("utf-8")).hexdigest()[:16]


def append_event(rec: Record, kind: str, payload: str, ts: str) -> None:
    """Append-only history: genesis first, chained digest, derived list."""
    if not rec.history:
        rec.history.append((0, rec.date, "create", "", GENESIS_PREV))
    prev = _digest(event_value(*rec.history[-1]))
    rec.history.append((len(rec.history), ts, kind, payload, prev))
    value = tuple(payload.split("|", 1)) if kind == "reclassify" else payload
    derived = getattr(rec, DERIVED[kind])
    if value not in derived:
        derived.append(value)


def serialize(rec: Record) -> bytes:
    """Canonical sidecar bytes, key order as the format fixes it."""
    lines = ["ums: 1", f"name: {escape(rec.name)}"]
    lines += [f"synonym: {escape(s)}" for s in rec.synonyms]
    lines += [f"format: {f}" for f in rec.formats]
    lines.append(f"date: {rec.date}")
    if rec.doc_type is not None:
        lines.append(f"type: {rec.doc_type}")
    if rec.summary is not None:
        lines.append(f"summary: {escape(rec.summary)}")
    lines += [f"language: {c}" for c in rec.languages]
    lines += [f"location: {escape(v)}" for v in rec.locations]
    lines += [f"creator: {escape(v)}" for v in rec.creators]
    lines += [f"identifier: {escape(s)}|{escape(i)}" for s, i in rec.identifiers]
    if rec.access:
        lines.append(f"access: {rec.access}")
    for subject, source in rec.subjects:
        suffix = "" if source is None else f"|{escape(source)}"
        lines.append(f"subject: {escape(subject)}{suffix}")
    lines += [f"tag: {escape(t)}" for t in rec.tags]
    lines += [f"history: {event_value(*e)}" for e in rec.history]
    return ("\n".join(lines) + "\n").encode("utf-8")


def event_payload(rng: random.Random, kind: str) -> str:
    if kind in ("rename", "relocate"):
        return text(rng)
    if kind == "reformat":
        return rng.choice(FORMATS)
    if kind == "translate":
        return rng.choice(LANGUAGES)
    return f"{rng.choice(SYSTEMS)}|{text(rng)}"


def base_record(rng: random.Random, name: str) -> Record:
    """A complete record with no history, shaped like recgen's."""
    date = _date(rng)
    identifiers = list(dict.fromkeys((rng.choice(SYSTEMS), text(rng)) for _ in range(rng.randint(0, 3))))
    subjects = [
        (s, text(rng, 1, 6) if rng.random() < 0.4 else None)
        for s in unique_texts(rng, rng.randint(0, 3))
    ]
    return Record(
        name=name,
        synonyms=unique_texts(rng, rng.randint(0, 2)),
        formats=rng.sample(FORMATS, rng.randint(1, 3)),
        date=date.strftime("%Y-%m-%d") if rng.random() < 0.25 else instant(date),
        doc_type=rng.choice(DOC_TYPES),
        summary=text(rng, 1, 40) if rng.random() < 0.5 else None,
        languages=list(dict.fromkeys(rng.choice(LANGUAGES) for _ in range(rng.randint(0, 3)))),
        locations=unique_texts(rng, rng.randint(0, 3)),
        creators=unique_texts(rng, rng.randint(0, 3)),
        identifiers=identifiers,
        access=rng.randint(0, 3),
        subjects=subjects,
    )


def add_history(rng: random.Random, rec: Record, events: int, step_s: int) -> datetime:
    """Append *events* events with increasing instants; returns the last."""
    when = datetime.fromisoformat(rec.date.rstrip("Z"))
    for _ in range(events):
        when += timedelta(seconds=rng.randint(1, step_s))
        kind = rng.choice(EVENT_KINDS)
        append_event(rec, kind, event_payload(rng, kind), instant(when))
    return when


@dataclass
class TagModel:
    """Shared tag vocabulary with Zipf-like popularity plus project tags."""

    vocabulary: list[str]
    cum_weights: list[float]
    projects: list[str]


def tag_model(rng: random.Random) -> TagModel:
    vocabulary = [
        t for t in unique_texts(rng, TAG_VOCABULARY + 8) if not t.startswith("project:")
    ][:TAG_VOCABULARY]
    cum, total = [], 0.0
    for rank in range(1, len(vocabulary) + 1):
        total += 1.0 / rank
        cum.append(total)
    projects = [f"project:{p}" for p in unique_texts(rng, PROJECTS)]
    return TagModel(vocabulary, cum, projects)


def pick_tags(rng: random.Random, model: TagModel) -> list[str]:
    want = rng.randint(0, 4)
    tags: list[str] = []
    while len(tags) < want:
        tag = rng.choices(model.vocabulary, cum_weights=model.cum_weights)[0]
        if tag not in tags:
            tags.append(tag)
    if rng.random() < PROJECT_SHARE:
        tags.append(rng.choice(model.projects))
    return tags


def corpus(
    seed: int, count: int, workload: str = "corpus-scan", creators=None, max_events: int = 8
) -> list[Record]:
    """*count* records with 0-*max_events* history events and shared,
    skewed tags.

    Names are unique (an index suffix), so a name finds one record.
    *creators*, when given, is called with the rng to choose each
    record's creator list.
    """
    rng = rng_for(workload, seed)
    model = tag_model(rng)
    records = []
    for i in range(count):
        rec = base_record(rng, f"{text(rng, 1, 12)}#{i}")
        rec.tags = pick_tags(rng, model)
        if creators is not None:
            rec.creators = creators(rng)
        add_history(rng, rec, rng.randint(0, max_events), 86400)
        records.append(rec)
    return records


def history_record(rng: random.Random, name: str, events: int) -> tuple[Record, datetime]:
    """A record whose history holds *events* events, genesis included."""
    rec = base_record(rng, name)
    last = add_history(rng, rec, events - 1, 3600)
    return rec, last


# -- catalogs -----------------------------------------------------------

_SYLLABLES = (
    "ka", "ri", "mo", "sen", "ta", "lu", "ve", "dor", "an", "bel", "ni", "sto",
    "ra", "ol", "mi", "ger", "ко", "ва", "лен", "ска", "ми", "ро",
)
_PLACES = tuple(
    "Berlin Paris Lyon Kyiv Oslo Rome Porto Graz Riga Turku Basel Ghent".split()
)


def _word(rng: random.Random, syllables=_SYLLABLES) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))).capitalize()


def _ascii_word(rng: random.Random) -> str:
    return _word(rng, _SYLLABLES[:16])


@dataclass(frozen=True)
class CatalogEntry:
    canonical: str
    synonyms: tuple[str, ...]


def _catalog(rng: random.Random, kind: str, count: int, taken: set) -> list[CatalogEntry]:
    entries = []
    while len(entries) < count:
        if kind == "person":
            who = (_word(rng), _word(rng))
        else:
            who = (f"{_word(rng)} {rng.choice(('Institut', 'Lab', 'Verlag', 'Society'))}",)
        when = f"{rng.randint(1900, 2000):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        canonical = (
            f"{kind}:" + "\\,".join(escape(p) for p in who)
            + f"|{when}|{rng.choice(_PLACES)}"
        )
        if canonical in taken:
            continue
        taken.add(canonical)
        synonyms = []
        for variant in (f"{who[0][0]}. {who[-1]}", f"{who[-1]}, {who[0]}")[: rng.choice((0, 0, 1, 2))]:
            if variant not in taken:
                taken.add(variant)
                synonyms.append(variant)
        entries.append(CatalogEntry(canonical, tuple(synonyms)))
    return entries


def catalog_bytes(name: str, entries: list[CatalogEntry]) -> bytes:
    lines = ["metabase-catalog: 1", f"catalog: {name}"]
    for entry in entries:
        lines.append(f"entry: {entry.canonical}")
        lines += [f"  synonym: {s}" for s in entry.synonyms]
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass
class Catalogs:
    authors: list[CatalogEntry]
    organizations: list[CatalogEntry]
    names: set  # every canonical string and synonym


def catalogs(rng: random.Random, authors: int, organizations: int) -> Catalogs:
    taken: set = set()
    return Catalogs(
        _catalog(rng, "person", authors, taken),
        _catalog(rng, "organization", organizations, taken),
        taken,
    )


def creator_picker(mb: Catalogs, known_share: float = 0.7):
    """0-3 creators each; *known_share* of them resolve, by canonical
    string or by synonym, and the rest are in no catalog."""
    pool = mb.authors + mb.organizations

    def pick(rng: random.Random) -> list[str]:
        out: list[str] = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < known_share:
                entry = rng.choice(pool)
                choice = rng.choice(entry.synonyms) if entry.synonyms and rng.random() < 0.4 else entry.canonical
            else:
                choice = text(rng, 4, 14)
                if choice in mb.names:
                    continue
            if choice not in out:
                out.append(choice)
        return out

    return pick


# -- carriers -----------------------------------------------------------

_LATIN1 = tuple("abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,:;-()\\\néüßçñøå©")
_WIDE = tuple("абвгдежзийклмнопрстуфхцчшщюя漢字かなカナ ")


def _nfc(value: str) -> str:
    return unicodedata.normalize("NFC", value)


def _visible(rng: random.Random, alphabet, lo: int, hi: int) -> str:
    """Non-empty text that neither starts nor ends with whitespace."""
    while True:
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        value = _nfc(value)
        if value and not value[0].isspace() and not value[-1].isspace():
            return value


def _pdf_literal(raw: bytes) -> bytes:
    out = bytearray(b"(")
    for b in raw:
        if b in b"()\\":
            out += b"\\" + bytes([b])
        elif b == 0x0A:
            out += b"\\n"
        elif b < 0x20 or b > 0x7E:
            out += b"\\%03o" % b
        else:
            out.append(b)
    return bytes(out + b")")


def _pdf_text(rng: random.Random, value: str) -> bytes:
    """A PDF string object for *value*: PDFDoc literal, or UTF-16BE."""
    try:
        raw = value.encode("latin-1")
    except UnicodeEncodeError:
        raw = b"\xfe\xff" + value.encode("utf-16-be")
        if rng.random() < 0.5:
            return b"<" + raw.hex().upper().encode("ascii") + b">"
    return _pdf_literal(raw)


def _isbn13(rng: random.Random, valid: bool) -> str:
    digits = [9, 7, 8] + [rng.randint(0, 9) for _ in range(9)]
    check = (10 - sum(d * (1 if i % 2 == 0 else 3) for i, d in enumerate(digits)) % 10) % 10
    if not valid:
        check = (check + 1) % 10
    return "".join(map(str, digits)) + str(check)


@dataclass(frozen=True)
class Carrier:
    """One carrier's bytes and the facts its mapped record must show."""

    kind: str  # "pdf" | "html"
    data: bytes
    title: str | None
    author: str | None
    date: str | None
    pmid: str | None = None
    partial: bool = False


def _pdf_date(rng: random.Random) -> tuple[str, str]:
    """A PDF date string and its canonical UTC instant."""
    local = datetime(
        rng.randint(1995, 2020), rng.randint(1, 12), rng.randint(1, 28),
        rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
    )
    hours = rng.choice((0, 0, 1, 2, -5, 9))
    if hours == 0:
        tz = "Z"
    else:
        tz = f"{'+' if hours > 0 else '-'}{abs(hours):02d}'00'"
    return f"D:{local:%Y%m%d%H%M%S}{tz}", instant(local - timedelta(hours=hours))


def _xmp(rng: random.Random, entries: int) -> bytes:
    events = "\n".join(
        f'   <rdf:li stEvt:action="saved" stEvt:when="20{rng.randint(0, 19):02d}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}'
        f'T1{rng.randint(0, 9)}:{rng.randint(10, 59)}:{rng.randint(10, 59)}+01:00"/>'
        for _ in range(entries)
    )
    return (
        '<?xpacket begin="﻿" id="W5M0MpCehiHzreSzNTczkc9d"?>\n'
        '<x:xmpmeta xmlns:x="adobe:ns:meta/">\n'
        ' <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">\n'
        '  <rdf:Description rdf:about="">\n'
        f"   <xmp:CreatorTool>{_word(rng)} {rng.randint(1, 9)}.{rng.randint(0, 9)}</xmp:CreatorTool>\n"
        f"   <xmp:MetadataDate>2011-03-0{rng.randint(1, 9)}T19:04:38+01:00</xmp:MetadataDate>\n"
        f"   <xmpMM:DocumentID>xmp.did:{rng.getrandbits(64):016X}</xmpMM:DocumentID>\n"
        f"   <xmpMM:History><rdf:Seq>\n{events}\n   </rdf:Seq></xmpMM:History>\n"
        "  </rdf:Description>\n </rdf:RDF>\n</x:xmpmeta>\n"
        '<?xpacket end="w"?>'
    ).encode("utf-8")


def pdf_carrier(rng: random.Random, pages: int, xmp_entries: int | None, damaged: bool) -> Carrier:
    """Classic-xref PDF with *pages* pages, Info direct or behind refs,
    an XMP packet when *xmp_entries* is not None, and, when *damaged*,
    a wrong Info offset (extraction is partial)."""
    title = _visible(rng, _LATIN1 if rng.random() < 0.6 else _WIDE, 3, 40)
    author = _visible(rng, _LATIN1 if rng.random() < 0.8 else _WIDE, 3, 24)
    created, expected_date = _pdf_date(rng)
    modified = created if rng.random() < 0.3 else _pdf_date(rng)[0]
    info = [
        (b"Title", _pdf_text(rng, title)),
        (b"Author", _pdf_text(rng, author)),
        (b"Creator", _pdf_literal(rng.choice((b"Pages", b"LaTeX with hyperref", b"Writer")))),
        (b"CreationDate", _pdf_literal(created.encode("ascii"))),
        (b"ModDate", _pdf_literal(modified.encode("ascii"))),
        (b"Producer", _pdf_literal(f"{_ascii_word(rng)} PDF {rng.randint(1, 9)}".encode("ascii"))),
    ]
    if rng.random() < 0.3:
        info.append((b"ISBN", _pdf_literal(_isbn13(rng, rng.random() < 0.7).encode("ascii"))))
    if rng.random() < 0.3:
        info.append((b"DOI", _pdf_literal(f"10.{rng.randint(1000, 99999)}/{_ascii_word(rng).lower()}".encode("ascii"))))

    placement = "indirect" if damaged else rng.choice(("direct", "indirect", "refs"))

    objects: list[bytes] = [b"", b""]  # 1 catalog, 2 page tree: filled below
    objects += [b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] >>"] * pages
    kids = " ".join(f"{3 + i} 0 R" for i in range(pages))
    objects[1] = f"<< /Type /Pages /Kids [{kids}] /Count {pages} >>".encode("ascii")

    catalog = b"<< /Type /Catalog /Pages 2 0 R"
    if xmp_entries is not None:
        xmp = _xmp(rng, xmp_entries)
        objects.append(
            f"<< /Type /Metadata /Subtype /XML /Length {len(xmp)} >>\nstream\n".encode("ascii")
            + xmp + b"\nendstream"
        )
        catalog += f" /Metadata {len(objects)} 0 R".encode("ascii")
    objects[0] = catalog + b" >>"

    if placement == "refs":
        entries = []
        for key, value in info:
            objects.append(value)
            entries.append(b"/" + key + f" {len(objects)} 0 R".encode("ascii"))
    else:
        entries = [b"/" + key + b" " + value for key, value in info]
    info_dict = b"<< " + b" ".join(entries) + b" >>"
    info_ref = b""
    if placement != "direct":
        objects.append(info_dict)
        info_ref = f"{len(objects)} 0 R".encode("ascii")

    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = []
    for number, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{number} 0 obj\n".encode("ascii") + body + b"\nendobj\n"
    if damaged:
        offsets[-1] = 1  # inside the header, where no object starts
    xref_at = len(out)
    out += f"xref\n0 {len(objects) + 1}\n0000000000 65535 f \n".encode("ascii")
    out += b"".join(f"{offset:010d} 00000 n \n".encode("ascii") for offset in offsets)
    out += f"trailer\n<< /Size {len(objects) + 1} /Root 1 0 R /Info ".encode("ascii")
    out += (info_dict if placement == "direct" else info_ref) + b" >>\n"
    out += f"startxref\n{xref_at}\n%%EOF\n".encode("ascii")
    if damaged:
        return Carrier("pdf", bytes(out), None, None, None, partial=True)
    return Carrier("pdf", bytes(out), title, author, expected_date)


_HTML_ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,:;-&<>\"'éüßжщ漢字")
_NAMED = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "é": "&eacute;", "ü": "&uuml;", "ß": "&szlig;"}
_META_NAMES = (
    "description", "keywords", "robots", "ncbi_app", "ncbi_db", "ncbi_report",
    "ncbi_format", "ncbi_pagesize", "citation_title", "citation_journal_title",
    "dc.title", "dc.publisher", "viewport", "generator", "PMID", "DOI",
)


def _html_escape(rng: random.Random, value: str) -> str:
    out = []
    for ch in value:
        roll = rng.random()
        if ch in "&<>\"" or (ch in _NAMED and roll < 0.5):
            out.append(_NAMED[ch])
        elif ord(ch) > 127 and roll < 0.3:
            out.append(f"&#{ord(ch)};" if roll < 0.15 else f"&#x{ord(ch):x};")
        else:
            out.append(ch)
    return "".join(out)


def html_carrier(rng: random.Random, wanted: int) -> Carrier:
    """A page with a title, an author, *wanted* meta tags with entity
    references, and usually an NCBI PMID."""
    title = _visible(rng, _HTML_ALPHABET, 5, 80)
    author = _visible(rng, _HTML_ALPHABET, 3, 30)
    pmid = str(rng.randint(1, 39999999)) if rng.random() < 0.7 else None
    metas = [("author", author)] + ([("ncbi_uidlist", pmid)] if pmid else [])
    while len(metas) < wanted:
        name = rng.choice(_META_NAMES)
        if name == "PMID":
            value = str(rng.randint(0, 999999999))  # some fail lint's syntax rule
        elif name == "DOI":
            value = f"10.{rng.randint(1, 99999)}/{_word(rng).lower()}"
        else:
            value = _visible(rng, _HTML_ALPHABET, 1, 60)
        metas.append((name, value))
    rng.shuffle(metas)
    head = [f"<title>{_html_escape(rng, title)}</title>"]
    for name, value in metas:
        quote = '"' if rng.random() < 0.8 else "'"
        body = _html_escape(rng, value).replace("'", "&#39;") if quote == "'" else _html_escape(rng, value)
        head.append(f"<meta name={quote}{name}{quote} content={quote}{body}{quote}>")
    page = (
        "<!DOCTYPE html>\n<html>\n<head>\n" + "\n".join(head)
        + "\n</head>\n<body>\n<p>" + _html_escape(rng, text(rng, 20, 200).replace("\n", " "))
        + "</p>\n</body>\n</html>\n"
    )
    return Carrier("html", page.encode("utf-8"), title, author, None, pmid)


def _strata(rng: random.Random, count: int) -> list[float]:
    """*count* uniform draws, one from each of *count* equal strata, in
    seeded order: every seed gets the same spread of sizes."""
    out = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(out)
    return out


def _exactly(rng: random.Random, count: int, share: float) -> list[bool]:
    out = [i < round(count * share) for i in range(count)]
    rng.shuffle(out)
    return out


def carriers(seed: int, count: int) -> list[Carrier]:
    """*count* carriers in seeded order: 70% PDF with log-uniform 1-400
    pages, 40% of them with XMP of 0-200 history entries and 5% damaged;
    30% HTML with 5-60 meta tags.  Shares and size ranges are stratified,
    so seeds differ in content but not in how much work it is."""
    rng = rng_for("carrier-ingest", seed)
    n_pdf = round(count * 0.7)
    pages = [max(1, round(400 ** u)) for u in _strata(rng, n_pdf)]
    xmp = [round(200 * u) for u in _strata(rng, n_pdf)]
    with_xmp, damaged = _exactly(rng, n_pdf, 0.4), _exactly(rng, n_pdf, 0.05)
    out = [
        pdf_carrier(rng, pages[i], xmp[i] if with_xmp[i] else None, damaged[i])
        for i in range(n_pdf)
    ]
    out += [html_carrier(rng, 5 + round(55 * u)) for u in _strata(rng, count - n_pdf)]
    rng.shuffle(out)
    return out
