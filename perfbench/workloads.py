"""The four workloads: inputs, the closed-loop operation stream, and the
check each operation's output must pass.

Every workload is a closed loop with one client: the next operation is
made only after the previous one returned.  ``corpus-scan`` and
``history-append`` run ``ums`` commands; the runner gives each command
a fresh interpreter, or, in traced runs, calls ``ums.cli.main`` in
process.  ``carrier-ingest`` and ``catalog-query`` call the library in
one long-lived process.  Library calls go through module attributes so
that a traced run's wrappers see them.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import gen
import oracle


@dataclass
class Op:
    kind: str
    check: Callable[[object], bool]
    argv: Optional[list[str]] = None  # a ums command line
    call: Optional[Callable[[], object]] = None  # a library call


def _expect_stdout(expected) -> Callable[[object], bool]:
    """Check of a command's (exit code, stdout); *expected* may be a
    zero-argument callable, evaluated once, after the first run."""
    cache: list[str] = []

    def check(result) -> bool:
        code, out = result
        if not cache:
            cache.append(expected() if callable(expected) else expected)
        return code == 0 and out == cache[0]

    return check


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


class Workload:
    name = ""
    cli = False
    #: cap on the operations of a traced run, which keeps every span
    #: in memory; CLI operations record thousands of spans each
    trace_max_ops = 10**9
    #: operations of a library workload's memory pass (run.py)
    memory_ops = 2

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Generate the inputs, then load and index them."""
        self.generate()
        self.load()

    def generate(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """The part of set-up that runs toolkit code (traced runs trace it)."""

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def reset(self) -> None:
        """Put the inputs back to their state right after setup."""

    def finish(self) -> int:
        """End-of-run checks outside the timed region; returns failures."""
        return 0

    def items(self, op: Op) -> int:
        return 1

    def named(self, lat: dict[str, list[float]], scale: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end metrics, by name, with units.
        *lat* is already scaled to the nominal host, by the factors in
        *scale* (one per operation, by kind)."""
        return {}

    def input_dir(self) -> str:
        """Where inputs go.  Set-up rewrites the same names each time:
        creating a file costs far more, and varies far more, than
        rewriting one on some file systems."""
        path = os.path.join(self.work, "inputs")
        os.makedirs(path, exist_ok=True)
        return path


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1 or q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(values: list[float], q: int = 50) -> float:
    return percentile(values, q) * 1e3


class CorpusScan(Workload):
    name = "corpus-scan"
    cli = True
    trace_max_ops = 8
    size = 2500

    def generate(self) -> None:
        self.dir = self.input_dir()
        self.records = gen.corpus(self.seed, self.size)
        for i, rec in enumerate(self.records):
            _write(os.path.join(self.dir, f"{i:05d}.ums"), gen.serialize(rec))
        self._tag_sets = None

    def _related(self, target: int) -> str:
        if self._tag_sets is None:
            self._tag_sets = [set(rec.tags) for rec in self.records]
        return oracle.related_stdout(oracle.related_ranking(self.records, target, self._tag_sets))

    def ops(self) -> Iterator[Op]:
        rng = gen.rng_for("corpus-scan-ops", self.seed)
        groups = {c: _expect_stdout(lambda c=c: oracle.group_stdout(self.records, c)) for c in oracle.CRITERIA}
        n_group = 0
        for i in range(10**9):
            if i % 4 == 3:
                target = rng.randrange(len(self.records))
                yield Op(
                    "related",
                    _expect_stdout(lambda t=target: self._related(t)),
                    argv=["related", self.dir, "--", self.records[target].name],
                )
            else:
                criterion = oracle.CRITERIA[n_group % len(oracle.CRITERIA)]
                n_group += 1
                yield Op("group", groups[criterion], argv=["group", self.dir, "--by", criterion])

    def items(self, op: Op) -> int:
        return self.size

    def named(self, lat, scale):
        busy = sum(sum(v) for v in lat.values())
        ops = sum(len(v) for v in lat.values())
        return {
            "scan_sidecars_per_s": (ops * self.size / busy, "1/s"),
            "group_p50_ms": (_ms(lat["group"]), "ms"),
            "related_cmd_p50_ms": (_ms(lat.get("related") or [0.0]), "ms"),
        }


class HistoryAppend(Workload):
    name = "history-append"
    cli = True
    trace_max_ops = 64
    sidecars = 8
    events = 1000

    def generate(self) -> None:
        self.dir = self.input_dir()
        rng = gen.rng_for(self.name, self.seed)
        self.initial: list[tuple[str, bytes]] = []
        last = None
        for i in range(self.sidecars):
            rec, when = gen.history_record(rng, f"{gen.text(rng)}#{i}", self.events)
            last = when if last is None else max(last, when)
            self.initial.append((os.path.join(self.dir, f"h{i}.ums"), gen.serialize(rec)))
        start = gen.base_record(rng, "start")
        start.history = [(0, start.date, "create", "", gen.GENESIS_PREV)]
        self.start_path = os.path.join(self.dir, "start.ums")
        self.start_stdout = f"0\t{start.date}\tcreate\t\n"
        self.initial.append((self.start_path, gen.serialize(start)))
        self.first_stamp = last
        self.reset()

    def reset(self) -> None:
        for path, data in self.initial:
            _write(path, data)
        self.appended: list[list[tuple[str, str, str]]] = [[] for _ in range(self.sidecars)]

    def ops(self) -> Iterator[Op]:
        from datetime import timedelta

        rng = gen.rng_for("history-append-ops", self.seed)
        when = self.first_stamp
        step = 0
        for i in range(10**9):
            if i % 8 == 7:
                yield Op("start", _expect_stdout(self.start_stdout), argv=["history", self.start_path])
                continue
            target, phase = (step // 4) % self.sidecars, step % 4
            step += 1
            path = self.initial[target][0]
            log = self.appended[target]
            if phase == 3:
                yield Op(
                    "verify",
                    _expect_stdout(f"ok {self.events + len(log)}\n"),
                    argv=["history", path, "--verify"],
                )
                continue
            kind = rng.choice(gen.EVENT_KINDS)
            payload = gen.event_payload(rng, kind)
            when += timedelta(seconds=rng.randint(1, 600))
            stamp = gen.instant(when)
            seq = self.events + len(log)
            log.append((kind, payload, stamp))
            yield Op(
                "annotate",
                _expect_stdout(f"{kind} recorded as event {seq}\n"),
                argv=["annotate", path, "--event", kind, f"--payload={payload}", "--timestamp", stamp],
            )

    def finish(self) -> int:
        """Each history sidecar must equal an in-memory replay, byte for byte."""
        from ums import provenance, sidecar

        failures = 0
        for (path, data), log in zip(self.initial, self.appended):
            record = sidecar.parse_record(data)
            for kind, payload, stamp in log:
                record = provenance.apply_event(record, kind, payload, stamp)
            with open(path, "rb") as handle:
                failures += handle.read() != sidecar.canonical_serialize(record)
        return failures

    def named(self, lat, scale):
        return {
            "annotate_p50_ms": (_ms(lat["annotate"]), "ms"),
            "annotate_p90_ms": (_ms(lat["annotate"], 90), "ms"),
            "verify_cmd_p50_ms": (_ms(lat.get("verify") or [0.0]), "ms"),
            "cli_start_ms": (_ms(lat.get("start") or [0.0]), "ms"),
        }


class CarrierIngest(Workload):
    name = "carrier-ingest"
    documents = 400
    memory_ops = 400  # every document once

    def generate(self) -> None:
        self.carriers = gen.carriers(self.seed, self.documents)
        self.serialized: dict[int, bytes] = {}

    def _ingest(self, carrier: gen.Carrier):
        from ums import extractors, lint, model, sidecar

        extract = extractors.extract_pdf_info if carrier.kind == "pdf" else extractors.extract_html_meta
        raw = extract(carrier.data)
        record, _unmapped = extractors.map_raw_to_ums(raw)
        lint.lint_raw(raw)
        blob = sidecar.canonical_serialize(record) if model.is_complete(record) else None
        return raw, record, blob

    def _check(self, index: int):
        carrier = self.carriers[index]

        def check(result) -> bool:
            raw, record, blob = result
            pmids = [b.id for b in record.identifiers if b.system == "PMID"]
            facts = (
                record.name or None,
                record.creators[0] if record.creators else None,
                record.date,
                pmids[0] if pmids else None,
                bool(raw.errors),
            )
            if facts != (carrier.title, carrier.author, carrier.date, carrier.pmid, carrier.partial):
                return False
            if (blob is None) != (carrier.kind == "html" or carrier.partial):
                return False
            if blob is not None and index not in self.serialized:
                from ums import sidecar

                if sidecar.parse_record(blob) != record:
                    return False
                self.serialized[index] = blob
            return blob is None or blob == self.serialized[index]

        return check

    def ops(self) -> Iterator[Op]:
        rng = gen.rng_for("carrier-ingest-ops", self.seed)
        order = list(range(len(self.carriers)))
        while True:
            rng.shuffle(order)
            for index in order:
                carrier = self.carriers[index]
                yield Op(carrier.kind, self._check(index), call=lambda c=carrier: self._ingest(c))

    def named(self, lat, scale):
        docs = lat.get("pdf", []) + lat.get("html", [])
        return {
            "ingest_docs_per_s": (len(docs) / sum(docs), "1/s"),
            "ingest_doc_p99_ms": (_ms(docs, 99), "ms"),
        }


class CatalogQuery(Workload):
    name = "catalog-query"
    records = 20000
    authors = 10000
    organizations = 2000

    def generate(self) -> None:
        self.dir = directory = self.input_dir()
        mb = gen.catalogs(gen.rng_for("catalog-query-metabase", self.seed), self.authors, self.organizations)
        _write(os.path.join(directory, "authors.catalog"), gen.catalog_bytes("authors", mb.authors))
        _write(os.path.join(directory, "organizations.catalog"), gen.catalog_bytes("organizations", mb.organizations))
        self.catalogued = mb.names
        # history plays no part in related or validate: no events
        self.specs = gen.corpus(self.seed, self.records, self.name, gen.creator_picker(mb), max_events=0)
        self._tag_sets = None

    def load(self) -> None:
        """The toolkit's records, made from the generator's specs, then
        the metabase and the index."""
        from ums import association, metabase
        from ums.model import IdentifierBinding, Subject, UmsRecord

        models = [
            UmsRecord(
                name=r.name,
                synonyms=tuple(r.synonyms),
                formats=tuple(r.formats),
                date=r.date,
                doc_type=r.doc_type,
                summary=r.summary,
                languages=tuple(r.languages),
                locations=tuple(r.locations),
                creators=tuple(r.creators),
                identifiers=tuple(IdentifierBinding(s, i) for s, i in r.identifiers),
                access=r.access,
                subjects=tuple(Subject(t, s) for t, s in r.subjects),
                tags=tuple(r.tags),
            )
            for r in self.specs
        ]
        self.metabase = metabase.load_metabase(self.dir)
        self.index = association.build_index(models)

    def _lookup(self, record):
        """One record looked up: related records, then strict validation.
        The two calls are timed apart for the named metrics."""
        from ums import association, validation

        start = time.perf_counter()
        ranking = association.related(self.index, record)
        middle = time.perf_counter()
        report = validation.validate_record(record, self.metabase, "strict")
        self.split["related"].append(middle - start)
        self.split["validate"].append(time.perf_counter() - middle)
        return ranking, report

    def _check(self, target: int):
        def check(result) -> bool:
            ranking, report = result
            if self._tag_sets is None:
                self._tag_sets = [set(r.tags) for r in self.specs]
            expected = oracle.violations(self.specs[target], self.catalogued)
            return (
                ranking == oracle.related_ranking(self.specs, target, self._tag_sets)
                and [str(v) for v in report.violations] == expected
            )

        return check

    def ops(self) -> Iterator[Op]:
        rng = gen.rng_for("catalog-query-ops", self.seed)
        self.split = {"related": [], "validate": []}
        while True:
            target = rng.randrange(len(self.specs))
            record = self.index.records[target]
            yield Op("lookup", self._check(target), call=lambda r=record: self._lookup(r))

    def named(self, lat, scale):
        related = [x * f for x, f in zip(self.split["related"], scale["lookup"])]
        validate = [x * f for x, f in zip(self.split["validate"], scale["lookup"])]
        return {
            "related_p50_ms": (_ms(related), "ms"),
            "related_p90_ms": (_ms(related, 90), "ms"),
            "validate_p50_ms": (_ms(validate), "ms"),
            "validate_p90_ms": (_ms(validate, 90), "ms"),
        }


WORKLOADS = {w.name: w for w in (CorpusScan, HistoryAppend, CarrierIngest, CatalogQuery)}
