"""Span tracer for traced runs, installed from the benchmark's own files.

``Tracer.install`` replaces, for one traced phase, each name a calling
module bound at import (``ums.cli.parse_record``,
``ums.sidecar.split_fields``, ``ums.timestamps.is_canonical``,
``UmsRecord.__post_init__`` ...) with a wrapper that records a span:
name, start, end, parent span and operation.  Spans stay in memory, in
flat arrays, until the run ends; ``uninstall`` puts the originals back.
No file of the toolkit changes.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

#: the layers, named after the modules under src/ums/
LAYERS = (
    "cli", "sidecar", "escaping", "timestamps", "model", "provenance",
    "association", "metabase", "validation", "identifiers",
    "extractors.pdf", "extractors.html", "extractors.mapping", "lint",
)
ROOT = "op"  # the benchmark's span around one operation


def _layer(span_name: str) -> str:
    return span_name.rpartition(".")[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_op = -1  # -1 marks set-up work
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, kind: str, fn):
        """Run *fn* as operation *op_id* under a root span."""
        self.current_op = op_id
        index = self._open(self._intern(f"{ROOT}.{kind}"))
        try:
            return fn()
        finally:
            self._close(index)
            self.current_op = -1

    def wrap(self, owner, attr: str, span: str, note=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.  *note*,
        if given, maps (args, result) to a number kept under *span*."""
        original = getattr(owner, attr)
        name_id = self._intern(span)
        notes = self.notes[span]
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if note is not None:
                notes.append(note(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        import ums.association
        import ums.cli
        import ums.escaping
        import ums.extractors
        import ums.lint
        import ums.metabase
        import ums.model
        import ums.provenance
        import ums.sidecar
        import ums.timestamps
        import ums.validation

        w = self.wrap
        cli, sidecar, escaping = ums.cli, ums.sidecar, ums.escaping
        w(cli, "main", "cli.main")
        w(cli, "_read", "cli.read")
        w(cli, "_write_atomic", "cli.write", lambda a, r: len(a[1]))
        w(cli, "parse_record", "sidecar.parse", lambda a, r: len(a[0]))
        w(cli, "canonical_serialize", "sidecar.serialize")
        w(sidecar, "canonical_serialize", "sidecar.serialize")
        w(sidecar, "_parse_history_value", "sidecar.parse_history_line")
        w(ums.provenance, "serialize_event", "sidecar.serialize_event")
        # ums.model's bindings stay unwrapped: catalog names escape on
        # every resolve scan, and one span per entry would swamp memory
        for owner in (escaping, sidecar):
            for fn in ("split_fields", "unescape", "escape", "join_fields", "decode_fields"):
                w(owner, fn, f"escaping.{fn}")
        for fn in ("is_canonical", "ensure_canonical", "normalize", "as_datetime"):
            w(ums.timestamps, fn, f"timestamps.{fn}")
        model = ums.model
        w(model.UmsRecord, "__post_init__", "model.record_init")
        w(model.ProvenanceEvent, "__post_init__", "model.event_init")
        w(model.IdentifierBinding, "__post_init__", "model.identifier_init")
        w(model.Subject, "__post_init__", "model.subject_init")
        w(model.SystematicName, "__post_init__", "model.systematic_name_init")
        w(ums.metabase, "parse_systematic_name", "model.parse_systematic_name")
        w(cli, "verify_history", "provenance.verify", lambda a, r: r.chain_length)
        w(cli, "apply_event", "provenance.apply_event")
        w(ums.provenance, "event_digest", "provenance.event_digest")
        hits = lambda a, r: len(r)  # noqa: E731
        size = lambda a, r: len(r.records)  # noqa: E731
        for owner in (cli, ums.association):
            w(owner, "group_by", "association.group_by")
            w(owner, "build_index", "association.build_index", size)
            w(owner, "related", "association.related", hits)
        exact = lambda a, r: r.kind == "exact"  # noqa: E731
        w(ums.validation, "resolve", "metabase.resolve", exact)
        w(ums.lint, "resolve", "metabase.resolve", exact)
        entries = lambda a, r: sum(len(c) for c in r.catalogs)  # noqa: E731
        w(ums.metabase, "load_metabase", "metabase.load", entries)
        w(ums.metabase, "load_catalog", "metabase.load_catalog")
        w(ums.metabase.Metabase, "get", "metabase.get")
        w(ums.metabase.Metabase, "is_registered_system", "metabase.is_registered_system")
        w(ums.validation, "validate_record", "validation.validate", lambda a, r: len(r.violations))
        w(ums.lint, "validate_identifier", "identifiers.validate_identifier")
        pdf_note = lambda a, r: (len(a[0]), bool(r.errors))  # noqa: E731
        w(ums.extractors, "extract_pdf_info", "extractors.pdf.extract", pdf_note)
        w(ums.extractors, "extract_html_meta", "extractors.html.extract")
        w(ums.extractors, "map_raw_to_ums", "extractors.mapping.map", lambda a, r: len(r[1]))
        w(ums.lint, "lint_raw", "lint.lint_raw", hits)


class Profile:
    """Aggregates over the spans of one traced phase."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer.name)
        names = tracer.names
        child = [0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += tracer.end[i] - tracer.start[i]
        # count, total (children included) and self time, in ns, of the
        # spans inside operations; all_* also count set-up spans
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, int] = defaultdict(int)
        self.all_count: dict[str, int] = defaultdict(int)
        self.all_total: dict[str, int] = defaultdict(int)
        self.op_ns = self.ops = self.op_spans = 0
        for i in range(n):
            name = names[tracer.name[i]]
            duration = tracer.end[i] - tracer.start[i]
            self.all_count[name] += 1
            self.all_total[name] += duration
            if tracer.op[i] < 0:
                continue
            own = duration - child[i]
            self.count[name] += 1
            self.total[name] += duration
            self.self_ns[name] += own
            self.layer_self[_layer(name)] += own
            self.op_spans += 1
            if tracer.parent[i] < 0:
                self.op_ns += duration
                self.ops += 1

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called *name* that run inside a span called *ancestor*."""
        t, ids = self.t, self.t._ids
        if name not in ids or ancestor not in ids:
            return 0
        want, stop = ids[name], ids[ancestor]
        hits = 0
        for i in range(len(t.name)):
            if t.name[i] != want or t.op[i] < 0:
                continue
            p = t.parent[i]
            while p >= 0 and t.name[p] != stop:
                p = t.parent[p]
            hits += p >= 0
        return hits


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(p: Profile, import_ms: float, untraced_ns: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json, from one traced phase.

    A metric of a layer the workload never calls reads 0.
    """
    c, tot, own, notes = p.count, p.total, p.self_ns, p.t.notes
    all_c, all_tot = p.all_count, p.all_total
    ops = p.ops
    us, ms = 1e-3, 1e-6
    parsed = c["sidecar.parse"]
    pdf = notes["extractors.pdf.extract"]
    m = {
        "startup.import_ms": (import_ms, "ms"),
        "cli.main_self_ms": (_div(own["cli.main"], c["cli.main"]) * ms, "ms"),
        "cli.read_ms_per_op": (_div(tot["cli.read"], ops) * ms, "ms"),
        "cli.write_ms_per_op": (_div(tot["cli.write"], ops) * ms, "ms"),
        "cli.bytes_written_per_op": (_div(sum(notes["cli.write"]), ops), "B"),
        "sidecar.parse_calls": (_div(parsed, ops), "count"),
        "sidecar.parse_self_us_per_record": (
            _div(own["sidecar.parse"] + own["sidecar.parse_history_line"], parsed) * us, "us"),
        "sidecar.parse_us_per_kb": (_div(tot["sidecar.parse"] * us, sum(notes["sidecar.parse"]) / 1024), "us/KB"),
        "sidecar.parse_share": (_div(tot["sidecar.parse"], p.op_ns), "ratio"),
        "sidecar.serialize_us_per_record": (_div(tot["sidecar.serialize"], c["sidecar.serialize"]) * us, "us"),
        "escaping.split_fields_calls_per_record": (_div(c["escaping.split_fields"], parsed), "count"),
        "escaping.self_us_per_record": (_div(p.layer_self["escaping"], parsed) * us, "us"),
        "timestamps.is_canonical_calls_per_history_line": (
            _div(p.calls_under("timestamps.is_canonical", "sidecar.parse_history_line"),
                 c["sidecar.parse_history_line"]), "count"),
        "timestamps.self_us_per_record": (_div(p.layer_self["timestamps"], parsed) * us, "us"),
        "model.record_init_calls": (_div(c["model.record_init"], ops), "count"),
        "model.record_init_self_us": (_div(own["model.record_init"], c["model.record_init"]) * us, "us"),
        "model.event_init_calls": (_div(c["model.event_init"], ops), "count"),
        "model.event_init_self_us": (_div(own["model.event_init"], c["model.event_init"]) * us, "us"),
        "provenance.verify_us_per_event": (_div(tot["provenance.verify"], sum(notes["provenance.verify"])) * us, "us"),
        "provenance.apply_event_us": (_div(tot["provenance.apply_event"], c["provenance.apply_event"]) * us, "us"),
        "provenance.event_digest_calls_per_op": (_div(c["provenance.event_digest"], ops), "count"),
        "association.group_by_ms": (_div(tot["association.group_by"], c["association.group_by"]) * ms, "ms"),
        "association.build_index_ms": (
            _div(all_tot["association.build_index"], all_c["association.build_index"]) * ms, "ms"),
        "association.related_us_per_query": (_div(tot["association.related"], c["association.related"]) * us, "us"),
        "association.related_hits_per_query": (_div(sum(notes["association.related"]), c["association.related"]), "count"),
        "association.corpus_size": (
            _div(sum(notes["association.build_index"]), all_c["association.build_index"]), "count"),
        "metabase.load_ms": (_div(all_tot["metabase.load"], all_c["metabase.load"]) * ms, "ms"),
        "metabase.entries_loaded": (_div(sum(notes["metabase.load"]), all_c["metabase.load"]), "count"),
        "metabase.resolve_calls_per_record": (_div(c["metabase.resolve"], c["validation.validate"]), "count"),
        "metabase.resolve_us": (_div(tot["metabase.resolve"], c["metabase.resolve"]) * us, "us"),
        "metabase.resolve_exact_ratio": (_div(sum(notes["metabase.resolve"]), c["metabase.resolve"]), "ratio"),
        "validation.validate_self_us_per_record": (
            _div(own["validation.validate"], c["validation.validate"]) * us, "us"),
        "validation.violations_per_record": (
            _div(sum(notes["validation.validate"]), c["validation.validate"]), "count"),
        "identifiers.validate_identifier_calls": (_div(c["identifiers.validate_identifier"], ops), "count"),
        "identifiers.self_us": (_div(p.layer_self["identifiers"], ops) * us, "us"),
        "extractors.pdf.extract_us_per_doc": (_div(tot["extractors.pdf.extract"], len(pdf)) * us, "us"),
        "extractors.pdf.extract_us_per_mb": (
            _div(tot["extractors.pdf.extract"] * us, sum(size for size, _ in pdf) / 2**20), "us/MB"),
        "extractors.pdf.partial_ratio": (_div(sum(bad for _, bad in pdf), len(pdf)), "ratio"),
        "extractors.html.extract_us_per_doc": (
            _div(tot["extractors.html.extract"], c["extractors.html.extract"]) * us, "us"),
        "extractors.mapping.map_us_per_doc": (
            _div(tot["extractors.mapping.map"], c["extractors.mapping.map"]) * us, "us"),
        "extractors.mapping.unmapped_pairs_per_doc": (
            _div(sum(notes["extractors.mapping.map"]), c["extractors.mapping.map"]), "count"),
        "lint.lint_raw_us_per_doc": (_div(tot["lint.lint_raw"], c["lint.lint_raw"]) * us, "us"),
        "lint.findings_per_doc": (_div(sum(notes["lint.lint_raw"]), c["lint.lint_raw"]), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (_div(p.layer_self[layer], p.op_ns), "ratio")
    m["trace.unattributed_share"] = (_div(p.layer_self[ROOT], p.op_ns), "ratio")
    m["trace.spans_per_op"] = (_div(p.op_spans, ops), "count")
    m["trace.overhead_ratio"] = (_div(p.op_ns - untraced_ns, untraced_ns), "ratio")
    m["trace.overhead_ms_per_op"] = (_div(p.op_ns - untraced_ns, ops) * ms, "ms")
    return m
