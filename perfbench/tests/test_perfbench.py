"""Tests of the benchmark itself: determinism, checks, a tiny smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import run
import spans
import workloads
from conftest import BENCH

ROOT = os.path.dirname(BENCH)


class TinyCorpus(workloads.CorpusScan):
    size = 40


class TinyHistory(workloads.HistoryAppend):
    sidecars, events = 2, 30


class TinyIngest(workloads.CarrierIngest):
    documents = 30


class TinyCatalog(workloads.CatalogQuery):
    records, authors, organizations = 200, 100, 20


TINY = (TinyCorpus, TinyHistory, TinyIngest, TinyCatalog)


def _inputs(seed: int) -> list[bytes]:
    out = [gen.serialize(r) for r in gen.corpus(seed, 30)]
    out.append(gen.serialize(gen.history_record(gen.rng_for("h", seed), "h", 50)[0]))
    out += [c.data for c in gen.carriers(seed, 30)]
    mb = gen.catalogs(gen.rng_for("m", seed), 50, 10)
    out.append(gen.catalog_bytes("authors", mb.authors))
    return out


def test_same_seed_same_bytes():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_generated_sidecars_are_canonical_and_verify():
    from ums.provenance import verify_history
    from ums.sidecar import canonical_serialize, parse_record

    for rec in gen.corpus(3, 50) + [gen.history_record(gen.rng_for("h", 3), "h", 200)[0]]:
        data = gen.serialize(rec)
        parsed = parse_record(data)
        assert canonical_serialize(parsed) == data
        assert verify_history(parsed).chain_length == len(rec.history)
        assert verify_history(parsed).ok


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, as the benchmark uses."""
    path = os.path.join(ROOT, ".bench_work", f"test-{os.getpid()}-{request.node.name}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # still in use


def _first(workload, kind):
    return next(op for op in workload.ops() if op.kind == kind)


def test_checker_rejects_corrupted_cli_output(work):
    w = TinyCorpus(1, work)
    w.setup()
    for kind in ("group", "related"):
        op = _first(w, kind)
        code, out = run._in_process(op.argv)
        assert op.check((code, out))
        assert not op.check((code, out.replace("\n", "\n ", 1)))
        assert not op.check((2, out))


def test_checker_rejects_tampered_history(work):
    w = TinyHistory(1, work)
    w.setup()
    ops = w.ops()
    annotate = next(ops)
    assert annotate.check(run._in_process(annotate.argv))
    assert w.finish() == 0
    path = w.initial[0][0]
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data.replace(b"history: 1|", b"history: 1|1", 1))
    assert w.finish() == 1


def test_checker_rejects_wrong_library_results(work):
    from dataclasses import replace

    from ums.validation import Violation

    ingest = TinyIngest(1, work)
    ingest.setup()
    op = next(ingest.ops())
    raw, record, blob = op.call()
    assert op.check((raw, record, blob))
    assert not op.check((raw, replace(record, creators=("someone else",)), blob))

    catalog = TinyCatalog(1, work)
    catalog.setup()
    lookup = next(catalog.ops())
    ranking, report = lookup.call()
    assert lookup.check((ranking, report))
    assert not lookup.check((ranking + [("x", 0.5)], report))
    extra = Violation("CreatorNotInCatalog", "creator not in author/organization catalogs: x")
    assert not lookup.check((ranking, replace(report, violations=report.violations + (extra,))))


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_tiny_smoke_run(cls, work):
    attempted, failed, metrics, named, _ = run.untraced(cls, 1, 0.3, work)
    assert attempted >= 1 and failed == 0
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert named["op_fail_ratio"][0] == 0


def test_timings_are_scaled_to_the_nominal_host(work, monkeypatch):
    monkeypatch.setattr(run.HostSpeed, "_loop", lambda self: 2 * run.LOOP_NOMINAL_S)
    _, _, metrics, named, _ = run.untraced(TinyIngest, 1, 0.3, work)
    assert named["host_slowdown"][0] == 2
    assert named["wall_op_p90_ms"][0] == pytest.approx(2 * metrics["op_p90_ms"][0])
    assert named["wall_items_per_s"][0] == pytest.approx(metrics["items_per_s"][0] / 2)
    assert named["wall_setup_s"][0] == pytest.approx(2 * metrics["setup_s"][0])


def test_memory_pass_counts_only_the_toolkit(work):
    catalog = TinyCatalog(1, work)
    catalog.generate()
    alone = run._toolkit_peak_mb(catalog)
    ballast = bytearray(8 * 2**20)  # the benchmark's own data, made before
    assert 0 < run._toolkit_peak_mb(catalog) < alone + 1
    del ballast


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_tiny_traced_run(cls, work, monkeypatch):
    monkeypatch.setattr(run, "STARTUP_PAIRS", 1)
    attempted, failed, metrics, _, _ = run.traced(cls, 1, 0.3, work)
    assert attempted >= 2 and failed == 0
    assert list(metrics) == [m["name"] for m in _benchmark()["per_layer"]]


def test_tracer_restores_every_name():
    import ums.cli
    import ums.model

    before = (ums.cli.parse_record, ums.model.UmsRecord.__post_init__)
    tracer = spans.Tracer()
    tracer.install()
    assert ums.cli.parse_record is not before[0]
    tracer.uninstall()
    assert (ums.cli.parse_record, ums.model.UmsRecord.__post_init__) == before


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_fails_without_the_toolkit(work):
    """In a directory with only BENCHMARK.json and perfbench/, it exits
    non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
    shutil.copytree(BENCH, os.path.join(work, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "carrier-ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
