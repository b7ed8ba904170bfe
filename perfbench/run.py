"""Benchmark of the ums toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from the root of a checkout; the toolkit is imported from ``src/``.
Untraced runs (``--trace 0``) time the closed loop and report the
end-to-end metrics of BENCHMARK.json, with every timing scaled to a
nominal host speed (see ``HostSpeed``); traced runs (``--trace 1``)
report the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, percentile  # noqa: E402

# set-up repeats: at least 5, then more until 2 s were spent, so that
# quick set-ups report the median of many
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 5, 20, 2.0
COMMAND_TIMEOUT_S = 120
TRACE_SHARE = 0.4  # of --seconds, for the untraced half of a traced run
TRACE_MIN_OPS = 4
STARTUP_PAIRS = 7
# reference kernels of the host's speed (HostSpeed): for library
# workloads an interpreter-bound loop over a small table; for CLI
# workloads a bare interpreter start.  (kernel time on the nominal host,
# measured work between two passes)
LOOP_ITERATIONS, LOOP_NOMINAL_S, LOOP_EVERY_S = 30000, 0.005, 0.1
SPAWN_NOMINAL_S, SPAWN_EVERY_S = 0.05, 0.5
REF_WINDOW = 4
_LOOP_TABLE = {str(i): i for i in range(256)}


class HostSpeed:
    """The speed of the host, sampled beside the measured work.

    The shared host's speed wanders by tens of percent within minutes.
    So a run times a fixed reference kernel, outside the timed regions,
    at regular intervals of measured work, and divides each measured
    duration by the host's slowdown around it: the median of the
    REF_WINDOW passes nearest to it, over the kernel's nominal time.  The
    figures are then what the nominal host would have measured.

    The kernels call no toolkit code, and their working sets are small
    enough that what the program leaves in the caches does not change
    their time.  No one kernel followed every workload: library loops
    slowed down as the interpreter loop does; CLI commands slowed down
    much less, and as a bare interpreter start, spawned the same way,
    does."""

    def __init__(self, cli: bool):
        if cli:
            self.measure, self.nominal, self.every = self._spawn, SPAWN_NOMINAL_S, SPAWN_EVERY_S
            self.env = _env()
        else:
            self.measure, self.nominal, self.every = self._loop, LOOP_NOMINAL_S, LOOP_EVERY_S
        self.passes: list[float] = []
        self.owed = 0.0
        self.marks: list[tuple[float, int]] = []  # (duration, passes before it)

    def _loop(self) -> float:
        """One pass of the loop.  It allocates no object the cycle
        collector tracks, so the program's heap cannot slow it down."""
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            key = str(i & 255)
            total += _LOOP_TABLE[key] ^ len(key)
        return time.perf_counter() - start

    def _spawn(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"],
            cwd=ROOT, env=self.env, capture_output=True, check=True, timeout=COMMAND_TIMEOUT_S,
        )
        return time.perf_counter() - start

    def after(self, seconds: float) -> int:
        """Records *seconds* of measured work; returns its index."""
        self.marks.append((seconds, len(self.passes)))
        self.owed += seconds
        while self.owed >= self.every:
            self.owed -= self.every
            self.passes.append(self.measure())
        return len(self.marks) - 1

    def scaled(self) -> list[float]:
        """Every recorded duration, scaled to the nominal host."""
        self.passes += [self.measure() for _ in range(REF_WINDOW)]
        out = []
        for seconds, before in self.marks:
            lo = max(0, before - REF_WINDOW // 2)
            out.append(seconds * self.nominal / statistics.median(self.passes[lo:lo + REF_WINDOW]))
        return out

    def slowdown(self) -> float:
        """The run's median slowdown, for the readable lines."""
        return statistics.median(self.passes) / self.nominal


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


# ``python -m ums.cli``, plus a report of the command's own peak resident
# set on stderr as it exits.  The parent's rusage of its children would
# count the benchmark's memory: a spawned child holds it until exec.
PEAK_TAG = "perfbench-peak-kb"
_COMMAND = f"""import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_TAG} " + kb + "\\n")
atexit.register(_peak)
runpy.run_module("ums.cli", run_name="__main__", alter_sys=True)
"""


class Commands:
    """Runs ``ums`` commands, each in a new interpreter as a user types
    them, and keeps the largest peak resident set among them."""

    def __init__(self):
        self.env = _env()
        self.peak_kb = 0

    def run(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-c", _COMMAND, *argv],
            cwd=ROOT, env=self.env, capture_output=True, timeout=COMMAND_TIMEOUT_S,
        )
        tail = proc.stderr.decode("utf-8", "replace").rsplit(PEAK_TAG, 1)
        if len(tail) == 2:
            self.peak_kb = max(self.peak_kb, int(tail[1]))
        return proc.returncode, proc.stdout.decode("utf-8", "replace")


def _in_process(argv: list[str]) -> tuple[int, str]:
    import ums.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = ums.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Loop:
    """Closed loop with one client; collects latencies and failures."""

    def __init__(self, workload, execute, host: HostSpeed | None = None):
        self.w = workload
        self.execute = execute
        self.host = host
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.marks: dict[str, list[int]] = defaultdict(list)  # into host
        self.attempted = self.failed = self.items = 0
        self.busy = 0.0

    def step(self, op) -> None:
        start = time.perf_counter()
        try:
            result, error = self.execute(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        if self.host is not None:
            self.marks[op.kind].append(self.host.after(elapsed))
        self.attempted += 1
        self.items += self.w.items(op)
        self.latency[op.kind].append(elapsed)
        try:
            ok = error is None and op.check(result)
        except Exception as exc:
            ok, error = False, exc
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                detail = op.argv if op.argv is not None else op.kind
                print(f"operation failed: {str(detail)[:200]} {error or ''}", file=sys.stderr)

    def run_for(self, ops, seconds: float, min_ops: int = 1, max_ops: int = 10**9) -> None:
        while self.attempted < max_ops and (self.busy < seconds or self.attempted < min_ops):
            self.step(next(ops))

    def run_count(self, ops, count: int) -> None:
        for _ in range(count):
            self.step(next(ops))


def _executor(workload, commands: Commands | None = None, tracer=None):
    """How an operation runs: a library call; a ``ums`` command through
    *commands*; or, without them, ``ums.cli.main`` in process."""
    if not workload.cli:
        run = lambda op: op.call()  # noqa: E731
    elif commands is not None:
        run = lambda op: commands.run(op.argv)  # noqa: E731
    else:
        run = lambda op: _in_process(op.argv)  # noqa: E731
    if tracer is None:
        return run
    counter = iter(range(10**9))
    return lambda op: tracer.run_op(next(counter), op.kind, lambda: run(op))


def _toolkit_peak_mb(workload) -> float:
    """Peak Python memory the toolkit allocates, after the timed loop,
    while it loads the generated inputs and runs the workload's
    ``memory_ops`` operations, keeping every result as a batch importer
    would.  What the benchmark built before (inputs, expectations) is
    not counted."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.load()
        results = [op.call() for op in itertools.islice(workload.ops(), workload.memory_ops)]
        peak = tracemalloc.get_traced_memory()[1]
        del results
        return peak / 2**20
    finally:
        tracemalloc.stop()


def untraced(cls, seed: int, seconds: float, work: str):
    """Set up several times (the median is setup_s), time the loop, then
    measure memory.  Timings are scaled to the nominal host."""
    host = HostSpeed(cls.cli)
    setups: list[int] = []
    workload = None
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(host.marks[i][0] for i in setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        workload = None  # the previous set-up's memory is freed first
        gc.collect()
        workload = cls(seed, work)
        start = time.perf_counter()
        workload.setup()
        setups.append(host.after(time.perf_counter() - start))
    if workload.cli:
        Commands().run(["--help"])  # compiles the bytecode before timing
    commands = Commands()
    loop = Loop(workload, _executor(workload, commands), host)
    loop.run_for(workload.ops(), seconds)
    failed = loop.failed + workload.finish()
    scaled = host.scaled()
    lat = {kind: [scaled[i] for i in marks] for kind, marks in loop.marks.items()}
    factor = {kind: [x / raw for x, raw in zip(lat[kind], loop.latency[kind])] for kind in lat}
    named = workload.named(lat, factor)
    if workload.cli:  # the largest command's resident set
        peak_mb = commands.peak_kb / 1024
    else:
        peak_mb = _toolkit_peak_mb(workload)
    pooled = [x for values in lat.values() for x in values]
    wall = [x for values in loop.latency.values() for x in values]
    metrics = {
        "op_p90_ms": (percentile(pooled, 90) * 1e3, "ms"),
        "items_per_s": (loop.items / sum(pooled), "1/s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(scaled[i] for i in setups), "s"),
    }
    named["op_p50_ms"] = (percentile(pooled, 50) * 1e3, "ms")
    named["op_fail_ratio"] = (failed / loop.attempted, "ratio")
    named["host_slowdown"] = (host.slowdown(), "ratio")
    named["wall_op_p90_ms"] = (percentile(wall, 90) * 1e3, "ms")
    named["wall_items_per_s"] = (loop.items / loop.busy, "1/s")
    named["wall_setup_s"] = (statistics.median(host.marks[i][0] for i in setups), "s")
    counts = {kind: len(v) for kind, v in sorted(loop.latency.items())}
    return loop.attempted, failed, metrics, named, counts


def _import_ms() -> float:
    """Fresh ``import ums.cli`` minus a bare interpreter, median of pairs."""
    env = _env()
    bare, full = [], []
    for _ in range(STARTUP_PAIRS):
        for code, sink in (("pass", bare), ("import ums.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=COMMAND_TIMEOUT_S)
            sink.append(time.perf_counter() - start)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def traced(cls, seed: int, seconds: float, work: str):
    """The same operations in process: untraced, traced, untraced again.
    The overhead compares the traced pass with the mean of the two
    untraced ones, which cancels a steady drift of the machine's speed."""
    import spans

    tracer = spans.Tracer()
    workload = cls(seed, work)
    workload.generate()
    tracer.install()
    try:
        workload.load()
    finally:
        tracer.uninstall()
    plain = Loop(workload, _executor(workload))
    plain.run_for(workload.ops(), seconds * TRACE_SHARE, TRACE_MIN_OPS, workload.trace_max_ops)
    failed = plain.failed + workload.finish()
    workload.reset()
    loop = Loop(workload, _executor(workload, tracer=tracer))
    tracer.install()
    try:
        loop.run_count(workload.ops(), plain.attempted)
    finally:
        tracer.uninstall()
    failed += loop.failed + workload.finish()
    workload.reset()
    again = Loop(workload, _executor(workload))
    again.run_count(workload.ops(), plain.attempted)
    failed += again.failed + workload.finish()
    untraced_ns = int((plain.busy + again.busy) / 2 * 1e9)
    metrics = spans.layer_metrics(spans.Profile(tracer), _import_ms(), untraced_ns)
    counts = {kind: len(v) for kind, v in sorted(loop.latency.items())}
    return plain.attempted + loop.attempted + again.attempted, failed, metrics, {}, counts


def run_one(name: str, seed: int, seconds: float, trace_on: bool) -> int:
    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        run = traced if trace_on else untraced
        attempted, failed, metrics, named, counts = run(WORKLOADS[name], seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(f"workload {name} seed {seed} trace {int(trace_on)} operations {counts}")
    for key, (value, unit) in {**named, **metrics}.items():
        print(f"  {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace_on: bool) -> int:
    """Every workload in its own process; prints each one's lines."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace_on))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
        print(f"  correct {result['correct']}")
        status = status or proc.returncode or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ums", "cli.py")):
        print(f"perfbench: toolkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
