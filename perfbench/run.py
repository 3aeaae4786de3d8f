"""The join sampler's benchmark: one workload per run, or all of them.

Run from the repository root::

    python3 perfbench/run.py --workload chain3-insert --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 18 --trace 0

One run generates the workload's inputs from ``--seed`` and makes a fixed
number of *passes* over them: ``--seconds`` divided by the workload's
nominal pass length, and at least three.  The count never depends on the
measured speed, so two versions of the program are compared over the same
number of passes.  A pass builds the stack (timed as set-up), feeds the
stream chunk by chunk through the sample server, takes one checkpoint round
trip of the final state, and times fresh served reads: at least 100 chunk
calls and 100 reads, so that p90 has ten samples above it.  Every operation
is timed in every pass and keeps its median time over the passes (see
:func:`typical`); p50 and p90 are then taken over the operations.  A pass's
ingest rate counts its chunk calls, the reads between them on
``served-sharded``, and the garbage collections between them; the rate and
the checkpoint round trip are medians over the passes.  Set-up is timed
twenty extra times per pass and reported as the median.

Times are CPU seconds of this process, each scaled to a nominal machine by
a fixed reference workload timed just before and just after it (see
``reference.py``), so that the shared machine's changes of speed cancel
out.  After the passes, the last pass's outputs are checked against a
reference replay of the stream.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times untraced
passes at the full and at half the stream length, then one pass with a span
at every layer boundary (see ``tracing.py``), and prints the per-layer
split.  Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
1 when any operation or check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Chunk calls and reads per pass, so that p90 has ten samples above it.
MIN_CHUNKS = 100
MIN_READS = 100
#: Stream items per chunk of the read probe: workloads without a read after
#: every chunk time ``MIN_READS`` reads on a served replica fed the stream's
#: first ``MIN_READS`` chunks of this size.
PROBE_CHUNK = 4
MIN_PASSES = 3
#: Extra set-ups timed per pass: set-up takes well under a millisecond.
SETUP_REPEATS = 20
STATE_DIR = ROOT / ".bench_build" / "perfbench"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: nothing to measure, {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.harness import percentile  # noqa: E402
from repro.stats.memory import megabytes, sampler_memory_bytes  # noqa: E402

import reference  # noqa: E402
from tracing import LAYER_OF, LAYERS, Tracer, layer_seconds  # noqa: E402
from workloads import (  # noqa: E402
    READ_K,
    WORKLOADS,
    Stack,
    Workload,
    check_read,
    check_stack,
    check_stored_rows,
)

END_TO_END = {
    "ingest_tuples_per_s": "items/s",
    "chunk_p50_ms": "ms",
    "chunk_p90_ms": "ms",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "setup_s": "s",
    "state_mb": "MiB",
    "checkpoint_s": "s",
}

#: Spans whose call count is reported beside their self time.
COUNTED_SPANS = (
    "relational.count_results",
    "index.insert_rows",
    "index.delta_batch",
    "index.delete",
    "index.sample",
    "reservoir.rebase_population",
)


class Clock:
    """Times calls in process CPU seconds, with the garbage collector paused.

    CPU time leaves out the time other tenants' processes hold the cores;
    the workloads run on one thread and wait on nothing but the disk of a
    checkpoint.  A ``paired`` clock runs the reference work just before and
    just after each call and scales the call's time to the nominal machine
    (see ``reference.py``).  Collection stays enabled between timed calls,
    so garbage one call made is collected outside the next call's timing;
    :meth:`on_gc` times those collections.
    """

    def __init__(self, paired: bool = True) -> None:
        self.paired = paired
        self.scales: List[float] = []
        self.gc_s = 0.0
        self._gc_started = 0.0

    def __call__(self, run):
        """``(result, seconds)`` of ``run()``."""
        gc.disable()
        try:
            reference_s = self._reference()
            started = time.process_time()
            result = run()
            seconds = time.process_time() - started
            reference_s += self._reference()
        finally:
            gc.enable()
        if self.paired:
            self.scales.append(2 * reference.NOMINAL_S / reference_s)
            seconds *= self.scales[-1]
        return result, seconds

    def _reference(self) -> float:
        if not self.paired:
            return 0.0
        started = time.process_time()
        reference.reference_work()
        return time.process_time() - started

    def on_gc(self, phase: str, info: dict) -> None:
        """A ``gc.callbacks`` hook adding up collection time in ``gc_s``."""
        if phase == "start":
            self._gc_started = time.process_time()
        else:
            self.gc_s += time.process_time() - self._gc_started

    def scale(self) -> float:
        """The median scale of the calls timed so far (1 when unpaired)."""
        return statistics.median(self.scales) if self.scales else 1.0


def chunked(stream: list, size: int) -> List[list]:
    return [stream[start : start + size] for start in range(0, len(stream), size)]


@dataclass
class PassResult:
    """What one pass measured, plus the live stacks the checks need."""

    stack: Optional[Stack]
    items: int
    setup_s: List[float] = field(default_factory=list)
    chunk_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    #: Per chunk boundary: the chunk call plus the read after it, if any.
    step_s: List[float] = field(default_factory=list)
    #: Collections between the calls of the chunk loop.
    gc_s: float = 0.0
    save_s: float = 0.0
    restore_s: float = 0.0
    checkpoint_bytes: int = 0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    last_read: Optional[list] = None
    read_prefix: Optional[list] = None
    probe: Optional[Stack] = None
    wall_s: float = 0.0
    #: In a traced pass: the chunk loop's wall time (with its interleaved
    #: reads) and the span self times it accumulated.
    ingest_wall_s: float = 0.0
    ingest_self_ns: Dict[str, int] = field(default_factory=dict)
    ingest_calls: Dict[str, int] = field(default_factory=dict)


class Run:
    """One workload at one seed: its inputs and the passes over them."""

    def __init__(self, workload: Workload, seed: int, stream: list) -> None:
        self.workload = workload
        self.seed = seed
        self.stream = stream
        self.chunks = chunked(stream, workload.chunk)
        self.k = workload.k_for(len(stream))

    def too_small(self) -> Optional[str]:
        """Why a pass of this run cannot give a p90, if it cannot."""
        workload = self.workload
        if workload.read_every_chunk:
            reads = len(self.chunks)
        else:
            reads = len(chunked(self._probe_prefix(), PROBE_CHUNK))
        if len(self.chunks) < MIN_CHUNKS or reads < MIN_READS:
            return (
                f"{workload.name}: a pass has {len(self.chunks)} chunk calls and "
                f"{reads} reads; p90 needs at least {MIN_CHUNKS} and {MIN_READS}"
            )
        return None

    def _probe_prefix(self) -> list:
        return self.stream[: MIN_READS * PROBE_CHUNK]

    def half(self) -> "Run":
        """The same run on the first half of the stream."""
        return Run(self.workload, self.seed, self.stream[: len(self.stream) // 2])

    def setup(self) -> Stack:
        return self.workload.setup(self.seed, self.k)

    # ------------------------------------------------------------- one pass
    def run_pass(self, tracer: Optional[Tracer] = None, paired: bool = True) -> PassResult:
        """Set up, ingest, checkpoint and read once.

        A traced pass, and the plain pass its overhead is measured against,
        leave out the reference work (``paired``), which would otherwise
        show in the traced wall time as unattributed.
        """
        span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
        clock = Clock(paired=paired and tracer is None)
        workload = self.workload
        started = time.perf_counter()
        stack, setup_s = clock(self.setup)
        result = PassResult(stack, len(self.stream), setup_s=[setup_s])
        if tracer is not None and workload.sampler == "sharded":
            for shard_ingestor in stack.ingestor.ingestors:
                tracer.roles[id(shard_ingestor)] = "shard.apply"
        server = stack.server
        gc.disable()  # no collection between the span snapshots and the clock
        before = dict(tracer.self_ns) if tracer is not None else {}
        calls_before = dict(tracer.calls) if tracer is not None else {}
        ingest_started = time.perf_counter()
        gc.callbacks.append(clock.on_gc)
        gc.enable()
        for chunk in self.chunks:
            _, seconds = clock(lambda: server.ingest_batch(chunk))
            result.chunk_s.append(seconds)
            if workload.read_every_chunk:
                result.last_read, read_seconds = clock(
                    lambda: server.sample(READ_K, max_staleness=0)
                )
                result.read_s.append(read_seconds)
                seconds += read_seconds
            result.step_s.append(seconds)
        gc.disable()
        result.ingest_wall_s = time.perf_counter() - ingest_started
        gc.callbacks.remove(clock.on_gc)
        result.gc_s = clock.gc_s * clock.scale()
        if tracer is not None:
            result.ingest_self_ns = {
                name: ns - before.get(name, 0) for name, ns in tracer.self_ns.items()
            }
            result.ingest_calls = {
                name: calls - calls_before.get(name, 0) for name, calls in tracer.calls.items()
            }
        gc.enable()
        result.read_prefix = self.stream
        result.attempted += len(result.chunk_s) + len(result.read_s)
        self._checkpoint_round_trip(result, span, clock)
        if not workload.read_every_chunk:
            self._read_probe(result, clock)
        result.wall_s = time.perf_counter() - started
        return result

    def _checkpoint_round_trip(self, result: PassResult, span, clock) -> None:
        """Save and restore the final state; the restored sample must match."""
        ingestor = result.stack.ingestor
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=STATE_DIR) as directory:
            path = os.path.join(directory, "state.ckpt")
            with span("checkpoint.save"):
                _, result.save_s = clock(lambda: ingestor.save(path))
            result.checkpoint_bytes = os.path.getsize(path)
            with span("checkpoint.restore"):
                restored, result.restore_s = clock(lambda: type(ingestor).restore(path))
        result.attempted += 1
        if hasattr(restored, "shard_samples"):
            restored_samples = restored.shard_samples()
        else:
            restored_samples = [list(restored.sampler.sample)]
        if restored_samples != result.stack.shard_samples():
            result.problems.append("the restored checkpoint's sample differs from the live one")

    def _read_probe(self, result: PassResult, clock) -> None:
        """Fresh reads on a served replica of the stack over a stream prefix."""
        prefix = self._probe_prefix()
        probe, setup_s = clock(self.setup)
        result.setup_s.append(setup_s)
        for chunk in chunked(prefix, PROBE_CHUNK):
            probe.server.ingest_batch(chunk)
            result.last_read, seconds = clock(
                lambda: probe.server.sample(READ_K, max_staleness=0)
            )
            result.read_s.append(seconds)
        result.attempted += 2 * len(chunked(prefix, PROBE_CHUNK))
        result.probe = probe
        result.read_prefix = prefix

    # --------------------------------------------------------------- checks
    def check(self, result: PassResult) -> None:
        """Check a pass's final state; each check counts as one attempt."""
        stack = result.stack
        checks = [
            lambda: check_stack(stack, self.stream),
            lambda: check_read(result.last_read, stack.query, result.read_prefix),
        ]
        if self.workload.sampler == "turnstile":
            checks.append(lambda: check_stored_rows(stack, self.stream))
        if self.workload.sampler == "sharded":
            checks.append(lambda: self._check_served_cut(stack))
        for check in checks:
            try:
                result.problems += check()
            except Exception:  # a check that crashes has failed
                result.problems.append(traceback.format_exc())
        result.attempted += len(checks)

    def _check_served_cut(self, stack: Stack) -> List[str]:
        """The final served cut equals a standalone ingestor fed the same prefix."""
        cut = stack.server.snapshot(max_staleness=sys.maxsize)
        standalone = self.setup().ingestor
        for chunk in self.chunks:
            standalone.ingest_batch(chunk)
        if cut.replica.shard_samples() != standalone.shard_samples():
            return ["the final served cut's shard samples differ from a standalone ingestor's"]
        return []


# ---------------------------------------------------------------- measuring
def typical(samples_per_pass) -> List[float]:
    """Each operation's median time over the passes (operation by operation).

    Every pass does identical work and a run's pass count is fixed, so the
    medians of two runs are taken over samples of the same size.
    """
    return [statistics.median(times) for times in zip(*samples_per_pass)]


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes in a run of about ``seconds``, from the nominal pass length."""
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def measure(run: Run, seconds: float):
    """A fixed number of passes, then checks; the end-to-end metrics.

    Per-operation figures are medians over the passes, and so are the rate
    and the checkpoint time of a pass.
    """
    started = time.perf_counter()
    setups: List[float] = []
    passes: List[PassResult] = []
    clock = Clock()
    for _ in range(pass_count(run.workload, seconds)):
        if passes:
            passes[-1].stack = passes[-1].probe = None  # only the last pass is checked
        gc.collect()
        setups += [clock(run.setup)[1] for _ in range(SETUP_REPEATS)]
        passes.append(run.run_pass())
    run.check(passes[-1])
    chunk_s = typical(p.chunk_s for p in passes)
    read_s = typical(p.read_s for p in passes)
    metrics = {
        "ingest_tuples_per_s": statistics.median(
            p.items / (sum(p.step_s) + p.gc_s) for p in passes
        ),
        "chunk_p50_ms": percentile(chunk_s, 0.5) * 1e3,
        "chunk_p90_ms": percentile(chunk_s, 0.9) * 1e3,
        "read_p50_ms": percentile(read_s, 0.5) * 1e3,
        "read_p90_ms": percentile(read_s, 0.9) * 1e3,
        "setup_s": statistics.median(setups + [s for p in passes for s in p.setup_s]),
        "state_mb": megabytes(sampler_memory_bytes(passes[-1].stack.ingestor)),
        "checkpoint_s": statistics.median(p.save_s + p.restore_s for p in passes),
    }
    notes = {
        "passes": len(passes),
        "chunks": len(chunk_s),
        "reads": len(read_s),
        "measured_s": round(time.perf_counter() - started, 1),
    }
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, passes, notes


def measure_traced(run: Run):
    """Untraced passes at two lengths, one traced pass; the per-layer split."""
    warm_up = run.run_pass()
    gc.collect()
    half = run.half().run_pass()
    gc.collect()
    untraced = run.run_pass()
    gc.collect()
    plain = run.run_pass(paired=False)
    gc.collect()
    tracer = Tracer()
    started = time.perf_counter_ns()  # every span lies inside this wall
    with tracer.installed():
        traced = run.run_pass(tracer)
    wall_ns = time.perf_counter_ns() - started
    # Self times add up to the outermost spans' time by construction, so the
    # traced wall is their sum plus ``unattributed.self_s``.  What can fail
    # is a span counted twice or not at all: the top-level ingest span must
    # be entered once per chunk call and the read span once per read.
    sharded = run.workload.sampler == "sharded"
    top_span = "shard.route" if sharded else "ingest.batch"
    expected_calls = {
        f"{top_span} calls in the chunk loop": (
            traced.ingest_calls.get(top_span, 0),
            len(run.chunks),
        ),
        "serve.read calls": (tracer.calls.get("serve.read", 0), len(traced.read_s)),
    }
    for what, (seen, issued) in expected_calls.items():
        if seen != issued:
            traced.problems.append(f"{what}: {seen} spans for {issued} calls issued")
    traced.attempted += len(expected_calls)
    span_total_ns = sum(tracer.self_ns.values())

    stack = traced.stack
    samplers = stack.samplers
    reservoirs = [sampler.reservoir for sampler in samplers]
    examined = sum(r.items_examined for r in reservoirs)
    servers = [stack.server] + ([traced.probe.server] if traced.probe else [])
    serve_stats = [server.statistics() for server in servers]
    busy = list(stack.ingestor.shard_busy_seconds) if sharded else []
    turnstile_stats = samplers[0].statistics() if run.workload.sampler == "turnstile" else {}
    run.check(traced)
    metrics: Dict[str, tuple] = {}
    for name in LAYER_OF:
        metrics[f"{name}.self_s"] = (tracer.self_ns.get(name, 0) / 1e9, "s")
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
    unattributed = (wall_ns - span_total_ns) / 1e9
    metrics.update(
        {
            "index.propagations": (sum(s.propagations for s in samplers), "count"),
            "reservoir.items_examined": (examined, "count"),
            "reservoir.items_total": (sum(r.items_total for r in reservoirs), "count"),
            "reservoir.real_ratio": (
                sum(r.real_stops for r in reservoirs) / examined if examined else 0.0,
                "ratio",
            ),
            # One evict-and-refill pass per run of applied retractions.
            "turnstile.delete_runs": (
                traced.ingest_calls.get("reservoir.rebase_population", 0),
                "count",
            ),
            "turnstile.evictions": (turnstile_stats.get("evictions", 0), "count"),
            "turnstile.refills": (turnstile_stats.get("refills", 0), "count"),
            "turnstile.refill_accept_ratio": (
                turnstile_stats.get("refills", 0) / max(1, tracer.calls.get("index.sample", 0)),
                "ratio",
            ),
            "shard.skew": (max(busy) / (sum(busy) / len(busy)) if sum(busy) else 0.0, "ratio"),
            "shard.load_imbalance": (stack.ingestor.load_imbalance() if sharded else 0.0, "ratio"),
            "checkpoint.bytes": (traced.checkpoint_bytes, "bytes"),
            "serve.snapshots_taken": (sum(s["snapshots_taken"] for s in serve_stats), "count"),
            "serve.cache_hits": (sum(s["snapshot_cache_hits"] for s in serve_stats), "count"),
            "engine.chunks": (stack.ingestor.batches_ingested, "count"),
            "unattributed.self_s": (unattributed, "s"),
            "trace.wall_s": (wall_ns / 1e9, "s"),
            "trace.overhead_ratio": (wall_ns / 1e9 / plain.wall_s, "ratio"),
            "scale.exponent": (
                math.log(sum(untraced.step_s) / sum(half.step_s))
                / math.log(untraced.items / half.items),
                "ratio",
            ),
        }
    )
    # Shares are of the chunk loop only: where ingestion time goes.  The
    # checkpoint layer runs after the loop, so it has no share.
    layers = layer_seconds(traced.ingest_self_ns)
    ingest_wall = traced.ingest_wall_s
    for layer in LAYERS:
        if layer == "ingest.checkpoint":
            continue
        metrics[f"layer.{layer}.share"] = (layers.get(layer, 0.0) / ingest_wall, "ratio")
    metrics["layer.unattributed.share"] = (
        (ingest_wall - sum(layers.values())) / ingest_wall,
        "ratio",
    )
    notes = {
        "dominant_layer": max(LAYERS, key=lambda layer: layers.get(layer, 0.0)),
        "chunks": len(traced.chunk_s),
        "reads": len(traced.read_s),
    }
    return metrics, [warm_up, untraced, half, plain, traced], notes


# -------------------------------------------------------------------- output
def emit(metrics: Dict[str, tuple], passes: List[PassResult], notes: dict) -> bool:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_ratio':40s} {failed / attempted:>16.6g} (failed {failed} of {attempted} attempted)")
    print("  ".join(f"{key}={value}" for key, value in notes.items()))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return failed == 0


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any of them failed."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, timeout=600)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="stream size, in the workload's units")
    parser.add_argument("--chunk", type=int, help="stream items per chunk call")
    parser.add_argument("--k", type=int, help="reservoir size")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.size:
        workload = dataclasses.replace(workload, size=args.size)
    if args.chunk:
        workload = dataclasses.replace(workload, chunk=args.chunk)
    if args.k:
        params = {key: value for key, value in workload.params.items() if key != "k_share"}
        workload = dataclasses.replace(workload, params={**params, "k": args.k})
    run = Run(workload, args.seed, workload.make_stream(args.seed))
    if run.too_small():
        parser.error(run.too_small())
    if args.trace:
        metrics, passes, notes = measure_traced(run)
    else:
        metrics, passes, notes = measure(run, args.seconds)
    return 0 if emit(metrics, passes, notes) else 1


if __name__ == "__main__":
    sys.exit(main())
