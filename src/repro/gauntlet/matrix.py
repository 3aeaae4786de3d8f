"""The mode matrix: drive every scenario through every ingestion mode.

For each (scenario, mode) cell the runner performs the *strongest check the
mode's contract supports* — its equivalence tier — against the scenario's
ground-truth universe or against a reference run:

``bit-identical``
    The mode promises the same reservoir, bit for bit, as a reference
    serial run under equal seeds and chunking: async pipelining (FIFO
    per-lane delivery), fan-out (independently derived per-backend seeds),
    process-parallel sharding (the persistent worker pool feeds each shard
    replica the exact serial sub-chunk sequence from a snapshot of the
    serial starting state), and mid-stream checkpoint-resume (exact RNG
    state round trip).  The cell asserts list equality of the final
    samples.

``exact-set+chi-square``
    The mode promises the right *distribution*, not the same bits: the
    per-tuple baseline, batched chunking, serial sharding (hypergeometric
    merge) and skew-aware rebalancing.  Two assertions: an over-sized
    reservoir (``k > |universe|``) must reproduce the ground-truth result
    set exactly, and across independently seeded trials the per-result
    inclusion counts must pass a chi-square uniformity test
    (``p > p_threshold``).

``exact-set+determinism``
    Retired as of the worker-pool runtime: the ``sharded-parallel`` cell
    that used to live here now asserts full bit-identity (see above).  The
    tier name remains recognised so downstream tooling reading old reports
    keeps working.

``epoch-exact-set+bit-identical``
    The serving layer's contract: reading the scenario *through* a
    :class:`~repro.serve.server.SampleServer` mid-stream, at two interior
    epochs and the final one, must yield (a) the bit-for-bit reservoir of a
    co-driven standalone run stopped at the same chunk boundary and (b) —
    with an over-sized reservoir — exactly the ground-truth result set of
    the *prefix* consumed by that epoch.  The earliest probe's snapshot is
    re-read after the stream finishes to prove snapshot isolation: later
    chunks must not leak into an older epoch cut.

The ``turnstile`` column re-runs every acyclic join scenario over a
retraction-bearing twin of its stream (deletions of live rows plus
pre-insert tombstones, via :func:`~repro.gauntlet.scenarios
.turnstile_variant`) through the deletion-capable sampler, asserting the
``exact-set+chi-square`` tier against the *surviving* (post-deletion)
result universe.  The dedicated turnstile scenario additionally flows
through the ordinary columns — per-tuple, batched, sharded (retractions
hash-routed to the owning shard), checkpoint-resume (including a windowed
sub-check), serving — because deletion-capable samplers implement the same
backend seam.

Cells a mode cannot structurally host — no join query to hash-partition,
cyclic plans where only acyclic inner ingestors can be rebuilt, retraction
streams against insert-only machinery — are reported as ``skip`` with the
reason, never silently dropped.

Statistical power scales with ``GauntletConfig.trials``; below
:data:`MIN_CHI_TRIALS` trials the chi-square half of a statistical cell is
omitted (the chi-square approximation needs a floor) and the cell degrades
to its exact-set half — how the fast unit tests exercise the machinery
without flaky low-power statistics.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..bench.harness import measure_seconds
from ..core.turnstile import WindowedSampler
from ..ingest.batch import BatchIngestor
from ..ingest.fanout import FanoutIngestor
from ..ingest.pipeline import AsyncIngestor
from ..ingest.rebalance import RebalancingIngestor, SkewMonitor
from ..ingest.shard import ShardedIngestor
from ..relational.stream import StreamDelete
from ..serve import SampleServer
from ..stats.uniformity import result_key, uniformity_p_value
from .scenarios import (
    Scenario,
    _join_universe,
    _surviving_universe,
    build_scenarios,
    turnstile_variant,
)

#: Column order of the matrix.
MODES = (
    "pertuple",
    "batched",
    "sharded",
    "sharded-parallel",
    "rebalancing",
    "async",
    "fanout",
    "checkpoint",
    "served",
    "turnstile",
)

#: Below this many trials the chi-square approximation is too weak to gate on.
MIN_CHI_TRIALS = 20

#: Environment knob scaling scenario streams and trial counts together.
SCALE_ENV = "REPRO_GAUNTLET_SCALE"


@dataclass
class GauntletConfig:
    """Tunables of one gauntlet run (defaults are the full-strength profile)."""

    k: int = 20                 # reservoir size for bit-identity cells
    chunk_size: int = 32        # chunking shared by every chunked mode
    num_shards: int = 3
    trials: int = 48            # chi-square trials for statistical cells
    parallel_trials: int = 0    # extra chi-square trials for sharded-parallel
    p_threshold: float = 0.002  # reject uniformity below this p-value
    seed: int = 2024
    buffer_chunks: int = 4      # async queue depth
    scale: float = 1.0          # informational: the scenario scale used

    @classmethod
    def for_scale(cls, scale: float) -> "GauntletConfig":
        """The profile for a given scale: trials shrink with the streams,
        but never below the chi-square validity floor."""
        return cls(trials=max(MIN_CHI_TRIALS, int(48 * scale)), scale=scale)

    def chi_sample_size(self, universe_size: int) -> int:
        """Reservoir size for chi-square trials: large enough that expected
        per-result inclusion counts stay in testable territory even for
        big universes, small enough that a trial stays cheap."""
        return min(universe_size, max(self.k, -(-universe_size // 8)))

    def as_dict(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "chunk_size": self.chunk_size,
            "num_shards": self.num_shards,
            "trials": self.trials,
            "parallel_trials": self.parallel_trials,
            "p_threshold": self.p_threshold,
            "seed": self.seed,
            "buffer_chunks": self.buffer_chunks,
            "scale": self.scale,
        }


@dataclass
class CellResult:
    """Outcome of one (scenario, mode) cell."""

    scenario: str
    mode: str
    tier: str
    status: str                         # "pass" | "fail" | "skip"
    reason: Optional[str] = None        # skip reason or failure message
    p_value: Optional[float] = None
    serial_seconds: Optional[float] = None
    critical_path_seconds: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "tier": self.tier,
            "status": self.status,
            "reason": self.reason,
            "p_value": self.p_value,
            "serial_seconds": self.serial_seconds,
            "critical_path_seconds": self.critical_path_seconds,
            "detail": self.detail,
        }


class CellFailure(AssertionError):
    """A cell's equivalence assertion failed (carries the cell context)."""


@dataclass
class GauntletReport:
    """Structured outcome of a full matrix run."""

    scenarios: List[Dict[str, object]]
    modes: List[str]
    config: Dict[str, object]
    cells: List[CellResult]

    def cell(self, scenario: str, mode: str) -> CellResult:
        for cell in self.cells:
            if cell.scenario == scenario and cell.mode == mode:
                return cell
        raise KeyError(f"no cell ({scenario!r}, {mode!r})")

    def counts(self) -> Dict[str, int]:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for cell in self.cells:
            counts[cell.status] += 1
        return counts

    @property
    def passed(self) -> bool:
        """True when no cell failed (skips are allowed, failures are not)."""
        return self.counts()["fail"] == 0

    def failures(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.status == "fail"]

    def as_dict(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "scenarios": self.scenarios,
            "modes": self.modes,
            "config": self.config,
            "matrix": {
                scenario["name"]: {
                    cell.mode: cell.as_dict()
                    for cell in self.cells
                    if cell.scenario == scenario["name"]
                }
                for scenario in self.scenarios
            },
            "cells_passed": counts["pass"],
            "cells_failed": counts["fail"],
            "cells_skipped": counts["skip"],
        }

    def render(self) -> str:
        """A plain-text scenario×mode table (✓ pass / ✗ fail / – skip)."""
        symbol = {"pass": "✓", "fail": "✗", "skip": "–"}
        name_width = max(len(s["name"]) for s in self.scenarios)
        header = " ".join(
            [" " * name_width] + [mode.rjust(len(mode)) for mode in self.modes]
        )
        lines = [header]
        for scenario in self.scenarios:
            marks = [
                symbol[self.cell(scenario["name"], mode).status].rjust(len(mode))
                for mode in self.modes
            ]
            lines.append(" ".join([scenario["name"].ljust(name_width)] + marks))
        counts = self.counts()
        lines.append(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skip']} skipped"
        )
        return "\n".join(lines)


class ModeMatrix:
    """Run scenarios × modes, one differential-equivalence check per cell."""

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        config: Optional[GauntletConfig] = None,
        modes: Sequence[str] = MODES,
    ) -> None:
        unknown = [mode for mode in modes if mode not in MODES]
        if unknown:
            raise KeyError(f"unknown modes: {unknown}; known: {list(MODES)}")
        self.scenarios = list(scenarios)
        self.config = config or GauntletConfig()
        self.modes = list(modes)

    # ------------------------------------------------------------------ #
    # Reference runs (shared by several cells)
    # ------------------------------------------------------------------ #
    def _run_pertuple(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        sampler = scenario.make_sampler(k, random.Random(seed))
        for item in scenario.stream:
            if isinstance(item, StreamDelete):
                sampler.delete(item.relation, item.row)
            else:
                sampler.insert(item.relation, item.row)
        return list(sampler.sample)

    def _run_batched(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        sampler = scenario.make_sampler(k, random.Random(seed))
        BatchIngestor(sampler, chunk_size=self.config.chunk_size).ingest(
            scenario.stream
        )
        return list(sampler.sample)

    def _make_sharded(self, scenario: Scenario, k: int, seed: int) -> ShardedIngestor:
        cfg = self.config
        kwargs = dict(
            num_shards=cfg.num_shards,
            chunk_size=cfg.chunk_size,
            rng=random.Random(seed),
        )
        if scenario.kind in ("cyclic", "turnstile"):
            # The default shard factory builds acyclic ReservoirJoins; cyclic
            # and turnstile scenarios shard through the scenario's own
            # (GHD-based resp. deletion-capable) sampler factory.
            kwargs["factory"] = lambda shard, rng: scenario.make_sampler(k, rng)
        return ShardedIngestor(scenario.query, k, **kwargs)

    def _run_sharded(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        ingestor = self._make_sharded(scenario, k, seed)
        ingestor.ingest(scenario.stream)
        return ingestor.merged_sample(k, rng=random.Random(seed + 101))

    def _run_parallel(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        ingestor = self._make_sharded(scenario, k, seed)
        try:
            ingestor.ingest_parallel(scenario.stream)
            return ingestor.merged_sample(k, rng=random.Random(seed + 101))
        finally:
            # Throwaway run: the sample is extracted, reclaim the worker
            # processes without the state-adoption round trip.
            ingestor.close_pool(sync=False)

    def _make_rebalancing(
        self, scenario: Scenario, k: int, seed: int
    ) -> RebalancingIngestor:
        cfg = self.config
        # Thresholds low enough that skewed workloads actually replan on
        # these stream lengths (the stock monitor waits for 4096 tuples).
        return RebalancingIngestor(
            scenario.query,
            k,
            num_shards=cfg.num_shards,
            chunk_size=cfg.chunk_size,
            monitor=SkewMonitor(
                threshold=1.2, min_tuples=4 * cfg.chunk_size, cooldown_chunks=2
            ),
            rng=random.Random(seed),
        )

    def _run_rebalancing(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        ingestor = self._make_rebalancing(scenario, k, seed)
        ingestor.ingest(scenario.stream)
        return ingestor.merged_sample(k, rng=random.Random(seed + 101))

    # ------------------------------------------------------------------ #
    # Cell checks
    # ------------------------------------------------------------------ #
    def _check_exact_set(
        self, scenario: Scenario, run: Callable[[Scenario, int, int], List[dict]]
    ) -> int:
        """An over-sized reservoir must hold exactly the ground truth."""
        oversized = scenario.universe_size + 8
        sample = run(scenario, oversized, self.config.seed)
        sampled = {result_key(result) for result in sample}
        truth = {result_key(result) for result in scenario.universe}
        if sampled != truth:
            raise CellFailure(
                f"exact-set mismatch: {len(sampled - truth)} spurious, "
                f"{len(truth - sampled)} missing of {len(truth)} results"
            )
        return oversized

    def _statistical_cell(
        self,
        scenario: Scenario,
        mode: str,
        run: Callable[[Scenario, int, int], List[dict]],
        trials: Optional[int] = None,
    ) -> CellResult:
        cfg = self.config
        trials = cfg.trials if trials is None else trials
        chi_square = trials >= MIN_CHI_TRIALS
        tier = "exact-set+chi-square" if chi_square else "exact-set"
        _, seconds = measure_seconds(
            lambda: self._check_exact_set(scenario, run)
        )
        detail: Dict[str, object] = {"exact_set": True}
        p_value = None
        if chi_square:
            k_chi = cfg.chi_sample_size(scenario.universe_size)
            p_value = uniformity_p_value(
                lambda seed: run(scenario, k_chi, cfg.seed + 1 + seed),
                scenario.universe,
                trials,
                k_chi,
            )
            detail.update({"trials": trials, "chi_k": k_chi})
            if p_value <= cfg.p_threshold:
                raise CellFailure(
                    f"uniformity rejected: p={p_value:.5f} <= {cfg.p_threshold}"
                )
        return CellResult(
            scenario.name, mode, tier, "pass",
            p_value=p_value, serial_seconds=round(seconds, 4), detail=detail,
        )

    def _cell_pertuple(self, scenario: Scenario) -> CellResult:
        return self._statistical_cell(scenario, "pertuple", self._run_pertuple)

    def _cell_batched(self, scenario: Scenario) -> CellResult:
        return self._statistical_cell(scenario, "batched", self._run_batched)

    def _cell_sharded(self, scenario: Scenario) -> CellResult:
        cell = self._statistical_cell(scenario, "sharded", self._run_sharded)
        ingestor, seconds = measure_seconds(
            lambda: self._make_sharded(
                scenario, self.config.k, self.config.seed
            ).ingest(scenario.stream)
        )
        statistics = ingestor.statistics()
        cell.serial_seconds = round(seconds, 4)
        cell.critical_path_seconds = statistics.get("critical_path_seconds")
        cell.detail["load_imbalance"] = statistics.get("load_imbalance")
        return cell

    def _cell_parallel(self, scenario: Scenario) -> CellResult:
        """Process-parallel sharding is bit-identical to the serial run.

        The worker pool feeds each shard replica the exact serial
        sub-chunk sequence from a snapshot of the serial starting state,
        so every per-shard reservoir — and therefore the merged sample
        under an equal merge RNG — must equal the serial run bit for bit
        (which subsumes the old same-seed determinism check).  The
        exact-set half and the per-shard load comparison are kept as
        independent probes of the routing layer.
        """
        cfg = self.config
        _, seconds = measure_seconds(
            lambda: self._check_exact_set(scenario, self._run_parallel)
        )
        serial = self._make_sharded(scenario, cfg.k, cfg.seed)
        serial.ingest(scenario.stream)
        parallel = self._make_sharded(scenario, cfg.k, cfg.seed)
        try:
            parallel.ingest_parallel(scenario.stream)
            statistics = parallel.statistics()
            if parallel.shard_samples() != serial.shard_samples():
                raise CellFailure(
                    "per-shard reservoirs differ from the serial run"
                )
            merge_rng = cfg.seed + 101
            if parallel.merged_sample(
                cfg.k, rng=random.Random(merge_rng)
            ) != serial.merged_sample(cfg.k, rng=random.Random(merge_rng)):
                raise CellFailure("merged sample differs from the serial run")
            if parallel.shard_loads() != serial.shard_loads():
                raise CellFailure(
                    f"parallel routing stored {parallel.shard_loads()}, "
                    f"serial stored {serial.shard_loads()}"
                )
        finally:
            parallel.close_pool(sync=False)
        detail: Dict[str, object] = {
            "exact_set": True,
            "bit_identical": True,
            "shard_loads": list(serial.shard_loads()),
            "parallel_wall_seconds": statistics.get("parallel_wall_seconds"),
        }
        p_value = None
        if cfg.parallel_trials >= MIN_CHI_TRIALS:
            # Optional belt-and-braces: chi-square over independently
            # seeded pool runs on top of the bit-identity assertion.
            k_chi = cfg.chi_sample_size(scenario.universe_size)
            p_value = uniformity_p_value(
                lambda seed: self._run_parallel(scenario, k_chi, cfg.seed + 1 + seed),
                scenario.universe,
                cfg.parallel_trials,
                k_chi,
            )
            detail.update({"trials": cfg.parallel_trials, "chi_k": k_chi})
            if p_value <= cfg.p_threshold:
                raise CellFailure(
                    f"uniformity rejected: p={p_value:.5f} <= {cfg.p_threshold}"
                )
        return CellResult(
            scenario.name, "sharded-parallel", "bit-identical", "pass",
            p_value=p_value, serial_seconds=round(seconds, 4),
            critical_path_seconds=statistics.get("critical_path_seconds"),
            detail=detail,
        )

    def _cell_rebalancing(self, scenario: Scenario) -> CellResult:
        cell = self._statistical_cell(
            scenario, "rebalancing", self._run_rebalancing
        )
        ingestor, seconds = measure_seconds(
            lambda: self._make_rebalancing(
                scenario, self.config.k, self.config.seed
            ).ingest(scenario.stream)
        )
        statistics = ingestor.statistics()
        cell.serial_seconds = round(seconds, 4)
        cell.critical_path_seconds = statistics.get("critical_path_seconds")
        cell.detail["rebalances"] = len(ingestor.rebalances)
        return cell

    def _cell_async(self, scenario: Scenario) -> CellResult:
        """Async pipelining is bit-identical to the serial run it overlaps."""
        cfg = self.config
        detail: Dict[str, object] = {}
        if scenario.kind == "acyclic" and scenario.query is not None:
            # The multi-worker path: one lane per shard of a sharded target.
            serial = self._make_sharded(scenario, cfg.k, cfg.seed)
            serial.ingest(scenario.stream)

            target = self._make_sharded(scenario, cfg.k, cfg.seed)

            def run_async():
                with AsyncIngestor(
                    target, chunk_size=cfg.chunk_size,
                    buffer_chunks=cfg.buffer_chunks,
                ) as ingestor:
                    ingestor.ingest(scenario.stream)
                return target

            _, seconds = measure_seconds(run_async)
            piped_samples = [list(s.sample) for s in target.samplers]
            serial_samples = [list(s.sample) for s in serial.samplers]
            if piped_samples != serial_samples:
                raise CellFailure("per-shard reservoirs differ from serial run")
            merge_rng = cfg.seed + 101
            if target.merged_sample(
                cfg.k, rng=random.Random(merge_rng)
            ) != serial.merged_sample(cfg.k, rng=random.Random(merge_rng)):
                raise CellFailure("merged sample differs from serial run")
            detail["target"] = "sharded"
            detail["workers"] = cfg.num_shards
        else:
            serial_sample = self._run_batched(scenario, cfg.k, cfg.seed)
            sampler = scenario.make_sampler(cfg.k, random.Random(cfg.seed))
            target = BatchIngestor(sampler, chunk_size=cfg.chunk_size)

            def run_async():
                with AsyncIngestor(
                    target, chunk_size=cfg.chunk_size,
                    buffer_chunks=cfg.buffer_chunks,
                ) as ingestor:
                    ingestor.ingest(scenario.stream)

            _, seconds = measure_seconds(run_async)
            if list(sampler.sample) != serial_sample:
                raise CellFailure("pipelined reservoir differs from serial run")
            detail["target"] = "batched"
            detail["workers"] = 1
        return CellResult(
            scenario.name, "async", "bit-identical", "pass",
            serial_seconds=round(seconds, 4), detail=detail,
        )

    def _cell_fanout(self, scenario: Scenario) -> CellResult:
        """Every fan-out backend is bit-identical to its standalone run."""
        cfg = self.config
        fan = FanoutIngestor(chunk_size=cfg.chunk_size, rng=random.Random(cfg.seed))
        for name in ("alpha", "beta"):
            fan.register(name, lambda rng: scenario.make_sampler(cfg.k, rng))
        _, seconds = measure_seconds(lambda: fan.ingest(scenario.stream))
        for name in ("alpha", "beta"):
            standalone = scenario.make_sampler(
                cfg.k, random.Random(fan.backend_seed(name))
            )
            BatchIngestor(standalone, chunk_size=cfg.chunk_size).ingest(
                scenario.stream
            )
            if list(fan.backend(name).sample) != list(standalone.sample):
                raise CellFailure(
                    f"fan-out backend {name!r} differs from its standalone run"
                )
        statistics = fan.statistics()
        return CellResult(
            scenario.name, "fanout", "bit-identical", "pass",
            serial_seconds=round(seconds, 4),
            critical_path_seconds=statistics.get("critical_path_seconds"),
            detail={"backends": 2},
        )

    def _prefix_universe(self, scenario: Scenario, consumed: int) -> List[dict]:
        """Ground truth of the first ``consumed`` stream tuples — what a
        snapshot at that boundary's epoch must be uniform over."""
        prefix = scenario.stream[:consumed]
        if scenario.kind == "turnstile":
            # A prefix of a turnstile stream may truncate delete/insert
            # annihilation pairs; the surviving-rows replay resolves exactly
            # what a sampler fed that prefix has stored.
            return _surviving_universe(scenario.query, prefix)
        if scenario.query is not None:
            return _join_universe(scenario.query, prefix)
        # Predicate scenario: replay the prefix through the scenario's own
        # predicate (probed off a throwaway sampler, so scenario builders
        # stay free to wrap or counter-instrument it).
        probe = scenario.make_sampler(1, random.Random(0))
        predicate, attribute = probe.predicate, probe.attribute
        return [
            {attribute: item.row[0]}
            for item in prefix
            if predicate(item.row[0])
        ]

    def _cell_served(self, scenario: Scenario) -> CellResult:
        """Mid-stream reads through a SampleServer: every probed epoch is
        bit-identical to a co-driven standalone run stopped at the same
        boundary, exactly covers the prefix universe, and stays frozen
        while later chunks land (snapshot isolation)."""
        cfg = self.config
        chunk = cfg.chunk_size
        oversized = scenario.universe_size + 8
        server = SampleServer(
            BatchIngestor(
                scenario.make_sampler(oversized, random.Random(cfg.seed)),
                chunk_size=chunk,
            )
        )
        reference = BatchIngestor(
            scenario.make_sampler(oversized, random.Random(cfg.seed)),
            chunk_size=chunk,
        )
        pieces = [
            scenario.stream[start:start + chunk]
            for start in range(0, len(scenario.stream), chunk)
        ]
        total = len(pieces)
        # Two interior boundaries plus the final one (deduplicated on the
        # smoke-scale streams where they collide).
        probes = sorted({max(1, total // 3), max(1, (2 * total) // 3), total})
        epochs_checked: List[int] = []
        held: List[object] = []  # [snapshot, recorded sample] of first probe

        def run() -> None:
            consumed = 0
            for boundary, piece in enumerate(pieces, start=1):
                server.ingest_batch(piece)
                reference.ingest_batch(piece)
                consumed += len(piece)
                if boundary not in probes:
                    continue
                snap = server.snapshot()
                if snap.epoch != boundary:
                    raise CellFailure(
                        f"snapshot epoch {snap.epoch} != boundary {boundary}"
                    )
                sample = snap.sample()
                if sample != list(reference.sampler.sample):
                    raise CellFailure(
                        f"served sample at epoch {boundary} is not "
                        "bit-identical to the standalone run"
                    )
                sampled = {result_key(result) for result in sample}
                truth = {
                    result_key(result)
                    for result in self._prefix_universe(scenario, consumed)
                }
                if sampled != truth:
                    raise CellFailure(
                        f"epoch {boundary} exact-set mismatch: "
                        f"{len(sampled - truth)} spurious, "
                        f"{len(truth - sampled)} missing of {len(truth)} results"
                    )
                epochs_checked.append(boundary)
                if not held:
                    held.extend([snap, list(sample)])

        _, seconds = measure_seconds(run)
        if held and held[0].sample() != held[1]:
            raise CellFailure(
                f"epoch-{held[0].epoch} snapshot mutated after later chunks "
                "(isolation broken)"
            )
        statistics = server.statistics()
        return CellResult(
            scenario.name, "served", "epoch-exact-set+bit-identical", "pass",
            serial_seconds=round(seconds, 4),
            detail={
                "epochs_checked": epochs_checked,
                "final_epoch": server.epoch,
                "isolation_reread": bool(held),
                "snapshots_taken": statistics.get("snapshots_taken"),
            },
        )

    def _cell_turnstile(self, scenario: Scenario) -> CellResult:
        """Exact-set and chi-square uniformity over the *surviving* universe.

        Every acyclic join scenario gets a retraction-bearing twin (the
        dedicated turnstile scenario rides its own stream): the stream is
        threaded through :func:`~repro.relational.stream.turnstile_stream`
        and ingested chunked — exercising the mixed insert/retraction
        segmentation of ``TurnstileReservoirJoin.ingest_batch`` — then the
        statistical tier asserts against the post-deletion result set.
        """
        cfg = self.config
        derived = turnstile_variant(scenario, seed=cfg.seed + 7)
        cell = self._statistical_cell(derived, "turnstile", self._run_batched)
        cell.scenario = scenario.name
        deletes = sum(
            1 for item in derived.stream if isinstance(item, StreamDelete)
        )
        cell.detail.update(
            {
                "stream_tuples": len(derived.stream),
                "retractions": deletes,
                "surviving_universe": derived.universe_size,
            }
        )
        return cell

    def _checkpoint_boundary(self, scenario: Scenario) -> int:
        """A mid-stream cut on a chunk boundary (the documented save point:
        chunking-sensitive samplers resume bit-identically only there)."""
        chunk = self.config.chunk_size
        half_chunks = max(1, len(scenario.stream) // (2 * chunk))
        return half_chunks * chunk

    def _cell_checkpoint(self, scenario: Scenario, tmp_dir: str) -> CellResult:
        """Save mid-stream, restore, finish: bit-identical to uninterrupted.

        Sub-checks cover every durable ingestor the scenario supports, so
        across the matrix the checkpoint column exercises all five modes.
        """
        cfg = self.config
        cut = self._checkpoint_boundary(scenario)
        head, tail = scenario.stream[:cut], scenario.stream[cut:]
        covered: List[str] = []

        def roundtrip(ingestor_cls, build, path, finished):
            ingestor = build()
            ingestor.ingest(head)
            ingestor.save(path)
            resumed = ingestor_cls.restore(path)
            resumed.ingest(tail)
            finished(resumed)

        def check(name: str, run: Callable[[], None]) -> None:
            run()
            covered.append(name)

        def batch_check() -> None:
            uninterrupted = self._run_batched(scenario, cfg.k, cfg.seed)
            path = os.path.join(tmp_dir, f"{scenario.name}-batch.ckpt")

            def finished(resumed: BatchIngestor) -> None:
                if list(resumed.sampler.sample) != uninterrupted:
                    raise CellFailure("batch checkpoint-resume diverged")

            roundtrip(
                BatchIngestor,
                lambda: BatchIngestor(
                    scenario.make_sampler(cfg.k, random.Random(cfg.seed)),
                    chunk_size=cfg.chunk_size,
                ),
                path,
                finished,
            )

        def fanout_check() -> None:
            reference = FanoutIngestor(
                chunk_size=cfg.chunk_size, rng=random.Random(cfg.seed)
            )
            reference.register("alpha", lambda rng: scenario.make_sampler(cfg.k, rng))
            reference.ingest(scenario.stream)
            path = os.path.join(tmp_dir, f"{scenario.name}-fanout.ckpt")

            def build() -> FanoutIngestor:
                fan = FanoutIngestor(
                    chunk_size=cfg.chunk_size, rng=random.Random(cfg.seed)
                )
                fan.register("alpha", lambda rng: scenario.make_sampler(cfg.k, rng))
                return fan

            def finished(resumed: FanoutIngestor) -> None:
                if list(resumed.backend("alpha").sample) != list(
                    reference.backend("alpha").sample
                ):
                    raise CellFailure("fanout checkpoint-resume diverged")

            roundtrip(FanoutIngestor, build, path, finished)

        def sharded_check() -> None:
            reference = self._make_sharded(scenario, cfg.k, cfg.seed)
            reference.ingest(scenario.stream)
            path = os.path.join(tmp_dir, f"{scenario.name}-sharded.ckpt")

            def finished(resumed: ShardedIngestor) -> None:
                if [list(s.sample) for s in resumed.samplers] != [
                    list(s.sample) for s in reference.samplers
                ]:
                    raise CellFailure("sharded checkpoint-resume diverged")

            roundtrip(
                ShardedIngestor,
                lambda: self._make_sharded(scenario, cfg.k, cfg.seed),
                path,
                finished,
            )

        def rebalancing_check() -> None:
            reference = self._make_rebalancing(scenario, cfg.k, cfg.seed)
            reference.ingest(scenario.stream)
            merge_rng = cfg.seed + 101
            path = os.path.join(tmp_dir, f"{scenario.name}-rebalancing.ckpt")

            def finished(resumed: RebalancingIngestor) -> None:
                # RebalanceEvents embed wall-clock planning/replay timings, so
                # the event *lists* never reproduce — the samples and the
                # number of replans must.
                if len(resumed.rebalances) != len(reference.rebalances):
                    raise CellFailure("rebalance count diverged across resume")
                if resumed.merged_sample(
                    cfg.k, rng=random.Random(merge_rng)
                ) != reference.merged_sample(cfg.k, rng=random.Random(merge_rng)):
                    raise CellFailure("rebalancing checkpoint-resume diverged")

            roundtrip(
                RebalancingIngestor,
                lambda: self._make_rebalancing(scenario, cfg.k, cfg.seed),
                path,
                finished,
            )

        def async_check() -> None:
            serial = self._run_batched(scenario, cfg.k, cfg.seed)
            path = os.path.join(tmp_dir, f"{scenario.name}-async.ckpt")
            first = AsyncIngestor(
                BatchIngestor(
                    scenario.make_sampler(cfg.k, random.Random(cfg.seed)),
                    chunk_size=cfg.chunk_size,
                ),
                chunk_size=cfg.chunk_size,
                buffer_chunks=cfg.buffer_chunks,
            )
            with first:
                first.ingest(head)
                first.save(path)  # draining snapshot at a chunk boundary
            resumed = AsyncIngestor.restore(path)
            with resumed:
                resumed.ingest(tail)
            if list(resumed.target.sampler.sample) != serial:
                raise CellFailure("async checkpoint-resume diverged")

        def windowed_check() -> None:
            # Window expiry state (stamp log, local clock) must round-trip:
            # a count window short enough that expiries continue *after* the
            # checkpoint boundary proves the restored sampler expires the
            # same rows the uninterrupted run does.
            window = max(cfg.chunk_size, len(scenario.stream) // 3)

            def build() -> BatchIngestor:
                return BatchIngestor(
                    WindowedSampler(
                        scenario.query, cfg.k, window=window,
                        rng=random.Random(cfg.seed), mode="count",
                    ),
                    chunk_size=cfg.chunk_size,
                )

            uninterrupted = build()
            uninterrupted.ingest(scenario.stream)
            path = os.path.join(tmp_dir, f"{scenario.name}-windowed.ckpt")

            def finished(resumed: BatchIngestor) -> None:
                if list(resumed.sampler.sample) != list(
                    uninterrupted.sampler.sample
                ):
                    raise CellFailure("windowed checkpoint-resume diverged")
                if resumed.sampler.statistics() != uninterrupted.sampler.statistics():
                    raise CellFailure(
                        "windowed checkpoint-resume statistics diverged"
                    )

            roundtrip(BatchIngestor, build, path, finished)

        check("batch", batch_check)
        check("fanout", fanout_check)
        check("async", async_check)
        if scenario.query is not None and scenario.kind in ("acyclic", "turnstile"):
            check("sharded", sharded_check)
        if scenario.kind == "acyclic" and scenario.query is not None:
            check("rebalancing", rebalancing_check)
        if scenario.kind == "turnstile":
            check("windowed", windowed_check)
        return CellResult(
            scenario.name, "checkpoint", "bit-identical", "pass",
            detail={"covered": covered, "cut_at_tuple": cut},
        )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _skip_reason(self, scenario: Scenario, mode: str) -> Optional[str]:
        # Cyclic scenarios ride sharded-parallel now: the pool ships built
        # replica *state* (snapshot records), never the factory callable,
        # so the custom cyclic factory no longer blocks process parallelism.
        partitioned = ("sharded", "sharded-parallel", "rebalancing")
        if mode in partitioned and scenario.query is None:
            return "no join query to hash-partition (predicate stream)"
        if mode == "rebalancing" and scenario.kind == "cyclic":
            return "rebalancer rebuilds acyclic inner ingestors only"
        if mode == "rebalancing" and scenario.kind == "turnstile":
            return (
                "rebalance planning replays insert-only shard windows; "
                "migration has no retraction semantics"
            )
        if mode == "turnstile":
            if scenario.query is None:
                return "no join index to retract from (predicate stream)"
            if scenario.kind == "cyclic":
                return (
                    "turnstile retraction requires the acyclic dynamic "
                    "index (c̃nt decrement propagation)"
                )
        if mode == "served" and scenario.query is None:
            # Epoch exact-set needs the *prefix* universe, which for a
            # predicate stream is derivable only from the predicate itself.
            probe = scenario.make_sampler(1, random.Random(0))
            if getattr(probe, "predicate", None) is None:
                return (
                    "sampler exposes no predicate to derive the prefix "
                    "universe for epoch exact-set checks"
                )
        return None

    def run_cell(self, scenario: Scenario, mode: str, tmp_dir: str) -> CellResult:
        if mode not in MODES:
            # A typo'd mode must surface as a clear error, not be swallowed
            # into a traceback-formatted cell failure by the dispatch below.
            raise KeyError(
                f"unknown mode {mode!r}; known modes: {list(MODES)}"
            )
        reason = self._skip_reason(scenario, mode)
        if reason is not None:
            return CellResult(scenario.name, mode, "n/a", "skip", reason=reason)
        dispatch = {
            "pertuple": self._cell_pertuple,
            "batched": self._cell_batched,
            "sharded": self._cell_sharded,
            "sharded-parallel": self._cell_parallel,
            "rebalancing": self._cell_rebalancing,
            "async": self._cell_async,
            "fanout": self._cell_fanout,
            "served": self._cell_served,
            "turnstile": self._cell_turnstile,
        }
        try:
            if mode == "checkpoint":
                return self._cell_checkpoint(scenario, tmp_dir)
            return dispatch[mode](scenario)
        except CellFailure as failure:
            return CellResult(
                scenario.name, mode, "n/a", "fail", reason=str(failure)
            )
        except Exception:
            return CellResult(
                scenario.name, mode, "n/a", "fail",
                reason=traceback.format_exc(limit=3),
            )

    def run(self, tmp_dir: Optional[str] = None) -> GauntletReport:
        """Run every cell; never raises — failures land in the report."""
        import tempfile

        cells: List[CellResult] = []
        with tempfile.TemporaryDirectory() as fallback:
            directory = tmp_dir or fallback
            for scenario in self.scenarios:
                for mode in self.modes:
                    cells.append(self.run_cell(scenario, mode, directory))
        return GauntletReport(
            scenarios=[scenario.summary() for scenario in self.scenarios],
            modes=self.modes,
            config=self.config.as_dict(),
            cells=cells,
        )


def run_gauntlet(
    scale: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    config: Optional[GauntletConfig] = None,
) -> GauntletReport:
    """Build the scenarios and run the full matrix.

    ``scale`` defaults to the ``REPRO_GAUNTLET_SCALE`` environment variable
    (1.0 when unset) — the single knob the CI smoke profile turns.
    """
    if scale is None:
        scale = float(os.environ.get(SCALE_ENV, "1"))
    scenarios = build_scenarios(scale, names)
    matrix = ModeMatrix(scenarios, config or GauntletConfig.for_scale(scale), modes)
    return matrix.run()


__all__ = [
    "MODES",
    "MIN_CHI_TRIALS",
    "SCALE_ENV",
    "GauntletConfig",
    "CellResult",
    "CellFailure",
    "GauntletReport",
    "ModeMatrix",
    "run_gauntlet",
]
