"""Multi-backend fan-out: one stream pass feeding many samplers at once.

The stream is the expensive resource — transport, decoding, chunk cutting —
not the samplers.  Yet every consumer that wants its own synopsis (a
freshness-tuned small reservoir, a big analytics reservoir, a cyclic-query
sampler, a sharded deployment, a baseline kept around for differential
checks) traditionally pays for its own pass.  :class:`FanoutIngestor` makes
the pass the shared resource: each chunk of a single
:func:`~repro.relational.stream.chunk_stream` pass is delivered to every
registered backend, and each backend maintains its reservoir exactly as if
it had consumed the stream alone.

Why each backend's sample is exactly the standalone sample
----------------------------------------------------------
Two facts make fan-out a *no-op* distribution-wise (and, under equal seeds,
bit-for-bit):

1. **Same chunk sequence.**  Delivery is broadcast: every backend receives
   the same chunks in the same order the standalone
   :class:`~repro.ingest.batch.BatchIngestor` would have produced — so each
   backend's view of the stream is *identical* to a standalone run, not
   merely equivalent.
2. **Independent derived randomness.**  Each backend built through
   :meth:`FanoutIngestor.register` is seeded by
   :func:`repro.core.backend.derive_seed` from the fan-out's master RNG (in
   registration order), and consumes only its own RNG.  Re-running the same
   factory on ``random.Random(backend_seed(name))`` over the same chunks
   reproduces the backend state bit for bit — the property the statistical
   harness asserts — and no randomness is shared across backends, so their
   samples are independent draws conditioned on the stream.

Uniformity therefore needs no new argument: it is each backend's own
chunk-boundary guarantee, unchanged.

Error isolation
---------------
Backends belong to different consumers, so one consumer's failure must not
poison the pass that feeds the others.  Two policies:

* ``on_error="raise"`` (default) — a backend failure aborts the chunk and
  poisons the fan-out (every later call re-raises), mirroring the async
  pipeline's stickiness: after a mid-chunk failure the backends have seen
  different prefixes and nothing drawn from the failed run is trustworthy.
* ``on_error="isolate"`` — the failing backend is quarantined (its first
  error is recorded, later chunks skip it) and the pass continues for the
  healthy backends, whose guarantee is untouched because their chunk
  sequence is untouched.  ``failures`` / ``statistics()`` expose what broke;
  ingestion only raises once *every* backend has failed.  Validation
  errors are gentler: a ``KeyError``/``ValueError`` is, by the
  :class:`~repro.core.backend.SamplerBackend` contract, raised by
  whole-chunk validation *before* any mutation, so the backend is intact —
  the chunk is counted as *rejected* for that backend (not delivered, not
  quarantining), and later chunks keep flowing to it.  That is what lets
  backends over different relation sets share one pass: each simply
  rejects the chunks naming relations outside its query.  (A rejecting
  backend equals a standalone run over the chunks it accepted.)

``KeyboardInterrupt`` and other non-``Exception`` interrupts always
propagate — isolation never swallows a user abort.

Composition: a backend may itself be a
:class:`~repro.ingest.shard.ShardedIngestor` (the capability probe prefers
``ingest_batch``), and the fan-out itself exposes ``ingest_batch``, so it
can sit behind an :class:`~repro.ingest.pipeline.AsyncIngestor` transport or
inside another fan-out.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.backend import chunk_apply, derive_seed
from ..relational.stream import StreamTuple
from .checkpoint import Checkpointable
from .engine import DEFAULT_CHUNK_SIZE, SKIPPED, EngineLane, IngestionEngine


class _BackendRecord:
    """One registered backend: identity, capability, failure accounting."""

    __slots__ = ("name", "backend", "seed", "apply", "mode", "prevalidates",
                 "error", "chunks_rejected")

    def __init__(self, name: str, backend, seed: Optional[int]) -> None:
        self.name = name
        self.backend = backend
        self.seed = seed
        self.apply, self.mode = chunk_apply(backend)
        # Whether a KeyError/ValueError from apply is guaranteed to precede
        # any mutation: true for the bulk/ingestor contract paths, and for
        # the per-tuple fallback only when the backend exposes its query
        # (then chunk_apply validates the whole chunk up front).
        self.prevalidates = self.mode != "insert" or (
            getattr(backend, "original_query", None)
            or getattr(backend, "query", None)
        ) is not None
        self.error: Optional[Exception] = None
        self.chunks_rejected = 0

    # ``apply`` may be chunk_apply's per-tuple closure: probe it again on load.
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name != "apply"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.apply, _ = chunk_apply(self.backend)


class FanoutIngestor(Checkpointable):
    """Deliver every chunk of one stream pass to ``M`` registered backends.

    Parameters
    ----------
    chunk_size:
        Stream tuples per delivered chunk; every backend's uniformity
        guarantee holds at each chunk boundary, exactly as standalone.
    rng:
        Master randomness source; :meth:`register` derives one independent
        seed per backend from it (in registration order).
    on_error:
        ``"raise"`` (default) or ``"isolate"`` — see the module docstring.

    Attributes
    ----------
    batches_ingested / tuples_ingested:
        Chunks / stream tuples delivered so far (counted once, before the
        ``M``-way replication).
    critical_path_seconds:
        Per chunk, the slowest backend's application time (plus the
        negligible broadcast cost) — backends share no state, so this is
        the wall clock of a one-worker-per-backend deployment, the honest
        scale-out figure next to which benchmarks report the single-thread
        serial total.
    """

    def __init__(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        rng: Optional[random.Random] = None,
        on_error: str = "raise",
    ) -> None:
        if on_error not in ("raise", "isolate"):
            raise ValueError("on_error must be 'raise' or 'isolate'")
        self._rng = rng if rng is not None else random.Random()
        self.on_error = on_error
        self._records: Dict[str, _BackendRecord] = {}
        self._order: List[str] = []
        self._started = False
        self._poisoned: Optional[Exception] = None
        self._engine = IngestionEngine([], chunk_size=chunk_size)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, factory: Callable[[random.Random], object]):
        """Build and register a backend from ``factory(rng)`` with a derived seed.

        The factory receives a fresh ``random.Random`` seeded by
        :func:`~repro.core.backend.derive_seed` from the master RNG; the
        seed is recorded (:meth:`backend_seed`) so a standalone rerun can
        reproduce the backend bit for bit.  Returns the built backend.
        Registration order determines the seed sequence (admissibility is
        checked *before* the seed is drawn, so a rejected registration
        never shifts later backends' seeds), and registering after
        ingestion has begun raises — late backends would see a truncated
        stream and silently break the standalone equivalence.
        """
        self._check_admissible(name)
        seed = derive_seed(self._rng)
        return self._admit(name, factory(random.Random(seed)), seed)

    def register_replica(self, name: str, prototype):
        """Register a fresh replica of ``prototype`` via its ``spawn`` capability.

        The replica-cloning path of the :class:`~repro.core.backend
        .SamplerBackend` protocol: ``prototype.spawn(rng)`` builds an empty,
        identically configured sampler, here driven by a derived seed that
        is recorded exactly as for :meth:`register` — so several fan-out
        backends can share one configuration without repeating factory
        lambdas.  The prototype itself is never ingested into or mutated.
        Returns the replica.
        """
        spawn = getattr(prototype, "spawn", None)
        if not callable(spawn):
            raise TypeError(
                f"{type(prototype).__name__} does not expose the spawn() "
                "replica-cloning capability"
            )
        self._check_admissible(name)
        seed = derive_seed(self._rng)
        return self._admit(name, spawn(random.Random(seed)), seed)

    def add(self, name: str, backend):
        """Register a pre-built backend (no seed bookkeeping).

        For backends whose randomness the caller manages — a
        :class:`~repro.ingest.shard.ShardedIngestor` built with an explicit
        RNG, a deterministic consumer.  :meth:`backend_seed` returns
        ``None`` for these; the delivery guarantee (same chunks, same
        order) holds regardless.  Returns the backend.
        """
        return self._admit(name, backend, None)

    def _check_admissible(self, name: str) -> None:
        """Reject a registration before any seed is drawn or factory run."""
        if self._started:
            raise RuntimeError(
                "cannot register a backend after ingestion has begun; "
                "it would see a truncated stream"
            )
        if name in self._records:
            raise ValueError(f"backend {name!r} is already registered")

    def _admit(self, name: str, backend, seed: Optional[int]):
        self._check_admissible(name)
        record = _BackendRecord(name, backend, seed)
        self._records[name] = record
        self._order.append(name)
        self._engine.add_lane(EngineLane(name, self._lane_apply(record)))
        return backend

    def _lane_apply(self, record: _BackendRecord) -> Callable[[Sequence], object]:
        def apply(items: Sequence):
            if record.error is not None:
                return SKIPPED  # quarantined: healthy lanes keep their sequence
            try:
                record.apply(items)
            except (KeyError, ValueError) as error:
                if not record.prevalidates:
                    # A query-less per-tuple backend has no pre-mutation
                    # guarantee — the loop may have half-fed it, so this
                    # is a real failure, not a clean rejection.
                    record.error = error
                    if self.on_error == "raise":
                        self._poisoned = error
                        raise
                    return SKIPPED
                # Whole-chunk validation rejection — raised before any
                # mutation by the SamplerBackend contract, so the backend
                # is intact: count the rejection, keep delivering.  (A
                # non-conforming backend that raises these mid-mutation is
                # mis-classified; pre-mutation validation is part of the
                # protocol third-party backends are expected to honour.)
                record.chunks_rejected += 1
                if self.on_error == "raise":
                    self._poisoned = error
                    raise
                return SKIPPED
            except Exception as error:
                # A real backend failure (KeyboardInterrupt and friends
                # deliberately propagate — isolation never eats an abort).
                record.error = error
                if self.on_error == "raise":
                    self._poisoned = error
                    raise
                return SKIPPED
            return None

        return apply

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def backend_names(self) -> List[str]:
        """Registered backend names, in registration (= seed) order."""
        return list(self._order)

    @property
    def backends(self) -> Dict[str, object]:
        """Name → backend, in registration order."""
        return {name: self._records[name].backend for name in self._order}

    def backend(self, name: str):
        """The registered backend called ``name`` (``KeyError`` if absent)."""
        return self._records[name].backend

    def backend_seed(self, name: str) -> Optional[int]:
        """The derived seed ``name`` was built with (``None`` for :meth:`add`)."""
        return self._records[name].seed

    @property
    def failures(self) -> Dict[str, Exception]:
        """Name → first error, for every failed backend."""
        return {
            name: self._records[name].error
            for name in self._order
            if self._records[name].error is not None
        }

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    @property
    def batches_ingested(self) -> int:
        return self._engine.batches_ingested

    @property
    def tuples_ingested(self) -> int:
        return self._engine.tuples_ingested

    @property
    def chunk_size(self) -> int:
        return self._engine.chunk_size

    @property
    def critical_path_seconds(self) -> float:
        return self._engine.critical_path_seconds

    def ingest_batch(self, items: Sequence) -> int:
        """Deliver one chunk to every (healthy) backend.

        Returns the number of stream tuples in the chunk.  An empty chunk
        is a no-op.  A poisoned fan-out re-raises its sticky failure; in
        isolation mode a chunk that finds every backend quarantined raises
        ``RuntimeError`` instead of silently draining the stream.
        """
        if self._poisoned is not None:
            raise self._poisoned
        if not self._records:
            raise RuntimeError("no backends registered")
        if all(record.error is not None for record in self._records.values()):
            raise RuntimeError("every fan-out backend has failed")
        pushed = self._engine.ingest_batch(items)
        if pushed:
            self._started = True
        return pushed

    def ingest(self, stream: Iterable[StreamTuple]) -> "FanoutIngestor":
        """Cut ``stream`` into chunks and deliver them all; returns ``self``."""
        self._engine.ingest(stream, sink=self.ingest_batch)
        return self

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the fan-out: every backend with its recorded name and
        :meth:`backend_seed`, the master RNG (later registrations draw the
        seeds an uninterrupted run would have drawn) and the engine-level
        delivery accounting.

        Every backend must be healthy: after a failure the failed backend's
        state may be mid-chunk and the healthy backends have seen a
        different prefix than it has, so nothing resumable exists —
        ``RuntimeError``.
        """
        if self._poisoned is not None or any(
            record.error is not None for record in self._records.values()
        ):
            failed = [
                name for name in self._order if self._records[name].error is not None
            ]
            raise RuntimeError(
                f"cannot checkpoint a fan-out with failed backends {failed}; "
                "a checkpoint must capture a consistent chunk boundary"
            )
        return self.__dict__

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        for name, lane in zip(self._order, self._engine.lanes):
            lane.apply = self._lane_apply(self._records[name])

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, object]:
        """Delivery counters plus one nested entry per backend.

        Per backend: the probed delivery ``mode``, busy seconds, delivered
        chunk/tuple counts (real deliveries only — quarantined and rejected
        chunks are excluded by the engine's skip accounting), rejected-chunk
        count, the recorded failure (``repr``) if any, and the backend's own
        ``statistics()`` when it exposes them.
        """
        busy = self._engine.lane_busy_seconds
        per_backend: Dict[str, Dict[str, object]] = {}
        for position, name in enumerate(self._order):
            record = self._records[name]
            lane = self._engine.lanes[position]
            entry: Dict[str, object] = {
                "mode": record.mode,
                "busy_seconds": round(busy[position], 4),
                "chunks_delivered": lane.chunks_applied,
                "tuples_delivered": lane.tuples_applied,
                "chunks_rejected": record.chunks_rejected,
            }
            if record.error is not None:
                entry["failed"] = repr(record.error)
            if hasattr(record.backend, "statistics"):
                entry["statistics"] = dict(record.backend.statistics())
            per_backend[name] = entry
        return {
            "num_backends": len(self._order),
            "backends": per_backend,
            "batches_ingested": self.batches_ingested,
            "tuples_ingested": self.tuples_ingested,
            "chunk_size": self.chunk_size,
            "on_error": self.on_error,
            "broadcast_seconds": round(self._engine.route_seconds, 4),
            "critical_path_seconds": round(self.critical_path_seconds, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FanoutIngestor(backends={self._order!r}, "
            f"chunk_size={self.chunk_size}, batches={self.batches_ingested})"
        )


__all__ = ["FanoutIngestor"]
