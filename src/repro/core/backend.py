"""The :class:`SamplerBackend` protocol: what the ingestion seam asks of a sampler.

Every sampler in this repository — :class:`~repro.core.reservoir_join
.ReservoirJoin`, :class:`~repro.cyclic.cyclic_join.CyclicReservoirJoin` and
the three baselines — maintains its reservoir through the same small
interface: per-tuple ``insert``, an optional bulk ``insert_batch``, the
``sample`` property, ``statistics()``.  Historically each ingestor probed
those capabilities with its own ``getattr`` boilerplate and re-implemented
the per-tuple fallback loop; this module is the one place that knows the
interface, so the ingestors (and anything else that drives samplers) share a
single probe, a single fallback, and a single seed-derivation rule.

Three layers of service:

* **The protocol** (:class:`SamplerBackend`) — the structural type a backend
  must satisfy to ride the ingestion seam.  Conformance is duck-typed
  (``typing.Protocol``); samplers do not import this module to conform.
* **Capability probing** (:func:`probe_backend`, :func:`chunk_apply`) — what
  a given backend actually offers beyond the minimum: a bulk path, an
  ingestor-style ``ingest_batch``, exact result counting via a dynamic
  index, replica cloning via ``spawn``.
* **Seed derivation** (:func:`derive_seed`) — the one rule every
  multi-replica feature (sharding, rebalancing replays, fan-out) uses to
  split a master RNG into independent per-replica RNGs, so replica
  randomness is reproducible and never shared.
* **Durability** (:func:`snapshot_backend`, :func:`restore_backend`) — an
  in-memory copy of any backend or ingestor: the object pickled whole, and
  unpickled again (see :mod:`repro.ingest.checkpoint` for the file format
  on top).

:class:`PerTupleBatchMixin` is the shared fallback implementation of
``insert_batch`` for samplers without a structural bulk path (the
baselines): validate the whole chunk up front, then drive the per-tuple
``insert`` loop — identical semantics, one copy of the code.
"""

from __future__ import annotations

import pickle
import random
from typing import Callable, Dict, Iterable, List, Protocol, Sequence, Tuple, runtime_checkable

from ..relational.stream import as_relation_rows, validated_items

#: Bits of entropy drawn from a master RNG per derived replica seed.  48 bits
#: keeps seeds comfortably collision-free at any realistic replica count
#: while staying exactly reproducible across platforms.
SEED_BITS = 48


@runtime_checkable
class SamplerBackend(Protocol):
    """The maintenance interface every reservoir sampler exposes.

    This is a structural protocol: any object with these members conforms,
    no registration or inheritance required.  ``isinstance(obj,
    SamplerBackend)`` checks member *presence* (the useful runtime check);
    static checkers verify the signatures.

    Required members
    ----------------
    ``insert(relation, row)``
        Absorb one stream tuple.  The reservoir must be a uniform sample
        without replacement of the join results of everything inserted so
        far when the call returns.
    ``sample``
        The current reservoir (a list of attr→value dicts).
    ``statistics()``
        A flat dict of observability counters.

    Optional capabilities (probed, never assumed)
    ---------------------------------------------
    ``insert_batch(items)``
        Bulk fast path over a chunk of ``StreamTuple``/``(relation, row)``
        items; must validate the whole chunk before any mutation and keep
        the reservoir uniform at the chunk boundary.
    ``index``
        A :class:`~repro.index.dynamic_index.DynamicJoinIndex`, enabling the
        O(N) exact result count the sharded merge and fan-out accounting use.
    ``spawn(rng)``
        Replica cloning: a fresh, empty, identically configured sampler
        driven by ``rng`` — what sharding and fan-out build replicas from.
    """

    def insert(self, relation: str, row: Sequence) -> None: ...

    @property
    def sample(self) -> List[dict]: ...

    def statistics(self) -> Dict[str, object]: ...


class BackendCapabilities:
    """What :func:`probe_backend` found on one backend (immutable record)."""

    __slots__ = ("insert", "insert_batch", "ingest_batch", "sample", "statistics", "index", "spawn")

    def __init__(self, backend) -> None:
        self.insert = callable(getattr(backend, "insert", None))
        self.insert_batch = callable(getattr(backend, "insert_batch", None))
        self.ingest_batch = callable(getattr(backend, "ingest_batch", None))
        self.sample = hasattr(backend, "sample")
        self.statistics = callable(getattr(backend, "statistics", None))
        self.index = getattr(backend, "index", None) is not None
        self.spawn = callable(getattr(backend, "spawn", None))

    def as_dict(self) -> Dict[str, bool]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        present = ", ".join(name for name in self.__slots__ if getattr(self, name))
        return f"BackendCapabilities({present})"


def probe_backend(backend) -> BackendCapabilities:
    """Probe a backend's capabilities once, instead of ``getattr`` at every use."""
    return BackendCapabilities(backend)


def chunk_apply(backend) -> Tuple[Callable[[Sequence], object], str]:
    """The best way to hand ``backend`` a chunk: ``(apply, mode)``.

    Probe order — the single dispatch rule every ingestor shares:

    1. ``ingest_batch`` (``mode='ingest_batch'``) — the backend is itself an
       ingestor (a :class:`~repro.ingest.shard.ShardedIngestor`, a nested
       fan-out, ...) and owns its own routing;
    2. ``insert_batch`` (``mode='insert_batch'``) — the sampler's bulk fast
       path;
    3. per-tuple ``insert`` loop (``mode='insert'``) — the universal
       fallback: the chunk is normalised once and driven tuple by tuple.
       When the backend exposes its query (``original_query`` or
       ``query``), the whole chunk is validated against it *before* the
       first insert, so a bad chunk leaves the backend untouched — the
       same all-or-nothing contract the structural bulk paths honour.  A
       query-less backend gets the raw loop (and a mid-chunk failure may
       leave it partially fed; conforming samplers always carry a query).

    The returned callable takes one chunk (``StreamTuple`` or
    ``(relation, row)`` items) and applies it whole.
    """
    ingest_batch = getattr(backend, "ingest_batch", None)
    if callable(ingest_batch):
        return ingest_batch, "ingest_batch"
    insert_batch = getattr(backend, "insert_batch", None)
    if callable(insert_batch):
        return insert_batch, "insert_batch"
    insert = getattr(backend, "insert", None)
    if not callable(insert):
        raise TypeError(
            f"{type(backend).__name__} exposes neither ingest_batch, "
            "insert_batch nor insert; it cannot be driven by the ingestion seam"
        )
    query = getattr(backend, "original_query", None) or getattr(backend, "query", None)

    def fallback(items: Sequence) -> None:
        if query is not None:
            pairs = validated_items(items, query)
        else:
            pairs = as_relation_rows(items)
        for relation, row in pairs:
            insert(relation, row)

    return fallback, "insert"


def snapshot_backend(backend) -> bytes:
    """One backend's complete resumable state: the object, pickled whole.

    Every sampler and ingestor in this repository pickles end to end; the
    few fields that are not state (boundary hooks of observers, bound
    delivery callables, worker threads and processes) are dropped or
    rebuilt by the owning class's ``__getstate__``/``__setstate__``.
    """
    return pickle.dumps(backend, protocol=pickle.HIGHEST_PROTOCOL)


def restore_backend(blob: bytes):
    """Rebuild a backend from a :func:`snapshot_backend` blob."""
    return pickle.loads(blob)


def derive_seed(rng: random.Random) -> int:
    """Draw one replica seed from a master RNG (:data:`SEED_BITS` bits).

    Every multi-replica feature derives its per-replica randomness through
    this single rule, so a run is reproducible from one master seed and two
    replicas never share an RNG — the independence the uniformity arguments
    of sharding and fan-out rely on.
    """
    return rng.getrandbits(SEED_BITS)


class PerTupleBatchMixin:
    """Shared ``insert_batch`` for samplers without a structural bulk path.

    The baselines (naive recompute, SJoin, symmetric hash join) gain nothing
    from chunk-level grouping — their per-tuple work is already the whole
    cost — but must still speak the batched seam.  Mixing this in gives them
    the canonical fallback: validate the *whole* chunk before any mutation
    (unknown relation → ``KeyError``, so a failed call leaves the sampler
    untouched), then drive the per-tuple :meth:`insert` loop and report how
    many new (non-duplicate) tuples were absorbed.

    Hooks
    -----
    * The query validated against is ``self.original_query`` when present
      (samplers that rewrite their query, e.g. SJoin with the foreign-key
      optimisation) else ``self.query``.  Validation is the full
      :func:`~repro.relational.stream.validated_items` check — unknown
      relation *and* wrong arity both raise before any mutation, the same
      contract the structural bulk paths honour.
    * :meth:`_accepted_tuples` is the monotone count of absorbed
      non-duplicate tuples; the default reads the ``tuples_processed`` /
      ``duplicates_ignored`` counters every sampler keeps.
    * :meth:`_insert_pairs` drives the validated pairs; override it to batch
      differently (the naive baseline defers its recompute to the chunk
      boundary) while keeping the shared validation front half.
    """

    def insert_batch(self, items: Iterable) -> int:
        """Process a chunk of stream tuples; returns new tuples absorbed.

        ``KeyError`` (unknown relation) and ``ValueError`` (wrong arity)
        are raised before any state changes — whole-chunk validation,
        exactly like the structural bulk paths of
        ``ReservoirJoin.insert_batch``.
        """
        query = getattr(self, "original_query", None) or self.query
        pairs = validated_items(items, query)
        return self._insert_pairs(pairs)

    def _insert_pairs(self, pairs: List[Tuple[str, tuple]]) -> int:
        before = self._accepted_tuples()
        for relation, row in pairs:
            self.insert(relation, row)
        return self._accepted_tuples() - before

    def _accepted_tuples(self) -> int:
        return self.tuples_processed - self.duplicates_ignored


__all__ = [
    "SEED_BITS",
    "SamplerBackend",
    "BackendCapabilities",
    "probe_backend",
    "chunk_apply",
    "derive_seed",
    "snapshot_backend",
    "restore_backend",
    "PerTupleBatchMixin",
]
