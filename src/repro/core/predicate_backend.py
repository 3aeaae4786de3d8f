"""Drive the predicate-aware reservoir (Algorithm 1) through the ingestion seam.

:class:`~repro.core.predicate_reservoir.PredicateReservoir` samples *real*
items of a skippable stream — the Section 6.3 experiment filters strings by
edit distance to a query string — but its native interface
(``run(SkippableStream)``) is not the :class:`~repro.core.backend
.SamplerBackend` protocol the ingestion seam speaks, so until this module
existed the capability was exported yet unreachable from any ingestor.
:class:`PredicateStreamSampler` closes that gap: it presents a
single-relation stream of ``(item,)`` rows as a conforming backend, driving
each chunk through ``run()`` over an in-memory
:class:`~repro.core.skippable.ListStream`.

Semantics at chunk boundaries
-----------------------------
``run()`` carries the reservoir, the running ``w`` and the RNG across calls,
so the union of the per-chunk streams is sampled as one logical stream and
the uniformity guarantee holds at every chunk boundary.  One subtlety is
deliberate: when a chunk ends mid-skip, the *residual* geometric skip is
discarded and redrawn at the next chunk — geometric distributions are
memoryless, so the redraw is distributionally identical, but it does consume
different randomness.  Consequently two runs are **bit-identical only under
the same chunking** (same chunk sizes, same seed) — which is exactly what
the checkpoint-resume and async-transport guarantees need — while different
chunk sizes are distribution-equal, not bit-equal (mirroring the acyclic
``insert_batch`` contract).

The adapter deliberately exposes **no** ``query`` and **no** ``index``:
there is no join to hash-partition or count, so sharded/rebalancing modes
cannot host it (the workload gauntlet records those cells as structural
skips).  Batched, async, fan-out (via ``spawn``) and checkpoint modes all
apply.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..relational.stream import as_relation_rows
from .predicate_reservoir import PredicateReservoir
from .skippable import ListStream, is_real


class PredicateStreamSampler:
    """A :class:`SamplerBackend` adapter over :class:`PredicateReservoir`.

    Parameters
    ----------
    k:
        Reservoir size (uniform sample of the *real* items seen so far).
    predicate:
        ``θ``; evaluated on the single value of each row.  Must be picklable
        for checkpoints (module-level functions and plain
        callable classes such as
        :class:`~repro.workloads.strings.EditDistancePredicate` are; lambdas
        are not).
    rng:
        Seedable randomness source, owned by the underlying reservoir.
    relation:
        The single relation name the adapter accepts (default ``"S"``).
    attribute:
        Attribute name under which sampled items appear in :attr:`sample`
        result dicts (default ``"item"``).
    """

    def __init__(
        self,
        k: int,
        predicate: Callable[[object], bool] = is_real,
        rng: Optional[random.Random] = None,
        relation: str = "S",
        attribute: str = "item",
    ) -> None:
        self.relation = relation
        self.attribute = attribute
        self.reservoir: PredicateReservoir = PredicateReservoir(
            k, predicate, rng=rng
        )
        self.tuples_processed = 0
        self.chunks_processed = 0

    @property
    def k(self) -> int:
        return self.reservoir.k

    @property
    def predicate(self) -> Callable[[object], bool]:
        return self.reservoir.predicate

    # ------------------------------------------------------------------ #
    # Streaming interface (the SamplerBackend protocol)
    # ------------------------------------------------------------------ #
    def _validated_values(self, items: Sequence) -> List[object]:
        """Whole-chunk validation *before* any mutation (the seam contract):
        unknown relation raises ``KeyError``, wrong arity ``ValueError``."""
        pairs = as_relation_rows(items)
        values: List[object] = []
        for relation, row in pairs:
            if relation != self.relation:
                raise KeyError(
                    f"relation {relation!r} is not the predicate stream "
                    f"relation {self.relation!r}"
                )
            if len(row) != 1:
                raise ValueError(
                    f"predicate stream rows carry exactly one value, "
                    f"got arity {len(row)}"
                )
            values.append(row[0])
        return values

    def insert(self, relation: str, row: Sequence) -> None:
        """Absorb one stream tuple ``(item,)`` of the stream relation."""
        values = self._validated_values([(relation, tuple(row))])
        self.reservoir.run(ListStream(values))
        self.tuples_processed += 1

    def insert_batch(self, items: Sequence) -> int:
        """Absorb one chunk through a single ``run()`` over the chunk.

        Validates the whole chunk before any state changes, then samples the
        chunk as the next segment of the logical stream.  Returns the number
        of tuples absorbed.
        """
        values = self._validated_values(items)
        if not values:
            return 0
        self.reservoir.run(ListStream(values))
        self.tuples_processed += len(values)
        self.chunks_processed += 1
        return len(values)

    @property
    def sample(self) -> List[Dict[str, object]]:
        """The current reservoir as attr→value dicts (protocol shape)."""
        return [{self.attribute: item} for item in self.reservoir.sample]

    def statistics(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "k": self.k,
            "sample_size": len(self.reservoir),
            "tuples_processed": self.tuples_processed,
            "chunks_processed": self.chunks_processed,
            "stops": self.reservoir.stops,
            "real_stops": self.reservoir.real_stops,
        }
        evaluations = getattr(self.predicate, "evaluations", None)
        if evaluations is not None:
            stats["predicate_evaluations"] = evaluations
        return stats

    # ------------------------------------------------------------------ #
    # Replica cloning (the spawn capability; fan-out / custom shard use)
    # ------------------------------------------------------------------ #
    def spawn(self, rng: Optional[random.Random] = None) -> "PredicateStreamSampler":
        """A fresh, empty, identically configured replica driven by ``rng``.

        The predicate object is shared (it is configuration, not sampler
        state) — a stateful predicate's counters, e.g.
        ``EditDistancePredicate.evaluations``, then aggregate across
        replicas.
        """
        return PredicateStreamSampler(
            self.k,
            self.predicate,
            rng=rng,
            relation=self.relation,
            attribute=self.attribute,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredicateStreamSampler(k={self.k}, relation={self.relation!r}, "
            f"|sample|={len(self.reservoir)})"
        )


__all__ = ["PredicateStreamSampler"]
