"""Reservoir sampling over joins (Section 3.4, Algorithm 6).

:class:`ReservoirJoin` is the library's headline public API: it maintains
``k`` uniform samples *without replacement* of the join results ``Q(R_i)``
for every prefix ``R_i`` of an insert-only tuple stream, in
``O(N log N + k log N log(N/k))`` expected total time for acyclic joins
(Corollary 4.3).

For every arriving tuple the algorithm

1. updates the dynamic index (``IndexUpdate``, amortised ``O(log N)``),
2. conceptually generates the delta batch ``ΔJ ⊇ ΔQ(R, t)`` (never
   materialised; positions are retrieved lazily), and
3. feeds the batch to the batched predicate reservoir sampler, whose
   predicate simply rejects the dummy positions of ``ΔJ``.

The optional foreign-key and grouping optimisations of Section 4.4 are
exposed as constructor flags (``RSJoin_opt`` in the paper's experiments is
``ReservoirJoin(..., foreign_key=True, grouping=True)``).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..index.dynamic_index import DynamicJoinIndex
from ..index.foreign_key import ForeignKeyCombiner
from ..relational.query import JoinQuery
from ..relational.stream import StreamTuple, validated_items
from .batch_reservoir import BatchedPredicateReservoir


class ReservoirJoin:
    """Maintain ``k`` uniform samples of an acyclic join over a tuple stream.

    Parameters
    ----------
    query:
        The acyclic join query (use :class:`repro.cyclic.CyclicReservoirJoin`
        for cyclic queries).
    k:
        Reservoir size.
    rng:
        Seedable randomness source.
    grouping:
        Enable the grouping optimisation (Section 4.4).
    foreign_key:
        Enable the foreign-key combination optimisation; requires primary-key
        constraints to be declared on the query (otherwise it is a no-op).
    maintain_root:
        Additionally maintain the full-join sampling structure (see
        :class:`~repro.index.dynamic_index.DynamicJoinIndex`); not required
        for reservoir maintenance and off by default.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
        grouping: bool = False,
        foreign_key: bool = False,
        maintain_root: bool = False,
    ) -> None:
        self.original_query = query
        self.k = k
        self._rng = rng if rng is not None else random.Random()
        # Remembered so spawn() can clone an identically configured replica.
        self._config = {
            "grouping": grouping,
            "foreign_key": foreign_key,
            "maintain_root": maintain_root,
        }
        self._combiner: Optional[ForeignKeyCombiner] = None
        working_query = query
        if foreign_key:
            combiner = ForeignKeyCombiner(query)
            if combiner.is_effective:
                self._combiner = combiner
                working_query = combiner.rewritten_query
        self.query = working_query
        self.index = DynamicJoinIndex(
            working_query, grouping=grouping, maintain_root=maintain_root
        )
        self.reservoir: BatchedPredicateReservoir = BatchedPredicateReservoir(
            k, rng=self._rng
        )
        self.tuples_processed = 0
        self.duplicates_ignored = 0

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> None:
        """Process one stream tuple (insert ``row`` into ``relation``).

        ``relation`` refers to the *original* query's relation names even
        when the foreign-key optimisation rewrote the query.
        """
        self.tuples_processed += 1
        if self._combiner is not None:
            rewritten = self._combiner.process(StreamTuple(relation, tuple(row)))
            for item in rewritten:
                self._insert_rewritten(item.relation, item.row)
            return
        self._insert_rewritten(relation, tuple(row))

    def _insert_rewritten(self, relation: str, row: tuple) -> bool:
        """Insert one (rewritten) row and sample its delta; ``False`` on a duplicate."""
        if not self.index.insert(relation, row):
            self.duplicates_ignored += 1
            return False
        batch = self.index.delta_batch(relation, row)
        self.reservoir.process_batch(batch)
        return True

    def _absorb(self, relation: str, rows: List[tuple]) -> List[tuple]:
        """Bulk-insert one relation group and sample its delta batches.

        The per-relation step of :meth:`insert_batch`; returns the new
        (non-duplicate) rows.
        """
        new_rows = self.index.insert_rows(relation, rows)
        self.duplicates_ignored += len(rows) - len(new_rows)
        tree = self.index.trees[relation]
        self.reservoir.process_deferred_many(
            tree.delta_batch_sizes(new_rows), tree.delta_batch, new_rows
        )
        return new_rows

    def insert_batch(self, items: Iterable) -> int:
        """Process a chunk of stream tuples through the batched fast path.

        ``items`` is an iterable of :class:`StreamTuple` (or plain
        ``(relation, row)`` pairs) referring to the *original* query's
        relation names.  Returns the number of new (non-duplicate) tuples
        absorbed into the index.

        Semantics: the chunk is grouped by relation and each relation group
        is bulk-inserted before its delta batches are sampled.  Every join
        result first completed by the chunk is offered to the reservoir
        exactly once, so after the call the reservoir is a uniform sample
        without replacement of ``Q(R_i)`` for the stream prefix ending at the
        chunk boundary — the per-prefix guarantee holds at every batch
        boundary rather than after every individual tuple.  For equivalent
        distributions with different randomness, this is interchangeable with
        repeated :meth:`insert`.

        Tuples naming a relation outside the query raise ``KeyError``, and
        rows of the wrong arity raise ``ValueError`` — in both cases before
        any state is modified, so a failed call leaves the sampler untouched.
        """
        pairs = validated_items(items, self.original_query)
        self.tuples_processed += len(pairs)
        if self._combiner is not None:
            rewritten: List = []
            for relation, row in pairs:
                rewritten.extend(
                    (item.relation, item.row)
                    for item in self._combiner.process(StreamTuple(relation, row))
                )
            pairs = rewritten
        groups: Dict[str, List[tuple]] = {}
        for relation, row in pairs:
            groups.setdefault(relation, []).append(row)
        return sum(len(self._absorb(relation, rows)) for relation, rows in groups.items())

    # Alias kept for perfbench/tracing.py, which wraps this attribute by name.
    ingest_columnar = insert_batch

    def process(self, stream: Iterable[StreamTuple]) -> "ReservoirJoin":
        """Process a whole stream of :class:`StreamTuple`; returns ``self``."""
        for item in stream:
            self.insert(item.relation, item.row)
        return self

    def spawn(self, rng: Optional[random.Random] = None) -> "ReservoirJoin":
        """A fresh, empty, identically configured replica driven by ``rng``.

        The replica-cloning capability of the
        :class:`~repro.core.backend.SamplerBackend` protocol:
        :meth:`~repro.ingest.fanout.FanoutIngestor.register_replica` builds
        per-backend samplers through this (and custom shard factories can),
        handing each a derived RNG so replica randomness is independent and
        reproducible.
        """
        return ReservoirJoin(self.original_query, self.k, rng=rng, **self._config)

    # ------------------------------------------------------------------ #
    # Results and statistics
    # ------------------------------------------------------------------ #
    @property
    def sample(self) -> List[Dict[str, object]]:
        """The current reservoir: up to ``k`` join results as attr->value dicts."""
        return self.reservoir.sample

    @property
    def sample_size(self) -> int:
        """Number of join results currently in the reservoir."""
        return len(self.reservoir)

    @property
    def simulated_stream_length(self) -> int:
        """Total length of the simulated join-result stream (real + dummy)."""
        return self.reservoir.items_total

    @property
    def items_examined(self) -> int:
        """How many simulated stream positions were actually retrieved."""
        return self.reservoir.items_examined

    @property
    def propagations(self) -> int:
        """Index propagation-loop executions so far (Figure 9 metric)."""
        return self.index.propagations

    def statistics(self) -> Dict[str, int]:
        """A summary dictionary of the run, used by the benchmark harness."""
        return {
            "tuples_processed": self.tuples_processed,
            "duplicates_ignored": self.duplicates_ignored,
            "stored_tuples": self.index.size,
            "simulated_stream_length": self.simulated_stream_length,
            "items_examined": self.items_examined,
            "sample_size": self.sample_size,
            "propagations": self.propagations,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReservoirJoin({self.original_query.name!r}, k={self.k}, "
            f"N={self.index.size}, |sample|={self.sample_size})"
        )
