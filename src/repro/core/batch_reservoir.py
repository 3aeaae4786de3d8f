"""Batched reservoir sampling with a predicate (Section 3.3, Algorithms 4/5).

The join sampler feeds the reservoir one *batch* per arriving tuple: the
batch is the (never materialised) delta array ``ΔJ ⊇ ΔQ(R, t)``.  The batched
sampler behaves exactly as if Algorithm 1 ran over the concatenation of all
batches; the only extra machinery is carrying a pending skip count across
batch boundaries (a ``skip(q)`` may run off the end of the current batch).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Generic, List, Optional, TypeVar

from .reservoir import _uniform, geometric_skip
from .skippable import Batch, is_real

T = TypeVar("T")


class BatchedPredicateReservoir(Generic[T]):
    """Algorithms 4 and 5: reservoir sampling with a predicate over batches.

    The sampler is fed item-disjoint batches one at a time through
    :meth:`process_batch` and maintains ``k`` uniform samples without
    replacement over the real items of all batches processed so far.

    Statistics useful for the experiments:

    ``items_total``
        Total (conceptual) length of all batches seen, i.e. the length of the
        simulated join-result stream.
    ``items_examined``
        How many batch positions were actually retrieved — the work that the
        skip mechanism saves is ``items_total - items_examined``.
    ``real_stops``
        How many examined items were real.
    """

    def __init__(
        self,
        k: int,
        predicate: Callable[[T], bool] = is_real,
        rng: Optional[random.Random] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("sample size k must be positive")
        self.k = k
        self.predicate = predicate
        self._rng = rng if rng is not None else random.Random()
        self._sample: List[T] = []
        # w = +inf is the "not yet initialised" sentinel of Algorithm 4 line 1:
        # it is initialised exactly once, the first time the reservoir fills.
        self._w = math.inf
        self._pending_skip = 0
        self.items_total = 0
        self.items_examined = 0
        self.real_stops = 0
        self.batches_processed = 0

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #
    @property
    def sample(self) -> List[T]:
        """The current reservoir (a copy)."""
        return list(self._sample)

    @property
    def is_full(self) -> bool:
        """Whether the reservoir holds ``k`` items."""
        return len(self._sample) >= self.k

    def __len__(self) -> int:
        return len(self._sample)

    def process_deferred(self, size: int, make_batch: Callable[..., Batch[T]], *args) -> None:
        """Fold a batch into the reservoir, constructing it only when needed.

        Semantically identical to ``process_batch(make_batch(*args))`` for a
        batch of ``size`` items, but when the reservoir is already full and
        the pending skip count covers the entire batch, the sampler would not
        stop at any of its positions — so only the counters are updated and
        the batch object is never built.  This is the per-batch fast path of
        the batched ingestion subsystem: once the simulated result stream is
        long, almost every delta batch is skipped wholesale, and avoiding the
        batch construction removes the dominating constant factor.
        """
        if size < 0:
            raise ValueError("batch size must be non-negative")
        if size == 0:
            # An empty batch touches nothing but the batch counter.
            self.batches_processed += 1
            return
        if (
            len(self._sample) >= self.k
            and not math.isinf(self._w)
            and self._pending_skip >= size
        ):
            self.batches_processed += 1
            self.items_total += size
            self._pending_skip -= size
            return
        self.process_batch(make_batch(*args))

    def process_deferred_many(
        self,
        sizes: "List[int]",
        make_batch: Callable[..., Batch[T]],
        args: "List",
    ) -> None:
        """Fold many deferred batches at once (``sizes[i]`` ↔ ``args[i]``).

        Equivalent to calling :meth:`process_deferred` per batch, with the
        skip bookkeeping kept in locals between batches; on the steady-state
        ingestion path almost every batch is skipped wholesale, so this
        turns a method call per stream tuple into plain integer arithmetic.
        """
        if any(size < 0 for size in sizes):
            # Validate before touching any bookkeeping: a bad size mid-loop
            # must not leave the locally accumulated skip state unflushed.
            raise ValueError("batch size must be non-negative")
        k = self.k
        sample = self._sample
        pending = self._pending_skip
        total = self.items_total
        skipped = 0
        w_ready = not math.isinf(self._w)
        for size, arg in zip(sizes, args):
            if size == 0:
                skipped += 1
                continue
            if w_ready and pending >= size and len(sample) >= k:
                skipped += 1
                total += size
                pending -= size
                continue
            # Slow path: flush the locals, materialise and fold this batch,
            # then re-load the (possibly changed) skip state.
            self._pending_skip = pending
            self.items_total = total
            self.batches_processed += skipped
            skipped = 0
            self.process_batch(make_batch(arg))
            pending = self._pending_skip
            total = self.items_total
            w_ready = not math.isinf(self._w)
        self._pending_skip = pending
        self.items_total = total
        self.batches_processed += skipped

    def rebase_population(self, sample: "List[T]", population_size: int) -> None:
        """Replace the reservoir after an out-of-band population change.

        Deletions shrink the *population* the reservoir is supposed to be a
        uniform sample of — something the insert-only Algorithm 4/5 state
        machine has no transition for.  The turnstile sampler evicts dead
        items, refills ``sample`` to ``min(k, population_size)`` uniformly
        from the survivors, and hands both here; this method installs the new
        reservoir and *re-anchors* the skip state so the sampler behaves, from
        now on, exactly like a fresh Algorithm 4 run that had seen precisely
        the surviving population:

        * ``population_size >= k`` — after ``r`` real items, Algorithm 4's
          running ``w`` is the ``k``-th largest of ``r`` i.i.d. uniforms,
          i.e. ``Beta(k, r - k + 1)``, *independent of which items occupy the
          reservoir*.  So ``w`` is redrawn from ``Beta(k, m' - k + 1)`` with
          ``m' = population_size`` and a fresh geometric skip is taken.  (At
          ``m' = k`` this is ``Beta(k, 1)``, the ``u^(1/k)`` the first-fill
          initialisation uses — the two anchors agree on the boundary.)
        * ``population_size < k`` — the reservoir now holds the *entire*
          surviving population, which is the fill-phase invariant; ``w``
          returns to the uninitialised sentinel and the skip resets, so
          subsequent arrivals are appended until the reservoir refills.
        """
        if population_size < 0:
            raise ValueError("population size must be non-negative")
        expected = min(self.k, population_size)
        if len(sample) != expected:
            raise ValueError(
                f"rebased reservoir must hold min(k, population) = {expected} "
                f"items, got {len(sample)}"
            )
        self._sample = list(sample)
        if population_size >= self.k:
            self._w = self._rng.betavariate(self.k, population_size - self.k + 1)
            self._pending_skip = geometric_skip(self._w, self._rng)
        else:
            self._w = math.inf
            self._pending_skip = 0

    def process_batch(self, batch: Batch[T]) -> None:
        """Algorithm 5 (``BatchUpdate``): fold one batch into the reservoir."""
        self.batches_processed += 1
        self.items_total += len(batch)
        # Fill phase: while the reservoir is not yet full, every item must be
        # examined (nothing can be skipped safely).
        while len(self._sample) < self.k and batch.remain() > 0:
            item = batch.next()
            self.items_examined += 1
            if self.predicate(item):
                self.real_stops += 1
                self._sample.append(item)
        if len(self._sample) < self.k:
            return
        if math.isinf(self._w):
            # First time the reservoir is full: initialise w and the skip.
            self._w = _uniform(self._rng) ** (1.0 / self.k)
            self._pending_skip = geometric_skip(self._w, self._rng)
        # Skip phase within this batch.
        while batch.remain() > self._pending_skip:
            item = batch.skip(self._pending_skip)
            self.items_examined += 1
            if self.predicate(item):
                self.real_stops += 1
                self._sample[self._rng.randrange(self.k)] = item
                self._w *= _uniform(self._rng) ** (1.0 / self.k)
            self._pending_skip = geometric_skip(self._w, self._rng)
        # The remaining items of the batch are all skipped; carry the
        # outstanding skip count over to the next batch.
        self._pending_skip -= batch.remain()
