"""Degree buckets Φ_{i,e}(t) and per-key bucket families (Section 4.3).

For every (rooted tree, node ``e``, key tuple ``t``) the index organises the
*entities* below that key — full tuples of ``R_e ⋉ t``, or group tuples when
the grouping optimisation is active — into buckets by their power-of-two
weight: bucket ``i`` holds the entities whose weight is ``2^i``.  The family
also maintains

* ``cnt`` — the exact sum of entity weights, i.e. the paper's ``cnt[T, e, t]``;
* ``approx`` — ``c̃nt[T, e, t] = 2^⌈log2 cnt⌉``.

Buckets support O(1) insertion, O(1) removal (swap-with-last) and O(1)
positional access, and the family can map a position ``z ∈ [0, cnt)`` to the
entity whose weight range contains ``z`` in ``O(log N)`` time (there are at
most ``O(log N)`` non-empty buckets per family).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .counters import is_pow2, next_pow2, pow2_exponent


class Bucket:
    """An indexable set of entities with O(1) insert/remove/position access."""

    __slots__ = ("_items", "_positions")

    def __init__(self) -> None:
        self._items: List[Tuple] = []
        self._positions: Dict[Tuple, int] = {}

    def add(self, entity: Tuple) -> None:
        """Add an entity (must not already be present)."""
        if entity in self._positions:
            raise ValueError(f"entity {entity!r} already present in bucket")
        self._positions[entity] = len(self._items)
        self._items.append(entity)

    def remove(self, entity: Tuple) -> None:
        """Remove an entity in O(1) by swapping it with the last one."""
        position = self._positions.pop(entity)
        last = self._items.pop()
        if position < len(self._items):
            self._items[position] = last
            self._positions[last] = position

    def at(self, position: int) -> Tuple:
        """The entity currently stored at ``position``."""
        return self._items[position]

    def __contains__(self, entity: Tuple) -> bool:
        return entity in self._positions

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._items)


class BucketFamily:
    """All buckets of one (node, key tuple) pair, plus its ``cnt``/``c̃nt``."""

    __slots__ = ("cnt", "approx", "_buckets")

    def __init__(self) -> None:
        self.cnt = 0
        self.approx = 0
        self._buckets: Dict[int, Bucket] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def move(self, entity: Tuple, old_weight: int, new_weight: int) -> Tuple[int, int]:
        """Re-weight an entity; returns ``(old_approx, new_approx)`` of ``cnt``.

        ``old_weight == 0`` means the entity is not yet present; a
        ``new_weight`` of 0 removes it from all buckets.  Weights must be
        powers of two (or zero), which is guaranteed by the index because
        every factor of a weight is an approximate (power-of-two) counter.
        """
        if old_weight == new_weight:
            return self.approx, self.approx
        if old_weight:
            self._remove(entity, old_weight)
        if new_weight:
            self._add(entity, new_weight)
        old_approx = self.approx
        self.cnt += new_weight - old_weight
        if self.cnt < 0:
            raise ValueError("bucket family count became negative")
        self.approx = next_pow2(self.cnt)
        return old_approx, self.approx

    def reweight_one(self, entity: Tuple, old_weight: int, new_weight: int) -> None:
        """:meth:`move` with the bucket bookkeeping flattened (no sub-calls).

        Trusted internal fast path for the bulk propagation loop: weights
        must already be powers of two (or zero) and ``old_weight`` must match
        the entity's current bucket — both guaranteed by the index invariants
        the caller maintains.
        """
        buckets = self._buckets
        if old_weight:
            exponent = old_weight.bit_length() - 1
            bucket = buckets[exponent]
            positions = bucket._positions
            items = bucket._items
            position = positions.pop(entity)
            last = items.pop()
            if position < len(items):
                items[position] = last
                positions[last] = position
            if not items:
                del buckets[exponent]
        if new_weight:
            exponent = new_weight.bit_length() - 1
            bucket = buckets.get(exponent)
            if bucket is None:
                bucket = Bucket()
                buckets[exponent] = bucket
            positions = bucket._positions
            items = bucket._items
            positions[entity] = len(items)
            items.append(entity)
        count = self.cnt + new_weight - old_weight
        self.cnt = count
        self.approx = (1 << (count - 1).bit_length()) if count else 0

    def _add(self, entity: Tuple, weight: int) -> None:
        if not is_pow2(weight):
            raise ValueError(f"bucket weights must be powers of two, got {weight}")
        exponent = pow2_exponent(weight)
        bucket = self._buckets.get(exponent)
        if bucket is None:
            bucket = Bucket()
            self._buckets[exponent] = bucket
        bucket.add(entity)

    def _remove(self, entity: Tuple, weight: int) -> None:
        exponent = pow2_exponent(weight)
        bucket = self._buckets[exponent]
        bucket.remove(entity)
        if not bucket:
            del self._buckets[exponent]

    # ------------------------------------------------------------------ #
    # Position mapping (the core of Retrieve, Algorithm 9 Case 3)
    # ------------------------------------------------------------------ #
    def locate(self, position: int) -> Optional[Tuple[Tuple, int]]:
        """Map ``position`` to ``(entity, offset_within_entity)``.

        Positions are laid out bucket by bucket (ascending weight exponent),
        entity by entity within a bucket, each entity spanning ``2^i``
        consecutive positions.  Returns ``None`` when ``position >= cnt``
        (a dummy position introduced by the ``c̃nt`` padding one level up).
        """
        if position < 0:
            raise ValueError("positions must be non-negative")
        if position >= self.cnt:
            return None
        remaining = position
        for exponent in sorted(self._buckets):
            bucket = self._buckets[exponent]
            span = len(bucket) << exponent
            if remaining < span:
                entity_index = remaining >> exponent
                offset = remaining - (entity_index << exponent)
                return bucket.at(entity_index), offset
            remaining -= span
        # Unreachable if cnt is consistent with the bucket contents.
        raise AssertionError("bucket family count is inconsistent with its buckets")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def bucket_sizes(self) -> Dict[int, int]:
        """``{exponent: number of entities}`` for the non-empty buckets."""
        return {exponent: len(bucket) for exponent, bucket in self._buckets.items()}

    def total_entities(self) -> int:
        """Number of entities across all buckets."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def weight_sum(self) -> int:
        """Recompute Σ 2^i·|Φ_i| from scratch (must equal ``cnt``; test hook)."""
        return sum(len(bucket) << exponent for exponent, bucket in self._buckets.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BucketFamily(cnt={self.cnt}, approx={self.approx}, buckets={self.bucket_sizes()})"
