"""Tests for the sharded ingestion subsystem (``repro.ingest.shard``).

Covers routing (partition attribute choice, stable hashing, broadcast),
all-or-nothing batch validation across shards, the exact-count weighted
merge, the parallel ingestion path, and the documented error behaviour.
The statistical properties (uniformity of ``merged_sample``) live in
``tests/statistical/``.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    ShardedIngestor,
    StreamTuple,
    TurnstileReservoirJoin,
)
from repro.ingest.shard import (
    exact_result_count,
    partition_attribute,
    route_rows,
    stable_shard_hash,
)
from repro.relational.schema import tuple_getter
from repro.relational.stream import StreamDelete
from repro.stats.uniformity import result_key

from tests.conftest import ground_truth_keys, make_edges, make_graph_stream


def line3_stream(query, n, seed, domain=10):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(rng.choice(names), (rng.randrange(domain), rng.randrange(domain)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------- #
# Routing
# ---------------------------------------------------------------------- #
class TestRouting:
    def test_partition_attribute_prefers_max_coverage(self, line3_query, star3_query):
        # chain-3: every attribute is in at most two relations; canonical
        # order breaks the tie deterministically.
        assert partition_attribute(line3_query) == "x2"
        # star-3: the hub attribute is in every relation.
        assert partition_attribute(star3_query) == "x0"

    def test_star_query_has_no_broadcast(self, star3_query):
        ingestor = ShardedIngestor(star3_query, k=5, num_shards=4)
        assert ingestor.broadcast_relations == ()
        stream = [StreamTuple("R1", (1, 2)), StreamTuple("R2", (1, 3))]
        parts = ingestor.partition(stream)
        assert sum(len(part) for part in parts) == 2

    def test_chain_query_broadcasts_uncovered_relation(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=3)
        assert ingestor.broadcast_relations == ("R3",)
        parts = ingestor.partition([("R3", (1, 2))])
        assert all(part == [("R3", (1, 2))] for part in parts)

    def test_shard_of_is_deterministic_and_in_range(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=5)
        for row in [(0, 0), (1, 2), (3, 99)]:
            shard = ingestor.shard_of("R1", row)
            assert 0 <= shard < 5
            assert shard == ingestor.shard_of("R1", row)
        assert ingestor.shard_of("R3", (1, 2)) is None  # broadcast
        with pytest.raises(KeyError):
            ingestor.shard_of("NOPE", (1, 2))

    def test_join_partners_land_on_the_same_shard(self, line3_query):
        # R1 and R2 share the partition attribute x2: rows agreeing on x2
        # must co-locate, whatever their other values.
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=4)
        for x2 in range(20):
            assert ingestor.shard_of("R1", (x2 + 7, x2)) == ingestor.shard_of(
                "R2", (x2, x2 + 3)
            )

    def test_stable_hash_is_process_independent(self):
        assert stable_shard_hash((1,)) == stable_shard_hash((1,))
        assert stable_shard_hash(("a",)) != stable_shard_hash(("b",))
        # Strings must not go through the per-process-salted builtin hash:
        # the same value re-hashed under a different PYTHONHASHSEED (here:
        # simulated by a subprocess) must land on the same shard.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.ingest.shard import stable_shard_hash; "
            "print(stable_shard_hash(('user-42', 7, None)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert int(out.stdout) == stable_shard_hash(("user-42", 7, None))

    def test_stable_hash_consistent_with_join_equality(self):
        """Join-equal values of different numeric types must co-locate.

        The join indexes compare with ``==`` (1 == 1.0 == True), so the
        router must agree or cross-type join results silently vanish from
        every shard.
        """
        # The digest itself, past the memo: join-equal keys share a cache
        # entry, which would mask a digest that told them apart.
        digest = stable_shard_hash.__wrapped__
        assert digest((1,)) == digest((1.0,))
        assert digest((1,)) == digest((True,))
        assert digest((0,)) == digest((0.0,))

    def test_cross_type_join_results_are_not_lost(self):
        """Regression: int on one side, float on the other, same join value."""
        query = JoinQuery.from_spec("two", {"R1": ["x", "y"], "R2": ["y", "z"]})
        stream = [("R1", (5, 1)), ("R2", (1.0, 7))]
        unsharded = ReservoirJoin(query, 10, rng=random.Random(0))
        unsharded.insert_batch(stream)
        assert unsharded.sample_size == 1
        for num_shards in (2, 4, 7):
            ingestor = ShardedIngestor(
                query, k=10, num_shards=num_shards, rng=random.Random(0)
            )
            ingestor.ingest_batch(stream)
            assert ingestor.total_results() == 1
            assert len(ingestor.merged_sample()) == 1

    def test_explicit_partition_attr_validated(self, line3_query):
        with pytest.raises(ValueError):
            ShardedIngestor(line3_query, k=5, partition_attr="nope")
        ingestor = ShardedIngestor(line3_query, k=5, partition_attr="x3")
        assert ingestor.broadcast_relations == ("R1",)


class TestRouteRows:
    """``route_rows`` is the one routing rule; ``shard_of`` and the chunk
    splitter must agree with it tuple for tuple."""

    def _getters(self, query, attr="x2"):
        return {
            schema.name: tuple_getter(schema.positions_of((attr,)))
            for schema in query.relations
            if attr in schema.attrs
        }

    def test_shard_of_agrees_with_route_rows(self, line3_query):
        ingestor = ShardedIngestor(
            line3_query, k=5, num_shards=4, chunk_size=16, rng=random.Random(0)
        )
        stream = line3_stream(line3_query, 48, seed=3)
        assignments = route_rows(stream, self._getters(line3_query), 4)
        assert len(assignments) == len(stream)
        for item, assignment in zip(stream, assignments):
            expected = None if assignment < 0 else assignment
            assert ingestor.shard_of(item.relation, item.row) == expected

    def test_broadcast_relations_route_to_minus_one(self, line3_query):
        assignments = route_rows(
            [("R3", (1, 2))] * 32, self._getters(line3_query), 4
        )
        assert assignments == [-1] * 32

    def test_mixed_chunk_splits_like_shard_of(self, line3_query):
        """A mixed insert/delete chunk lands in the same per-shard parts,
        in stream order, as routing each item through ``shard_of``;
        retractions pass through as ``StreamDelete`` objects."""
        ingestor = ShardedIngestor(
            line3_query, k=5, num_shards=3, rng=random.Random(0),
            factory=lambda shard, r: TurnstileReservoirJoin(line3_query, 5, rng=r),
        )
        rng = random.Random(8)
        chunk = []
        for item in line3_stream(line3_query, 60, seed=8, domain=6):
            chunk.append(item if rng.random() < 0.6 else StreamDelete(item.relation, item.row))
        chunk.append(("R1", [4, 5]))  # plain pair with a list row
        expected = [[] for _ in range(3)]
        for item in chunk:
            if isinstance(item, tuple):  # the plain pair
                relation, row = item[0], tuple(item[1])
            else:
                relation, row = item.relation, item.row
            payload = item if isinstance(item, StreamDelete) else (relation, row)
            shard = ingestor.shard_of(relation, row)
            for index in range(3) if shard is None else (shard,):
                expected[index].append(payload)
        assert ingestor.partition(chunk) == expected
        assert ingestor.take_last_assignments() is None  # partition records nothing
        ingestor.ingest_batch(chunk)
        assert ingestor.take_last_assignments() is None  # never for mixed chunks


# ---------------------------------------------------------------------- #
# Ingestion and validation
# ---------------------------------------------------------------------- #
class TestIngestion:
    def test_counters_and_statistics(self, line3_query):
        stream = line3_stream(line3_query, 60, seed=3)
        ingestor = ShardedIngestor(
            line3_query, k=5, num_shards=4, chunk_size=16, rng=random.Random(0)
        )
        ingestor.ingest(stream)
        stats = ingestor.statistics()
        assert stats["tuples_ingested"] == 60
        assert stats["batches_ingested"] == 4  # 16+16+16+12
        r3_tuples = sum(1 for item in stream if item.relation == "R3")
        assert stats["broadcast_deliveries"] == 3 * r3_tuples
        assert sum(stats["shard_tuples"]) == 60 + stats["broadcast_deliveries"]
        assert stats["parallel"] is False

    def test_partition_is_side_effect_free(self, line3_query):
        # Inspecting routing must not advance the delivery counters; only
        # actual ingestion (the delivery point) counts, exactly once.
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=3, rng=random.Random(0))
        chunk = [("R1", (1, 2)), ("R3", (3, 4))]
        ingestor.partition(chunk)
        ingestor.partition(chunk)
        assert ingestor.statistics()["relation_deliveries"] == {"R1": 0, "R2": 0, "R3": 0}
        ingestor.ingest_batch(chunk)
        assert ingestor.statistics()["relation_deliveries"] == {"R1": 1, "R2": 0, "R3": 1}

    def test_bad_tuple_leaves_every_shard_untouched(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=3, rng=random.Random(0))
        ingestor.ingest_batch([("R1", (1, 2))])
        with pytest.raises(KeyError):
            ingestor.ingest_batch([("R2", (2, 3)), ("NOPE", (0, 0))])
        with pytest.raises(ValueError):
            ingestor.ingest_batch([("R2", (2, 3)), ("R1", (1, 2, 3))])
        # Validation ran before any shard ingested: only the first batch is in.
        assert ingestor.tuples_ingested == 1
        assert sum(s.tuples_processed for s in ingestor.samplers) == 1

    def test_invalid_construction(self, line3_query):
        with pytest.raises(ValueError):
            ShardedIngestor(line3_query, k=0)
        with pytest.raises(ValueError):
            ShardedIngestor(line3_query, k=5, num_shards=0)

    def test_empty_batch_is_noop(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=2)
        assert ingestor.ingest_batch([]) == 0
        assert ingestor.batches_ingested == 0
        assert ingestor.merged_sample() == []


# ---------------------------------------------------------------------- #
# The exact-count weighted merge
# ---------------------------------------------------------------------- #
class TestMergedSample:
    def test_oversized_reservoir_returns_the_whole_join(self, line3_query):
        edges = make_edges(8, 24, seed=11)
        stream = make_graph_stream(line3_query, edges, seed=12)
        truth = ground_truth_keys(line3_query, stream)
        ingestor = ShardedIngestor(
            line3_query, k=len(truth) + 5, num_shards=4, chunk_size=16,
            rng=random.Random(1),
        )
        ingestor.ingest(stream)
        assert {result_key(r) for r in ingestor.merged_sample()} == truth
        assert ingestor.total_results() == len(truth)

    def test_shard_counts_tile_the_global_join(self, line3_query):
        stream = line3_stream(line3_query, 150, seed=13, domain=6)
        truth = ground_truth_keys(line3_query, stream)
        ingestor = ShardedIngestor(
            line3_query, k=4, num_shards=3, chunk_size=32, rng=random.Random(2)
        )
        ingestor.ingest(stream)
        assert sum(ingestor.shard_counts()) == len(truth)

    def test_small_k_size_and_containment(self, line3_query):
        stream = line3_stream(line3_query, 150, seed=17, domain=6)
        truth = ground_truth_keys(line3_query, stream)
        assert len(truth) > 10
        ingestor = ShardedIngestor(
            line3_query, k=6, num_shards=4, chunk_size=32, rng=random.Random(3)
        )
        ingestor.ingest(stream)
        for _ in range(5):  # repeated draws from the same shard state
            sample = ingestor.merged_sample()
            assert len(sample) == 6
            keys = {result_key(r) for r in sample}
            assert len(keys) == 6  # without replacement
            assert keys <= truth

    def test_explicit_k_and_rng(self, line3_query):
        stream = line3_stream(line3_query, 120, seed=19, domain=6)
        ingestor = ShardedIngestor(
            line3_query, k=8, num_shards=2, chunk_size=32, rng=random.Random(4)
        )
        ingestor.ingest(stream)
        a = ingestor.merged_sample(k=3, rng=random.Random(42))
        b = ingestor.merged_sample(k=3, rng=random.Random(42))
        assert [result_key(r) for r in a] == [result_key(r) for r in b]
        with pytest.raises(ValueError):
            ingestor.merged_sample(k=0)

    def test_k_beyond_capacity_rejected_only_when_a_shard_overflows(self, line3_query):
        stream = line3_stream(line3_query, 200, seed=23, domain=5)
        ingestor = ShardedIngestor(
            line3_query, k=3, num_shards=2, chunk_size=64, rng=random.Random(5)
        )
        ingestor.ingest(stream)
        assert any(c > 3 for c in ingestor.shard_counts())  # shards overflow k
        with pytest.raises(ValueError):
            ingestor.merged_sample(k=10)

    def test_cyclic_replicas_via_custom_factory(self, triangle_query):
        """Sharding works for cyclic samplers too (exact counts via bag join)."""
        edges = make_edges(7, 20, seed=29)
        stream = make_graph_stream(triangle_query, edges, seed=31)
        truth = ground_truth_keys(triangle_query, stream)
        if not truth:
            pytest.skip("no triangles in this random instance")
        k_all = len(truth) + 3
        ingestor = ShardedIngestor(
            triangle_query,
            k=k_all,
            num_shards=3,
            chunk_size=16,
            factory=lambda shard, rng: CyclicReservoirJoin(triangle_query, k_all, rng=rng),
            rng=random.Random(6),
        )
        ingestor.ingest(stream)
        assert {result_key(r) for r in ingestor.merged_sample()} == truth

    def test_exact_result_count_requires_an_index(self):
        with pytest.raises(TypeError):
            exact_result_count(object())


# ---------------------------------------------------------------------- #
# Parallel ingestion
# ---------------------------------------------------------------------- #
class TestParallel:
    def test_parallel_matches_serial_shard_state(self, line3_query):
        edges = make_edges(8, 20, seed=37)
        stream = make_graph_stream(line3_query, edges, seed=41)
        serial = ShardedIngestor(
            line3_query, k=50, num_shards=3, chunk_size=16, rng=random.Random(7)
        )
        serial.ingest(stream)
        parallel = ShardedIngestor(
            line3_query, k=50, num_shards=3, chunk_size=16, rng=random.Random(7)
        )
        parallel.ingest_parallel(stream, processes=2)
        # Same derived seeds, same partitions: identical exact counts, the
        # same ingestion counters, and the same global result set behind
        # the merged samples.
        assert parallel.shard_counts() == serial.shard_counts()
        for counter in ("tuples_ingested", "batches_ingested", "broadcast_deliveries", "shard_tuples"):
            assert parallel.statistics()[counter] == serial.statistics()[counter], counter
        truth = ground_truth_keys(line3_query, stream)
        k_all = len(truth) + 5
        full_serial = ShardedIngestor(
            line3_query, k=k_all, num_shards=3, rng=random.Random(8)
        ).ingest(stream)
        full_parallel = ShardedIngestor(
            line3_query, k=k_all, num_shards=3, rng=random.Random(8)
        ).ingest_parallel(stream, processes=2)
        assert (
            {result_key(r) for r in full_parallel.merged_sample()}
            == {result_key(r) for r in full_serial.merged_sample()}
            == truth
        )

    def test_nonpositive_process_count_rejected(self, line3_query):
        # Regression: processes=0 used to fall through `processes or ...`
        # to the default worker count instead of being rejected.
        stream = line3_stream(line3_query, 20, seed=43)
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=2, rng=random.Random(9))
        for bad in (0, -1, -8):
            with pytest.raises(ValueError, match="processes must be positive"):
                ingestor.ingest_parallel(stream, processes=bad)
            with pytest.raises(ValueError, match="processes must be positive"):
                ingestor.start_pool(processes=bad)
        assert not ingestor.pool_active  # nothing was spawned on the way

    def test_empty_stream_short_circuits_without_a_pool(self, line3_query):
        # Regression: the old path spawned a full worker pool even when the
        # stream had nothing in it.
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=2, rng=random.Random(9))
        assert ingestor.ingest_parallel([]) is ingestor
        assert not ingestor.pool_active
        assert ingestor.tuples_ingested == 0
        assert ingestor.batches_ingested == 0

    def test_pool_stays_live_for_further_ingestion(self, line3_query):
        # The persistent pool kills the old finalisation semantics: after
        # ingest_parallel the ingestor accepts more chunks, more parallel
        # streams, and live merged_sample reads — matching a serial twin.
        stream = line3_stream(line3_query, 80, seed=43)
        serial = ShardedIngestor(
            line3_query, k=10, num_shards=2, chunk_size=16, rng=random.Random(9)
        )
        parallel = ShardedIngestor(
            line3_query, k=10, num_shards=2, chunk_size=16, rng=random.Random(9)
        )
        parallel.ingest_parallel(stream[:40], processes=2)
        serial.ingest(stream[:40])
        assert parallel.pool_active
        parallel.ingest_batch(stream[40:60])
        serial.ingest_batch(stream[40:60])
        parallel.ingest_parallel(stream[60:])
        serial.ingest(stream[60:])
        assert parallel.shard_samples() == serial.shard_samples()
        assert parallel.shard_counts() == serial.shard_counts()
        parallel.close_pool()

    def test_statistics_report_measured_parallel_timings(self, line3_query):
        # Regression: the one-shot pool reported critical_path_seconds and
        # shard_busy_seconds as None after parallel ingestion; the worker
        # pool ships measured per-chunk busy seconds back with its acks.
        stream = line3_stream(line3_query, 120, seed=47)
        ingestor = ShardedIngestor(
            line3_query, k=5, num_shards=2, chunk_size=16, rng=random.Random(10)
        )
        ingestor.ingest_parallel(stream, processes=2)
        stats = ingestor.statistics()
        assert stats["parallel"] is True
        assert stats["parallel_wall_seconds"] > 0.0
        assert stats["pool_startup_seconds"] > 0.0
        assert stats["critical_path_seconds"] > 0.0
        assert len(stats["shard_busy_seconds"]) == 2
        assert sum(stats["shard_busy_seconds"]) > 0.0
        assert stats["partition_seconds"] >= 0.0
        pool_stats = stats["pool"]
        assert pool_stats["workers"] == 2
        assert pool_stats["poisoned"] is False
        assert sum(pool_stats["chunks_shipped"]) >= 8  # 120 tuples / 16
        ingestor.close_pool()
        # After adoption the figures survive on the in-process engine.
        closed = ingestor.statistics()
        assert closed["parallel"] is False
        assert closed["critical_path_seconds"] == stats["critical_path_seconds"]
