"""Value-domain differential fuzzing of every ingestion mode.

Rows carry whatever values a stream delivers, not only small ints: ``None``,
``str``, ``bytes``, ints outside the machine word, and the join-equal
triples ``1 == 1.0 == True`` and ``0 == 0.0 == False``.  These tests feed
hypothesis-generated streams over that domain through the per-tuple,
batched, sharded, turnstile, count-window and checkpoint-resume modes and
check each sampler against an independent replay plus enumeration:

* the samplers' local ``count_results`` add up to the reference count;
* each reservoir holds ``min(k, local count)`` distinct real join results;
* ``shard_of`` sends join-equal partition values to one shard.
"""

from __future__ import annotations

import os
import random
import tempfile
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchIngestor,
    JoinQuery,
    ReservoirJoin,
    ShardedIngestor,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    surviving_rows,
)
from repro.ingest.shard import exact_result_count, stable_shard_hash
from repro.relational import Database, count_results
from repro.relational.join import join_results
from repro.stats.uniformity import result_key

from tests.test_turnstile import windowed_reference

QUERIES = [
    JoinQuery.from_spec("two", {"R": ["a", "b"], "S": ["b", "c"]}),
    JoinQuery.from_spec("chain3", {"R": ["a", "b"], "S": ["b", "c"], "T": ["c", "d"]}),
]

VALUES = [
    None, "", "x", b"x", 2 ** 63, -(2 ** 63) - 1,
    1, 1.0, True, 0, 0.0, False,
]
JOIN_EQUAL = [(1, 1.0, True), (0, 0.0, False)]
K = 4

OPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 2]),
        st.integers(0, 11),
        st.tuples(*[st.integers(0, len(VALUES) - 1)] * 2),
    ),
    min_size=1,
    max_size=60,
)
CASE = st.tuples(st.integers(0, len(QUERIES) - 1), OPS, st.sampled_from([1, 3, 16]))


def build_stream(query: JoinQuery, ops) -> list:
    """Hypothesis draws as a turnstile stream: inserts, retractions of an
    earlier insert, and retractions of a fresh row (tombstones)."""
    names = query.relation_names
    stream: list = []
    inserted: list = []
    for ts, (kind, pick, values) in enumerate(ops, start=1):
        relation = names[pick % len(names)]
        row = tuple(VALUES[v] for v in values)
        if kind == 0:
            stream.append(StreamTuple(relation, row, ts))
            inserted.append((relation, row))
        elif kind == 1 and inserted:
            stream.append(StreamDelete(*inserted[pick % len(inserted)]))
        else:
            stream.append(StreamDelete(relation, row))
    return stream


def reference_keys(query: JoinQuery, rows: Dict[str, Set[Tuple]]) -> Set[Tuple]:
    database = Database(query)
    for relation, relation_rows in rows.items():
        for row in relation_rows:
            database.insert(relation, row)
    return {result_key(result) for result in join_results(query, database)}


def local_count(sampler) -> int:
    return count_results(sampler.index.query, sampler.index.database)


def assert_reservoir(sample: List[dict], count: int, truth: Set[Tuple]) -> None:
    keys = [result_key(result) for result in sample]
    assert len(keys) == min(K, count)
    assert len(set(keys)) == len(keys)
    assert set(keys) <= truth


def assert_sampler(sampler, truth: Set[Tuple]) -> None:
    count = local_count(sampler)
    assert count == len(truth)
    assert_reservoir(sampler.sample, count, truth)


def inserts_of(stream: list) -> list:
    return [item for item in stream if not isinstance(item, StreamDelete)]


@settings(max_examples=60, deadline=None)
@given(CASE)
def test_per_tuple_and_batched(case):
    query_index, ops, chunk_size = case
    query = QUERIES[query_index]
    stream = inserts_of(build_stream(query, ops))
    truth = reference_keys(query, surviving_rows(stream))
    per_tuple = ReservoirJoin(query, K, rng=random.Random(1))
    for item in stream:
        per_tuple.insert(item.relation, item.row)
    assert_sampler(per_tuple, truth)
    batched = ReservoirJoin(query, K, rng=random.Random(1))
    BatchIngestor(batched, chunk_size=chunk_size).ingest(stream)
    assert_sampler(batched, truth)


@settings(max_examples=60, deadline=None)
@given(CASE)
def test_turnstile_and_count_window(case):
    query_index, ops, chunk_size = case
    query = QUERIES[query_index]
    stream = build_stream(query, ops)
    turnstile = TurnstileReservoirJoin(query, K, rng=random.Random(2))
    BatchIngestor(turnstile, chunk_size=chunk_size).ingest(stream)
    assert_sampler(turnstile, reference_keys(query, surviving_rows(stream)))
    window = 12
    windowed = WindowedSampler(query, K, window=window, rng=random.Random(3))
    BatchIngestor(windowed, chunk_size=chunk_size).ingest(stream)
    assert_sampler(
        windowed, reference_keys(query, windowed_reference(stream, window, chunk_size))
    )


@settings(max_examples=60, deadline=None)
@given(CASE, st.sampled_from([2, 3]))
def test_sharded_counts_tile_the_reference(case, num_shards):
    query_index, ops, chunk_size = case
    query = QUERIES[query_index]
    stream = build_stream(query, ops)
    truth = reference_keys(query, surviving_rows(stream))
    ingestor = ShardedIngestor(
        query, k=K, num_shards=num_shards, chunk_size=chunk_size,
        rng=random.Random(4),
        factory=lambda shard, rng: TurnstileReservoirJoin(query, K, rng=rng),
    )
    ingestor.ingest(stream)
    survivors = surviving_rows(stream)
    for shard, sampler in enumerate(ingestor.samplers):
        for relation in query.relation_names:
            assert set(sampler.index.database[relation].rows) == {
                row for row in survivors.get(relation, ())
                if ingestor.shard_of(relation, row) in (None, shard)
            }
    counts = [exact_result_count(sampler) for sampler in ingestor.samplers]
    assert sum(counts) == len(truth)
    for sampler, count in zip(ingestor.samplers, counts):
        assert_reservoir(sampler.sample, count, truth)


@settings(max_examples=40, deadline=None)
@given(CASE, st.floats(0.0, 1.0))
def test_checkpoint_resume(case, where):
    query_index, ops, chunk_size = case
    query = QUERIES[query_index]
    stream = build_stream(query, ops)
    cut = int(len(stream) * where)

    def build():
        sampler = TurnstileReservoirJoin(query, K, rng=random.Random(5))
        return BatchIngestor(sampler, chunk_size=chunk_size)

    uninterrupted = build()
    uninterrupted.ingest(stream[:cut])
    uninterrupted.ingest(stream[cut:])
    first = build()
    first.ingest(stream[:cut])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.ckpt")
        first.save(path)
        resumed = BatchIngestor.restore(path)
    resumed.ingest(stream[cut:])
    assert_sampler(resumed.sampler, reference_keys(query, surviving_rows(stream)))
    assert list(resumed.sampler.sample) == list(uninterrupted.sampler.sample)


def test_shard_of_keeps_join_equal_values_together():
    query = QUERIES[1]

    def shard_of(ingestor, relation, row):
        # Join-equal keys share one memo entry, which would mask a digest
        # that told them apart; route each row from a cold cache.
        stable_shard_hash.cache_clear()
        return ingestor.shard_of(relation, row)

    for num_shards in (2, 3, 5, 8):
        ingestor = ShardedIngestor(query, k=K, num_shards=num_shards, partition_attr="b")
        for group in JOIN_EQUAL:
            shards = {shard_of(ingestor, "R", ("x", value)) for value in group}
            shards |= {shard_of(ingestor, "S", (value, None)) for value in group}
            assert len(shards) == 1 and None not in shards
        for value in VALUES:
            assert shard_of(ingestor, "R", (None, value)) == shard_of(
                ingestor, "S", (value, b"x")
            )
