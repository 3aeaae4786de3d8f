"""Value-domain differential fuzzing of every ingestion mode.

Rows carry whatever values a stream delivers, not only small ints: ``None``,
``str``, ``bytes``, ints outside the machine word, and the join-equal
triples ``1 == 1.0 == True`` and ``0 == 0.0 == False``.  These tests feed
hypothesis-generated streams over that domain through the per-tuple,
batched, sharded, turnstile, count-window, timestamp-window,
checkpoint-resume and served-read modes and check each sampler against an
independent replay plus enumeration:

* the samplers' local ``count_results`` add up to the reference count;
* each reservoir holds ``min(k, local count)`` distinct real join results;
* ``shard_of`` sends join-equal partition values to one shard;
* a served read (a pickled copy of the ingestor) returns the live
  reservoir value for value and type for type (``1``, ``1.0`` and ``True``
  stay distinct).
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
    SampleServer,
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


def timestamp_window_reference(
    stream, window: int, chunk_size: int
) -> Dict[str, Set[Tuple]]:
    """Independent replay of timestamp-window semantics: a row's stamp is
    the newest timestamp it was ever admitted at, the watermark is the
    newest timestamp seen, and at each chunk boundary every row whose stamp
    is at or behind ``watermark - window`` leaves the window."""
    watermark = 0
    stamps: Dict[Tuple[str, Tuple], int] = {}
    live: Set[Tuple[str, Tuple]] = set()
    pending: Dict[Tuple[str, Tuple], int] = {}
    for start in range(0, len(stream), chunk_size):
        chunk = stream[start:start + chunk_size]
        for item in chunk:  # admission precedes the chunk's inserts/deletes
            if not isinstance(item, StreamDelete):
                key = (item.relation, item.row)
                stamps[key] = max(stamps.get(key, item.timestamp), item.timestamp)
                watermark = max(watermark, item.timestamp)
        for item in chunk:
            key = (item.relation, item.row)
            if isinstance(item, StreamDelete):
                if key in live:
                    live.remove(key)
                else:
                    pending[key] = pending.get(key, 0) + 1
            elif pending.get(key):
                pending[key] -= 1
            else:
                live.add(key)
        for key in [key for key, stamp in stamps.items() if stamp <= watermark - window]:
            del stamps[key]
            live.discard(key)
    grouped: Dict[str, Set[Tuple]] = {}
    for relation, row in live:
        grouped.setdefault(relation, set()).add(row)
    return grouped


@settings(max_examples=60, deadline=None)
@given(CASE, st.lists(st.integers(0, 40), min_size=60, max_size=60))
def test_timestamp_window(case, times):
    query_index, ops, chunk_size = case
    query = QUERIES[query_index]
    # Out-of-order event times: late rows land at or behind the horizon.
    stream = [
        StreamTuple(item.relation, item.row, times[position])
        if isinstance(item, StreamTuple) else item
        for position, item in enumerate(build_stream(query, ops))
    ]
    window = 12
    windowed = WindowedSampler(
        query, K, window=window, rng=random.Random(6), mode="timestamp"
    )
    BatchIngestor(windowed, chunk_size=chunk_size).ingest(stream)
    reference = timestamp_window_reference(stream, window, chunk_size)
    for relation in query.relation_names:
        assert set(windowed.index.database[relation].rows) == reference.get(
            relation, set()
        )
    assert_sampler(windowed, reference_keys(query, reference))


@settings(max_examples=40, deadline=None)
@given(CASE, st.booleans())
def test_served_reads(case, sharded):
    query_index, ops, chunk_size = case
    query = QUERIES[query_index]
    stream = build_stream(query, ops)
    if sharded:
        live = ShardedIngestor(
            query, k=K, num_shards=2, chunk_size=chunk_size, rng=random.Random(7),
            factory=lambda shard, rng: TurnstileReservoirJoin(query, K, rng=rng),
        )
    else:
        live = BatchIngestor(
            TurnstileReservoirJoin(query, K, rng=random.Random(7)),
            chunk_size=chunk_size,
        )
    server = SampleServer(live, rng=random.Random(8))
    for end in range(chunk_size, len(stream) + chunk_size, chunk_size):
        server.ingest_batch(stream[end - chunk_size:end])
        snap = server.snapshot()
        truth = reference_keys(query, surviving_rows(stream[:end]))
        if sharded:
            served = snap.sample(rng=random.Random(end))
            expected = live.merged_sample(rng=random.Random(end))
            assert len(served) == min(K, len(truth))
            assert {result_key(result) for result in served} <= truth
        else:
            served = snap.sample()
            expected = list(live.sampler.sample)
            assert_reservoir(served, len(truth), truth)
        # repr tells 1, 1.0 and True (and b"x" from "x") apart.
        assert repr(served) == repr(expected)


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
