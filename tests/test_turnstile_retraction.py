"""The turnstile sampler's incremental retraction path against the full recount.

:class:`~repro.core.turnstile.TurnstileReservoirJoin` keeps the exact
surviving-join count up to date with delta counts and evicts only the
results a delete-run kills.  These tests pin that path to the reference it
replaced — recount the whole database after every delete-run and re-check
every held result against it — bit for bit, in sample and in RNG state,
over hypothesis-generated turnstile streams (chunked, per-tuple,
``delete_batch`` runs, and both window modes).  They also check the
maintained count against :func:`~repro.relational.join.count_results` after
every chunk, and that ingestion never calls the full recount.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinQuery, StreamDelete, StreamTuple, TurnstileReservoirJoin, WindowedSampler
from repro.core.backend import restore_backend, snapshot_backend
from repro.relational.join import count_results


QUERIES = [
    JoinQuery.from_spec("two", {"R": ["a", "b"], "S": ["b", "c"]}),
    JoinQuery.from_spec("chain3", {"R": ["a", "b"], "S": ["b", "c"], "T": ["c", "d"]}),
    JoinQuery.from_spec("star", {"R": ["x", "a"], "S": ["x", "b"], "T": ["x", "c"]}),
]

#: Includes ``1 == 1.0 == True``: hash-equal rows must retract each other on
#: both paths alike.
VALUES = [0, 1, 2, 1.0, True]


class RecountTurnstile(TurnstileReservoirJoin):
    """The full-recount, full-scan retraction path, kept as the reference.

    After every delete-run it recounts the whole database with
    ``count_results`` and re-checks every held result against the stored
    relations, exactly as the sampler did before it maintained the count.
    """

    def _resample_after_deletes(self, killed: Dict[str, Set[tuple]]) -> None:
        population = count_results(self.query, self.index.database)
        held: set = set()
        live: List[dict] = []
        for result in self.reservoir.sample:
            if self._result_alive(result):
                live.append(result)
                held.add(tuple(sorted(result.items())))
            else:
                self.evictions += 1
        target = min(self.k, population)
        while len(live) < target:
            draw = self.index.sample(self._rng)
            identity = tuple(sorted(draw.items()))
            if identity in held:
                continue
            held.add(identity)
            live.append(draw)
            self.refills += 1
        self.reservoir.rebase_population(live, population)

    def _result_alive(self, result: dict) -> bool:
        database = self.index.database
        for schema in self.query.relations:
            row = tuple(result[attr] for attr in schema.attrs)
            if row not in database[schema.name]:
                return False
        return True


def build_stream(query: JoinQuery, ops) -> list:
    """Turn hypothesis draws into a turnstile stream.

    Deletes either retract an earlier insert (a live row or a repeat) or a
    fresh row, which may pend as a tombstone until its insert arrives.
    """
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


OPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 2]),
        st.integers(0, 11),
        st.tuples(*[st.integers(0, len(VALUES) - 1)] * 2),
    ),
    min_size=1,
    max_size=90,
)


def chunks(stream: list, size: int):
    for start in range(0, len(stream), size):
        yield stream[start:start + size]


def delete_runs(stream: list):
    """Maximal insert-runs and delete-runs, in stream order."""
    run: list = []
    for item in stream:
        if run and isinstance(item, StreamDelete) != isinstance(run[-1], StreamDelete):
            yield run
            run = []
        run.append(item)
    if run:
        yield run


def assert_same(new, reference) -> None:
    assert new.sample == reference.sample
    assert new._rng.getstate() == reference._rng.getstate()
    assert new.statistics() == reference.statistics()
    assert new._population == count_results(new.query, new.index.database)


def pair(query: JoinQuery, k: int, grouping: bool, seed: int):
    return (
        TurnstileReservoirJoin(query, k, rng=random.Random(seed), grouping=grouping),
        RecountTurnstile(query, k, rng=random.Random(seed), grouping=grouping),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    query=st.sampled_from(QUERIES),
    ops=OPS,
    k=st.sampled_from([1, 5, 40]),
    chunk=st.sampled_from([1, 7, 50]),
    grouping=st.booleans(),
)
def test_chunked_matches_full_recount(query, ops, k, chunk, grouping):
    stream = build_stream(query, ops)
    new, reference = pair(query, k, grouping, seed=len(ops))
    for part in chunks(stream, chunk):
        new.ingest_batch(part)
        reference.ingest_batch(part)
        assert_same(new, reference)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(query=st.sampled_from(QUERIES), ops=OPS, k=st.sampled_from([1, 5, 40]), grouping=st.booleans())
def test_per_tuple_and_delete_batch_match_full_recount(query, ops, k, grouping):
    stream = build_stream(query, ops)
    new, reference = pair(query, k, grouping, seed=len(ops))
    for item in stream:
        for sampler in (new, reference):
            if isinstance(item, StreamDelete):
                sampler.delete(item.relation, item.row)
            else:
                sampler.insert(item.relation, item.row)
        assert_same(new, reference)
    new, reference = pair(query, k, grouping, seed=len(ops) + 1)
    for run in delete_runs(stream):
        for sampler in (new, reference):
            if isinstance(run[0], StreamDelete):
                sampler.delete_batch(run)
            else:
                sampler.ingest_batch(run)
        assert_same(new, reference)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    query=st.sampled_from(QUERIES),
    ops=OPS,
    mode=st.sampled_from(["count", "timestamp"]),
    window=st.sampled_from([3, 20]),
    chunk=st.sampled_from([1, 7]),
    grouping=st.booleans(),
)
def test_windowed_matches_full_recount(query, ops, mode, window, chunk, grouping):
    stream = build_stream(query, ops)
    new = WindowedSampler(query, 5, window, rng=random.Random(3), mode=mode, grouping=grouping)
    reference = WindowedSampler(query, 5, window, mode=mode, grouping=grouping)
    reference._inner = RecountTurnstile(query, 5, rng=random.Random(3), grouping=grouping)
    for part in chunks(stream, chunk):
        new.ingest_batch(part)
        reference.ingest_batch(part)
        assert_same(new._inner, reference._inner)


def random_ops(seed: int, size: int) -> list:
    rng = random.Random(seed)
    return [
        (rng.choice([0, 0, 1, 2]), rng.randrange(12), (rng.randrange(3), rng.randrange(3)))
        for _ in range(size)
    ]


def test_ingestion_never_recounts(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_results called during turnstile ingestion")

    monkeypatch.setattr("repro.core.turnstile.count_results", forbidden)
    samplers = []
    for query in QUERIES:
        stream = build_stream(query, random_ops(5, 300))
        chunked = TurnstileReservoirJoin(query, 8, rng=random.Random(1))
        for part in chunks(stream, 7):
            chunked.ingest_batch(part)
        per_tuple = TurnstileReservoirJoin(query, 8, rng=random.Random(1)).process(stream)
        windowed = WindowedSampler(query, 8, 25, rng=random.Random(1)).process(stream)
        # The count is pickled state, so a restore does not recount either.
        restored = restore_backend(snapshot_backend(chunked))
        samplers += [chunked, per_tuple, windowed._inner, restored]
    monkeypatch.undo()
    for sampler in samplers:
        assert sampler._population == count_results(sampler.query, sampler.index.database)

