"""The benchmark's workloads: seeded inputs, the stack under test, and checks.

Each workload generates its stream from the seed alone, builds the same
stack the program's users build (query, sampler, ingestor and a
:class:`~repro.serve.SampleServer` in front), and knows how to check the
stack's outputs against a reference replay of the stream.  Why each
workload is in the benchmark is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import BatchIngestor, JoinQuery, ReservoirJoin, StreamTuple, TurnstileReservoirJoin
from repro.ingest.shard import ShardedIngestor
from repro.relational.database import Database
from repro.relational.join import count_results
from repro.relational.stream import turnstile_stream, surviving_rows
from repro.serve import SampleServer
from repro.workloads.graph import edge_stream, epinions_like, line_query

#: Sample size of one served read.
READ_K = 100


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def two_way_query() -> JoinQuery:
    return JoinQuery.from_spec("two-way", {"R": ["a", "b"], "S": ["b", "c"]})


def balanced_keys(count: int, domain: int, rng: random.Random) -> List[int]:
    """``count`` keys, each run of ``domain`` of them a shuffle of the domain.

    Uniform keys drawn independently make the join's size, and with it the
    work, vary from seed to seed; balanced keys leave only the order random,
    and keep every prefix of the stream balanced too, so the work up to
    each read varies little from seed to seed.
    """
    keys: List[int] = []
    while len(keys) < count:
        block = list(range(domain))
        rng.shuffle(block)
        keys += block
    return keys[:count]


def chain3_stream(size: int, rng: random.Random, params: dict) -> List[StreamTuple]:
    """Round-robin over R1..R3, both columns balanced over ``domain`` keys."""
    relations = ("R1", "R2", "R3")
    domain = int(params["domain"])
    per_relation = (size + 2) // 3
    columns = [
        (balanced_keys(per_relation, domain, rng), balanced_keys(per_relation, domain, rng))
        for _ in relations
    ]
    return [
        StreamTuple(relations[i % 3], (columns[i % 3][0][i // 3], columns[i % 3][1][i // 3]))
        for i in range(size)
    ]


def line3_stream(size: int, rng: random.Random, params: dict) -> List[StreamTuple]:
    """The paper's graph stream: every relation gets all ``size`` edges."""
    return edge_stream(line_query(3), epinions_like(size, rng), rng)


def two_way_turnstile_stream(size: int, rng: random.Random, params: dict) -> list:
    """``size`` inserts, alternating R(a, b) and S(b, c), with retractions.

    Each relation gives every join key ``b`` the same number of rows, so the
    join's size before retractions is the same for every seed.
    """
    domain = int(params["domain"])
    r_keys = balanced_keys((size + 1) // 2, domain, rng)
    s_keys = balanced_keys((size + 1) // 2, domain, rng)
    inserts = [
        StreamTuple("R", (i, r_keys[i // 2]))
        if i % 2 == 0
        else StreamTuple("S", (s_keys[i // 2], i))
        for i in range(size)
    ]
    return turnstile_stream(
        inserts,
        rng,
        delete_fraction=params["delete_fraction"],
        tombstone_fraction=params["tombstone_fraction"],
    )


@dataclass
class Stack:
    """One built instance of a workload's system under test."""

    query: JoinQuery
    ingestor: object
    server: SampleServer
    k: int

    @property
    def samplers(self) -> list:
        if isinstance(self.ingestor, ShardedIngestor):
            return list(self.ingestor.samplers)
        return [self.ingestor.sampler]

    def shard_samples(self) -> List[List[dict]]:
        return [list(sampler.sample) for sampler in self.samplers]


@dataclass
class Workload:
    """A named workload: how to make its inputs and build its stack.

    ``sampler`` is ``"reservoir"``, ``"turnstile"`` or ``"sharded"``.
    ``read_every_chunk`` puts one fresh read after every chunk boundary of
    the main stream; otherwise reads are measured on a served replica of
    the same stack over a short prefix of the stream (see ``run.py``).
    ``pass_s`` is the nominal length of one pass on a 2-vCPU x86 machine;
    it fixes how many passes a run of a given length makes, so that a
    faster or slower program is measured over the same number of passes.
    """

    name: str
    query: Callable[[], JoinQuery]
    inputs: Callable[[int, random.Random, dict], list]
    sampler: str
    chunk: int
    size: int
    pass_s: float
    read_every_chunk: bool = False
    params: Dict[str, float] = field(default_factory=dict)

    def make_stream(self, seed: int) -> list:
        return self.inputs(self.size, random.Random(seed), self.params)

    def k_for(self, stream_length: int) -> int:
        if "k_share" in self.params:
            return max(1, int(stream_length * self.params["k_share"]))
        return int(self.params["k"])

    # --------------------------------------------------------------- stack
    def setup(self, seed: int, k: int) -> Stack:
        """Build query, sampler, ingestor and server (the timed set-up)."""
        query = self.query()
        rng = random.Random(seed)
        if self.sampler == "sharded":
            ingestor = ShardedIngestor(
                query, k, num_shards=int(self.params["shards"]), chunk_size=self.chunk, rng=rng
            )
        elif self.sampler == "turnstile":
            ingestor = BatchIngestor(
                TurnstileReservoirJoin(query, k, rng=rng), chunk_size=self.chunk
            )
        else:
            ingestor = BatchIngestor(ReservoirJoin(query, k, rng=rng), chunk_size=self.chunk)
        server = SampleServer(ingestor, rng=random.Random(seed + 1))
        return Stack(query, ingestor, server, k)


#: Sizes give every pass at least 100 chunk calls and 100 reads, and keep a
#: pass short enough (about 2 s) that a run holds several passes to take
#: each operation's median time from.  ``run.py --size/--chunk/--k`` override
#: them.  On served-sharded each shard's local join grows to 20-50 times its
#: reservoir, so the shards sample rather than hold their whole join.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="chain3-insert",
            query=chain3_query,
            inputs=chain3_stream,
            sampler="reservoir",
            chunk=200,
            size=20_000,
            pass_s=1.9,
            params={"domain": 4000, "k": 1000},
        ),
        Workload(
            name="line3-bigk",
            query=functools.partial(line_query, 3),
            inputs=line3_stream,
            sampler="reservoir",
            chunk=100,
            size=3_400,
            pass_s=2.0,
            params={"k_share": 0.5},
        ),
        Workload(
            name="turnstile-2way",
            query=two_way_query,
            inputs=two_way_turnstile_stream,
            sampler="turnstile",
            chunk=12,
            size=1_800,
            pass_s=2.2,
            params={"domain": 50, "k": 500, "delete_fraction": 0.3, "tombstone_fraction": 0.1},
        ),
        Workload(
            name="served-sharded",
            query=chain3_query,
            inputs=chain3_stream,
            sampler="sharded",
            chunk=12,
            size=1_200,
            pass_s=2.4,
            read_every_chunk=True,
            params={"domain": 40, "k": 200, "shards": 4},
        ),
    )
}


# ------------------------------------------------------------------ checks
def reference_count(query: JoinQuery, rows: Dict[str, set]) -> int:
    database = Database(query)
    for relation, relation_rows in rows.items():
        database.bulk_load(relation, relation_rows)
    return count_results(query, database)


def _is_join_result(result: dict, query: JoinQuery, rows: Dict[str, set]) -> bool:
    return all(
        tuple(result[attr] for attr in schema.attrs) in rows.get(schema.name, ())
        for schema in query.relations
    )


def check_sample(results, expected_size: int, query: JoinQuery, rows: Dict[str, set]) -> List[str]:
    """Problems with one sample: size, duplicates, results not in the join."""
    problems = []
    if len(results) != expected_size:
        problems.append(f"sample holds {len(results)} results, expected {expected_size}")
    identities = {tuple(sorted(result.items())) for result in results}
    if len(identities) != len(results):
        problems.append("sample holds a result twice")
    fake = [result for result in results if not _is_join_result(result, query, rows)]
    if fake:
        problems.append(f"{len(fake)} sampled results are not join results, e.g. {fake[0]}")
    return problems


def check_stack(stack: Stack, stream) -> List[str]:
    """Every reservoir is a full-size sample of real join results.

    A shard's reservoir must hold ``min(k, local count)`` results; the local
    counts must add up to the reference count of the whole join, and no
    result may be held by two shards.
    """
    rows = surviving_rows(stream)
    total = reference_count(stack.query, rows)
    problems: List[str] = []
    counts = []
    held = []
    for sampler in stack.samplers:
        local = count_results(sampler.index.query, sampler.index.database)
        counts.append(local)
        sample = list(sampler.sample)
        held.extend(tuple(sorted(result.items())) for result in sample)
        problems += check_sample(sample, min(stack.k, local), stack.query, rows)
    if sum(counts) != total:
        problems.append(f"local join counts add up to {sum(counts)}, reference count is {total}")
    if len(set(held)) != len(held):
        problems.append("two shards hold the same result")
    if stack.ingestor.tuples_ingested != len(stream):
        problems.append(
            f"ingestor took {stack.ingestor.tuples_ingested} items, stream has {len(stream)}"
        )
    return problems


def check_read(read, query: JoinQuery, prefix) -> List[str]:
    """A served read of the stream prefix ``prefix``."""
    rows = surviving_rows(prefix)
    expected = min(READ_K, reference_count(query, rows))
    return check_sample(read, expected, query, rows)


def check_stored_rows(stack: Stack, stream) -> List[str]:
    """The turnstile sampler stores exactly the surviving rows."""
    rows = surviving_rows(stream)
    database = stack.samplers[0].index.database
    problems = []
    for schema in stack.query.relations:
        stored = set(database[schema.name].rows)
        expected = rows.get(schema.name, set())
        if stored != expected:
            problems.append(
                f"{schema.name} stores {len(stored)} rows, {len(stored ^ expected)} "
                "differ from the surviving rows"
            )
    return problems
