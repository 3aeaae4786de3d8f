"""Unit tests for the multi-backend fan-out ingestor."""

from __future__ import annotations

import random

import pytest

from repro import (
    AsyncIngestor,
    BatchIngestor,
    CyclicReservoirJoin,
    FanoutIngestor,
    JoinQuery,
    ReservoirJoin,
    ShardedIngestor,
    StreamTuple,
    SymmetricHashJoinSampler,
)
from repro.baselines.naive import NaiveRecomputeSampler
from repro.baselines.sjoin import SJoin
from repro.core.backend import SamplerBackend, probe_backend
from repro.stats.uniformity import result_key

from tests.conftest import ground_truth_keys


def make_stream(query, n, seed, domain=8):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(
            rng.choice(names),
            tuple(rng.randrange(domain) for _ in range(2)),
        )
        for _ in range(n)
    ]


class FlakyBackend:
    """A backend that fails on its Nth delivered chunk."""

    def __init__(self, fail_at_chunk: int) -> None:
        self.fail_at_chunk = fail_at_chunk
        self.chunks_seen = 0
        self.tuples_seen = 0

    def insert_batch(self, items) -> int:
        self.chunks_seen += 1
        if self.chunks_seen >= self.fail_at_chunk:
            raise RuntimeError("flaky backend exploded")
        self.tuples_seen += len(items)
        return len(items)

    @property
    def sample(self):
        return []

    def statistics(self):
        return {"chunks_seen": self.chunks_seen, "tuples_seen": self.tuples_seen}


class TestConstruction:
    def test_invalid_on_error(self):
        with pytest.raises(ValueError):
            FanoutIngestor(on_error="explode")

    def test_ingest_without_backends_raises(self, line3_query):
        fan = FanoutIngestor(chunk_size=8)
        with pytest.raises(RuntimeError, match="no backends"):
            fan.ingest_batch([StreamTuple("R1", (1, 2))])

    def test_duplicate_name_rejected(self, line3_query):
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(1))
        fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
        with pytest.raises(ValueError, match="already registered"):
            fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))

    def test_register_after_ingest_rejected(self, line3_query):
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(1))
        fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
        fan.ingest_batch([StreamTuple("R1", (1, 2))])
        with pytest.raises(RuntimeError, match="after ingestion"):
            fan.register("late", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))

    def test_seeds_recorded_per_registration(self, line3_query):
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(7))
        fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
        prebuilt = ReservoirJoin(line3_query, 3, rng=random.Random(0))
        fan.add("b", prebuilt)
        assert isinstance(fan.backend_seed("a"), int)
        assert fan.backend_seed("b") is None
        assert fan.backend("b") is prebuilt
        assert fan.backend_names == ["a", "b"]
        with pytest.raises(KeyError):
            fan.backend("missing")


class TestDelivery:
    def test_empty_stream_is_noop(self, line3_query):
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(1))
        fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
        fan.ingest([])
        assert fan.batches_ingested == 0
        assert fan.tuples_ingested == 0
        assert fan.backend("a").sample == []

    def test_empty_chunk_is_noop(self, line3_query):
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(1))
        fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
        assert fan.ingest_batch([]) == 0
        assert fan.batches_ingested == 0

    def test_single_backend_bit_identical_to_standalone(self, line3_query):
        stream = make_stream(line3_query, 300, seed=3)
        fan = FanoutIngestor(chunk_size=16, rng=random.Random(5))
        fan.register("only", lambda rng: ReservoirJoin(line3_query, 7, rng=rng))
        fan.ingest(stream)

        alone = ReservoirJoin(
            line3_query, 7, rng=random.Random(fan.backend_seed("only"))
        )
        BatchIngestor(alone, chunk_size=16).ingest(stream)
        assert fan.backend("only").sample == alone.sample
        assert fan.backend("only").statistics() == alone.statistics()

    def test_mixed_backends_recover_the_exact_result_set(self, line3_query):
        stream = make_stream(line3_query, 240, seed=11, domain=5)
        truth = ground_truth_keys(line3_query, stream)
        assert truth
        k_all = len(truth) + 5

        fan = FanoutIngestor(chunk_size=32, rng=random.Random(9))
        fan.register("acyclic", lambda rng: ReservoirJoin(line3_query, k_all, rng=rng))
        fan.register(
            "cyclic", lambda rng: CyclicReservoirJoin(line3_query, k_all, rng=rng)
        )
        fan.register(
            "baseline",
            lambda rng: SymmetricHashJoinSampler(line3_query, k_all, rng=rng),
        )
        fan.register(
            "sharded",
            lambda rng: ShardedIngestor(
                line3_query, k=k_all, num_shards=2, chunk_size=32, rng=rng
            ),
        )
        fan.ingest(stream)

        for name in ("acyclic", "cyclic", "baseline"):
            assert {result_key(r) for r in fan.backend(name).sample} == truth, name
        merged = fan.backend("sharded").merged_sample()
        assert {result_key(r) for r in merged} == truth

        stats = fan.statistics()
        assert stats["num_backends"] == 4
        assert stats["backends"]["sharded"]["mode"] == "ingest_batch"
        assert stats["backends"]["acyclic"]["mode"] == "insert_batch"
        assert stats["backends"]["acyclic"]["tuples_delivered"] == len(stream)
        assert stats["tuples_ingested"] == len(stream)
        assert stats["critical_path_seconds"] >= 0.0

    @pytest.mark.parametrize(
        "prototype_factory",
        [
            lambda q: ReservoirJoin(q, 6, rng=random.Random(0), grouping=True),
            lambda q: CyclicReservoirJoin(q, 6, rng=random.Random(0)),
            lambda q: SJoin(q, 6, rng=random.Random(0)),
            lambda q: SymmetricHashJoinSampler(q, 6, rng=random.Random(0)),
            lambda q: NaiveRecomputeSampler(q, 6, rng=random.Random(0)),
        ],
        ids=["acyclic", "cyclic", "sjoin", "symmetric", "naive"],
    )
    def test_register_replica_spawns_seeded_clones(
        self, line3_query, prototype_factory
    ):
        """register_replica builds backends via the spawn() cloning capability.

        Parametrised over every sampler type, so each spawn() implementation
        is exercised: the replica must equal a standalone spawn under the
        recorded seed, and the prototype must stay untouched.
        """
        stream = make_stream(line3_query, 120, seed=23, domain=5)
        prototype = prototype_factory(line3_query)
        fan = FanoutIngestor(chunk_size=16, rng=random.Random(31))
        fan.register_replica("r1", prototype)
        fan.register_replica("r2", prototype)
        fan.ingest(stream)

        assert fan.backend("r1") is not prototype
        assert prototype.tuples_processed == 0  # the prototype is untouched
        # Each replica equals a standalone clone under its recorded seed.
        for name in ("r1", "r2"):
            alone = prototype.spawn(random.Random(fan.backend_seed(name)))
            BatchIngestor(alone, chunk_size=16).ingest(stream)
            assert fan.backend(name).sample == alone.sample, name

        with pytest.raises(TypeError, match="spawn"):
            fan2 = FanoutIngestor(chunk_size=16)
            fan2.register_replica("nope", object())

    def test_rejected_registration_does_not_shift_later_seeds(self, line3_query):
        """A failed register() must not consume a derived seed.

        The seed sequence is documented as a function of the master seed and
        registration order alone — an error-free run and a run with a
        rejected duplicate in between must hand 'b' the same seed.
        """
        def build(with_duplicate):
            fan = FanoutIngestor(chunk_size=8, rng=random.Random(77))
            fan.register("a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
            if with_duplicate:
                with pytest.raises(ValueError):
                    fan.register(
                        "a", lambda rng: ReservoirJoin(line3_query, 3, rng=rng)
                    )
            fan.register("b", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))
            return fan

        assert build(False).backend_seed("b") == build(True).backend_seed("b")

    def test_samplers_conform_to_the_backend_protocol(self, line3_query):
        """Every sampler satisfies SamplerBackend and probes fully capable."""
        for sampler in (
            ReservoirJoin(line3_query, 3),
            CyclicReservoirJoin(line3_query, 3),
            SJoin(line3_query, 3),
            SymmetricHashJoinSampler(line3_query, 3),
            NaiveRecomputeSampler(line3_query, 3),
        ):
            assert isinstance(sampler, SamplerBackend), type(sampler).__name__
            capabilities = probe_backend(sampler)
            assert capabilities.insert and capabilities.insert_batch
            assert capabilities.sample and capabilities.statistics
            assert capabilities.spawn
            assert capabilities.as_dict()["insert_batch"] is True

    def test_destructive_backend_cannot_corrupt_later_lanes(self, line3_query):
        """Broadcast hands each lane its own copy of the chunk."""

        class Destructive:
            def insert_batch(self, items):
                items.clear()  # a rude backend consuming its argument

            sample = []

        stream = make_stream(line3_query, 120, seed=29)
        fan = FanoutIngestor(chunk_size=16, rng=random.Random(7))
        fan.add("rude", Destructive())
        fan.register("honest", lambda rng: ReservoirJoin(line3_query, 5, rng=rng))
        fan.ingest(stream)

        alone = ReservoirJoin(
            line3_query, 5, rng=random.Random(fan.backend_seed("honest"))
        )
        BatchIngestor(alone, chunk_size=16).ingest(stream)
        assert fan.backend("honest").sample == alone.sample

    def test_destructive_single_backend_counters_stay_honest(self, line3_query):
        """Counters describe what was delivered, not what the backend left.

        With a single lane the backend receives the engine's own list; if
        it consumes it destructively the chunk size must still be counted
        from the pre-dispatch snapshot (and the ingestion-started guard
        must still engage).
        """

        class Destructive:
            def insert_batch(self, items):
                items.clear()

            sample = []

        fan = FanoutIngestor(chunk_size=16, rng=random.Random(7))
        fan.add("rude", Destructive())
        pushed = fan.ingest_batch([StreamTuple("R1", (1, 2)), StreamTuple("R2", (2, 3))])
        assert pushed == 2
        assert fan.tuples_ingested == 2
        assert fan.statistics()["backends"]["rude"]["tuples_delivered"] == 2
        with pytest.raises(RuntimeError, match="after ingestion"):
            fan.register("late", lambda rng: ReservoirJoin(line3_query, 3, rng=rng))

    def test_fanout_behind_async_transport_bit_identical(self, line3_query):
        stream = make_stream(line3_query, 300, seed=13)

        def build(seed):
            fan = FanoutIngestor(chunk_size=16, rng=random.Random(seed))
            fan.register("a", lambda rng: ReservoirJoin(line3_query, 5, rng=rng))
            fan.register("b", lambda rng: ReservoirJoin(line3_query, 9, rng=rng))
            return fan

        serial = build(21).ingest(stream)
        piped = build(21)
        with AsyncIngestor(piped, chunk_size=16, buffer_chunks=4) as pipeline:
            pipeline.ingest(stream)
        for name in ("a", "b"):
            assert piped.backend(name).sample == serial.backend(name).sample


class TestErrorHandling:
    def test_raise_mode_is_sticky(self, line3_query):
        stream = make_stream(line3_query, 200, seed=17)
        fan = FanoutIngestor(chunk_size=16, rng=random.Random(3))
        fan.register("good", lambda rng: ReservoirJoin(line3_query, 5, rng=rng))
        fan.add("bad", FlakyBackend(fail_at_chunk=3))
        with pytest.raises(RuntimeError, match="exploded"):
            fan.ingest(stream)
        # The failure is sticky: the pipeline refuses further chunks.
        with pytest.raises(RuntimeError, match="exploded"):
            fan.ingest_batch([StreamTuple("R1", (1, 2))])
        assert "bad" in fan.failures

    def test_isolate_mode_quarantines_only_the_failed_backend(self, line3_query):
        stream = make_stream(line3_query, 320, seed=19)
        fan = FanoutIngestor(chunk_size=16, rng=random.Random(3), on_error="isolate")
        fan.register("good", lambda rng: ReservoirJoin(line3_query, 5, rng=rng))
        flaky = FlakyBackend(fail_at_chunk=3)
        fan.add("bad", flaky)
        fan.ingest(stream)

        # The healthy backend saw the whole stream, bit-identically to a
        # standalone run; the flaky one stopped being delivered to.
        alone = ReservoirJoin(
            line3_query, 5, rng=random.Random(fan.backend_seed("good"))
        )
        BatchIngestor(alone, chunk_size=16).ingest(stream)
        assert fan.backend("good").sample == alone.sample
        assert flaky.chunks_seen == 3  # failed on the 3rd, skipped after
        assert "bad" in fan.failures
        stats = fan.statistics()
        assert "failed" in stats["backends"]["bad"]
        assert stats["backends"]["good"]["tuples_delivered"] == len(stream)
        assert stats["backends"]["bad"]["chunks_delivered"] == 2

    def test_isolate_mode_raises_once_every_backend_failed(self, line3_query):
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(3), on_error="isolate")
        fan.add("bad", FlakyBackend(fail_at_chunk=1))
        fan.ingest_batch([StreamTuple("R1", (1, 2))])  # quarantines "bad"
        with pytest.raises(RuntimeError, match="every fan-out backend"):
            fan.ingest_batch([StreamTuple("R1", (3, 4))])

    def test_isolate_mode_validation_rejection_is_not_quarantine(
        self, line3_query, two_table_query
    ):
        """A narrower-query backend rejects foreign chunks and keeps sampling.

        Validation errors are raised before any mutation, so the chunk is
        counted as rejected for that backend — not delivered, not fatal —
        and later chunks keep flowing to it.
        """
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(5), on_error="isolate")
        fan.register("wide", lambda rng: ReservoirJoin(line3_query, 20, rng=rng))
        # two_table_query knows R1/R2 only; chunks naming R3 are rejected.
        fan.register("narrow", lambda rng: ReservoirJoin(two_table_query, 20, rng=rng))

        accepted = [("R1", (1, 2)), ("R2", (2, 3))]
        rejected = [("R3", (3, 4)), ("R1", (5, 2))]
        fan.ingest_batch(accepted)
        fan.ingest_batch(rejected)
        fan.ingest_batch([("R2", (2, 7))])

        assert fan.failures == {}
        stats = fan.statistics()
        assert stats["backends"]["narrow"]["chunks_rejected"] == 1
        assert stats["backends"]["narrow"]["chunks_delivered"] == 2
        assert stats["backends"]["wide"]["chunks_rejected"] == 0
        assert stats["backends"]["wide"]["chunks_delivered"] == 3
        # The narrow backend saw exactly the chunks it accepted — nothing
        # from the rejected chunk leaked in (pre-mutation validation).
        assert fan.backend("narrow").index.size == 3
        assert fan.backend("wide").index.size == 5

    def test_isolation_never_swallows_a_user_abort(self, line3_query):
        class Interrupting:
            def insert_batch(self, items):
                raise KeyboardInterrupt

            sample = []

        fan = FanoutIngestor(chunk_size=8, rng=random.Random(5), on_error="isolate")
        fan.add("interrupting", Interrupting())
        with pytest.raises(KeyboardInterrupt):
            fan.ingest_batch([StreamTuple("R1", (1, 2))])
        assert fan.failures == {}  # an abort is not a backend failure

    def test_per_tuple_fallback_validates_before_mutating(self, line3_query):
        """An insert-only backend exposing its query gets whole-chunk validation."""

        class PerTupleOnly:
            def __init__(self, query):
                self.query = query
                self.seen = []

            def insert(self, relation, row):
                self.seen.append((relation, row))

            sample = []

        backend = PerTupleOnly(line3_query)
        fan = FanoutIngestor(chunk_size=8, rng=random.Random(5))
        fan.add("tuples", backend)
        with pytest.raises(KeyError):
            fan.ingest_batch([("R1", (1, 2)), ("BOGUS", (3, 4))])
        assert backend.seen == []  # the bad chunk never reached insert()
