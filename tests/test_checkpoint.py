"""Checkpoint/restore: codec round-trips, failure modes, resumption guards.

The statistical half of the story — bit-identical resumption for every
backend kind — lives in property-harness section (e) of
``tests/statistical/test_properties.py``.  This module covers the
deterministic seam: the file format (truncation, corruption, version and
class mismatches), the shard-layout guard, what a pickled ingestor leaves
behind (outside observers' hooks), and the post-``ingest_parallel``
finalisation UX.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
from typing import List

import pytest

from repro import (
    AsyncIngestor,
    BatchIngestor,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    FanoutIngestor,
    JoinQuery,
    PeriodicCheckpointer,
    RebalancingIngestor,
    ReservoirJoin,
    SampleServer,
    ShardedIngestor,
    StreamTuple,
)
from repro.core.backend import restore_backend, snapshot_backend
from repro.baselines.sjoin import SJoin
from repro.ingest.checkpoint import CODEC, FORMAT_VERSION, MAGIC, CheckpointCodec


def chain3() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def chain3_stream(n: int, seed: int = 5, domain: int = 12) -> List[StreamTuple]:
    rng = random.Random(seed)
    return [
        StreamTuple(
            ("R1", "R2", "R3")[i % 3], (rng.randrange(domain), rng.randrange(domain))
        )
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# Codec round-trip and file-format failure modes
# --------------------------------------------------------------------- #
class TestCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, {"answer": 42})
        assert CODEC.load(path) == {"answer": 42}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CODEC.load(tmp_path / "nope.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"definitely not a checkpoint, but long enough to read")
        with pytest.raises(CheckpointCorruptError, match="bad magic"):
            CODEC.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, {"answer": 42})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointCorruptError, match="shorter than"):
            CODEC.load(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, {"answer": 42})
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            CODEC.load(path)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, {"answer": 42})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit; length still matches
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            CODEC.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CheckpointCodec(version=FORMAT_VERSION + 7).dump(path, {})
        with pytest.raises(CheckpointVersionError, match=str(FORMAT_VERSION + 7)):
            CODEC.load(path)

    def test_version_one_files_are_refused(self, tmp_path):
        # Version 1 held a hand-built state dict per ingestor; version 2 is
        # the pickled ingestor, and the old layout is not read any more.
        assert FORMAT_VERSION == 2
        path = tmp_path / "v1.ckpt"
        CheckpointCodec(version=1).dump(path, {"kind": "batch", "state": {}})
        with pytest.raises(CheckpointVersionError, match="version 1"):
            BatchIngestor.restore(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, {})
        with pytest.raises(CheckpointMismatchError, match="dict"):
            CODEC.load(path, ShardedIngestor)

    def test_all_errors_are_checkpoint_errors(self):
        for cls in (CheckpointCorruptError, CheckpointVersionError, CheckpointMismatchError):
            assert issubclass(cls, CheckpointError)

    def test_magic_is_stable(self, tmp_path):
        # The on-disk format is a public contract: the first 8 bytes never
        # change, or old files stop being recognisable as checkpoints.
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, {})
        assert path.read_bytes()[:8] == MAGIC == b"RPROCKPT"


# --------------------------------------------------------------------- #
# Ingestor-level restore guards
# --------------------------------------------------------------------- #
class TestRestoreGuards:
    def test_batch_restore_refuses_sharded_checkpoint(self, tmp_path):
        path = tmp_path / "s.ckpt"
        ingestor = ShardedIngestor(chain3(), k=4, num_shards=2, rng=random.Random(1))
        ingestor.ingest(chain3_stream(60))
        ingestor.save(path)
        with pytest.raises(CheckpointMismatchError):
            BatchIngestor.restore(path)

    def test_sharded_restore_refuses_different_shard_count(self, tmp_path):
        path = tmp_path / "s.ckpt"
        ingestor = ShardedIngestor(chain3(), k=4, num_shards=3, rng=random.Random(2))
        ingestor.ingest(chain3_stream(60))
        ingestor.save(path)
        with pytest.raises(CheckpointMismatchError, match="3 shards"):
            ShardedIngestor.restore(path, num_shards=5)
        # The recorded layout restores fine, both implicitly and explicitly.
        assert ShardedIngestor.restore(path).num_shards == 3
        assert ShardedIngestor.restore(path, num_shards=3).num_shards == 3

    def test_sharded_restore_preserves_timing_incomplete(self, tmp_path):
        # An async transport drives shards barrier-less, so the live ingestor
        # suppresses the critical-path figure; the restored one must too.
        path = tmp_path / "s.ckpt"
        ingestor = ShardedIngestor(chain3(), k=4, num_shards=2, rng=random.Random(19))
        ingestor.ingest(chain3_stream(40))
        ingestor.timing_incomplete = True
        ingestor.save(path)
        restored = ShardedIngestor.restore(path)
        assert restored.timing_incomplete is True
        assert restored.statistics()["critical_path_seconds"] is None

    def test_fanout_refuses_checkpoint_with_failed_backend(self, tmp_path):
        class Exploding:
            query = chain3()

            def insert(self, relation, row):
                raise OSError("disk on fire")

        fan = FanoutIngestor(chunk_size=8, rng=random.Random(7), on_error="isolate")
        fan.register("good", lambda rng: ReservoirJoin(chain3(), 4, rng=rng))
        fan.add("bad", Exploding())
        fan.ingest(chain3_stream(20))
        assert "bad" in fan.failures
        with pytest.raises(RuntimeError, match="failed backends"):
            fan.save(tmp_path / "f.ckpt")


# --------------------------------------------------------------------- #
# In-memory backend snapshots (the pickled object)
# --------------------------------------------------------------------- #
class TestBackendSnapshots:
    def test_pickle_fallback_for_baselines(self):
        sampler = SJoin(chain3(), 4, rng=random.Random(9))
        record = snapshot_backend(sampler)
        assert isinstance(record, bytes)
        for item in chain3_stream(40, seed=11):
            sampler.insert(item.relation, item.row)  # must not mutate the record
        restored = restore_backend(record)
        assert restored.tuples_processed == 0

    def test_snapshot_is_inert_against_later_ingestion(self):
        sampler = ReservoirJoin(chain3(), 4, rng=random.Random(10))
        stream = chain3_stream(120, seed=12)
        for item in stream[:60]:
            sampler.insert(item.relation, item.row)
        record = snapshot_backend(sampler)
        frozen = pickle.dumps(record)
        for item in stream[60:]:
            sampler.insert(item.relation, item.row)
        assert pickle.dumps(record) == frozen

    def test_restored_backend_is_independent_of_the_original(self, tmp_path):
        path = tmp_path / "b.ckpt"
        original = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(13)), chunk_size=16
        )
        stream = chain3_stream(200, seed=14)
        original.ingest_batch(stream[:100])
        original.save(path)
        restored = BatchIngestor.restore(path)
        original.ingest_batch(stream[100:])
        assert restored.tuples_ingested == 100
        assert restored.sampler.index.size < original.sampler.index.size


# --------------------------------------------------------------------- #
# Fresh-process restore (the crash-recovery story, end to end)
# --------------------------------------------------------------------- #
def _resume_in_subprocess(payload):
    path, suffix = payload
    ingestor = BatchIngestor.restore(path)
    ingestor.ingest(suffix)  # re-chunks at the restored chunk_size
    return ingestor.sampler.sample, ingestor.sampler.statistics()


class TestFreshProcessRestore:
    def test_batch_resumes_bit_identically_in_a_worker_process(self, tmp_path):
        query = chain3()
        stream = chain3_stream(400, seed=15)
        chunk = 50
        uninterrupted = BatchIngestor(
            ReservoirJoin(query, 8, rng=random.Random(16)), chunk_size=chunk
        ).ingest(stream)

        path = str(tmp_path / "b.ckpt")
        interrupted = BatchIngestor(
            ReservoirJoin(query, 8, rng=random.Random(16)), chunk_size=chunk
        )
        for start in range(0, 200, chunk):
            interrupted.ingest_batch(stream[start : start + chunk])
        interrupted.save(path)

        with multiprocessing.Pool(1) as pool:
            sample, statistics = pool.map(
                _resume_in_subprocess, [(path, stream[200:])]
            )[0]
        assert sample == uninterrupted.sampler.sample
        assert statistics == uninterrupted.sampler.statistics()


# --------------------------------------------------------------------- #
# Checkpointing through a live worker pool (the old "parallel discards
# live samplers, so snapshot raises" limitation is gone)
# --------------------------------------------------------------------- #
class TestLivePoolCheckpoint:
    def test_save_through_live_workers_resumes_bit_identically(self, tmp_path):
        stream = chain3_stream(160, seed=18)
        uninterrupted = ShardedIngestor(
            chain3(), k=4, num_shards=2, chunk_size=20, rng=random.Random(17)
        ).ingest(stream)

        pooled = ShardedIngestor(
            chain3(), k=4, num_shards=2, chunk_size=20, rng=random.Random(17)
        )
        pooled.ingest_parallel(stream[:80], processes=2)
        path = str(tmp_path / "live-pool.ckpt")
        pooled.save(path)  # replica state captured inside the workers
        assert pooled.pool_active  # checkpointing does not stop the pool

        resumed = ShardedIngestor.restore(path)
        resumed.ingest(stream[80:])
        assert [list(s.sample) for s in resumed.samplers] == [
            list(s.sample) for s in uninterrupted.samplers
        ]

        # The original pool run keeps going too, to the same final state.
        pooled.ingest_parallel(stream[80:])
        assert pooled.shard_samples() == [
            list(s.sample) for s in uninterrupted.samplers
        ]
        pooled.close_pool()

    def test_restored_ingestor_can_start_its_own_pool(self, tmp_path):
        stream = chain3_stream(160, seed=18)
        uninterrupted = ShardedIngestor(
            chain3(), k=4, num_shards=2, chunk_size=20, rng=random.Random(17)
        ).ingest(stream)

        first = ShardedIngestor(
            chain3(), k=4, num_shards=2, chunk_size=20, rng=random.Random(17)
        )
        first.ingest(stream[:80])
        path = str(tmp_path / "serial.ckpt")
        first.save(path)

        resumed = ShardedIngestor.restore(path)
        resumed.ingest_parallel(stream[80:], processes=2)  # pool over restored state
        assert resumed.shard_samples() == [
            list(s.sample) for s in uninterrupted.samplers
        ]
        resumed.close_pool()

    def test_stored_rows_requires_closing_the_pool_first(self, tmp_path):
        ingestor = ShardedIngestor(chain3(), k=4, num_shards=2, rng=random.Random(17))
        ingestor.ingest_parallel(chain3_stream(80, seed=18), processes=2)
        with pytest.raises(RuntimeError, match="close_pool"):
            ingestor.stored_rows()
        ingestor.close_pool()
        rows = ingestor.stored_rows()
        assert set(rows) == {"R1", "R2", "R3"}


# --------------------------------------------------------------------- #
# Periodic background checkpointing at chunk boundaries (timer-driven)
# --------------------------------------------------------------------- #
class TestPeriodicCheckpointer:
    """The ROADMAP dead-interval fix: a timer-gated save at the chunk
    boundaries an ingestor already publishes, so a crash loses at most
    one checkpoint interval instead of everything since a manual save."""

    def test_crash_recovery_resumes_bit_identically(self, tmp_path):
        from repro import PeriodicCheckpointer

        stream = chain3_stream(200, seed=23)
        uninterrupted = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(9)), chunk_size=20
        )
        uninterrupted.ingest(stream)

        # interval 0: a checkpoint at *every* boundary, so the "crash"
        # below loses nothing but the in-flight chunk.
        doomed = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(9)), chunk_size=20
        )
        path = str(tmp_path / "periodic.ckpt")
        checkpointer = PeriodicCheckpointer(doomed, path, interval_seconds=0.0)
        checkpointer.install()
        for start in range(0, 120, 20):       # six chunks, then the crash
            doomed.ingest_batch(stream[start : start + 20])
        assert checkpointer.checkpoints_written == 6
        del doomed                            # the process is gone

        recovered = BatchIngestor.restore(path)
        recovered.ingest(stream[120:])        # replay from the last boundary
        assert list(recovered.sampler.sample) == list(
            uninterrupted.sampler.sample
        )
        assert recovered.statistics() == uninterrupted.statistics()

    def test_recovery_loses_at_most_one_interval(self, tmp_path):
        from repro import PeriodicCheckpointer

        stream = chain3_stream(200, seed=29)
        doomed = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(11)), chunk_size=20
        )
        now = [0.0]
        path = str(tmp_path / "windowed.ckpt")
        checkpointer = PeriodicCheckpointer(
            doomed, path, interval_seconds=5.0, clock=lambda: now[0]
        ).install()
        for boundary, start in enumerate(range(0, 200, 20), start=1):
            doomed.ingest_batch(stream[start : start + 20])
            now[0] += 2.0                     # a save every ~3rd boundary
        assert 2 <= checkpointer.checkpoints_written < checkpointer.boundaries_seen

        recovered = BatchIngestor.restore(path)
        lost = len(stream) - recovered.tuples_ingested
        # At 2s per 20-tuple chunk and a 5s interval the window never holds
        # more than ceil(5/2) = 3 chunks of unsaved work.
        assert 0 <= lost <= 60
        recovered.ingest(stream[recovered.tuples_ingested:])
        uninterrupted = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(11)), chunk_size=20
        )
        uninterrupted.ingest(stream)
        assert list(recovered.sampler.sample) == list(
            uninterrupted.sampler.sample
        )


# --------------------------------------------------------------------- #
# What a pickled ingestor leaves behind: outside observers' hooks
# --------------------------------------------------------------------- #
def _build(kind: str):
    if kind == "batch":
        return BatchIngestor(ReservoirJoin(chain3(), 5, rng=random.Random(41)), chunk_size=20)
    if kind == "sharded":
        return ShardedIngestor(chain3(), k=5, num_shards=2, chunk_size=20, rng=random.Random(41))
    return RebalancingIngestor(chain3(), k=5, num_shards=2, chunk_size=20, rng=random.Random(41))


class TestRestoredHooks:
    @pytest.mark.parametrize("kind", ["batch", "sharded", "rebalancing"])
    def test_outside_hooks_are_dropped_and_counters_still_advance(self, kind, tmp_path):
        path = str(tmp_path / f"{kind}.ckpt")
        stream = chain3_stream(100, seed=43)
        ingestor = _build(kind)
        server = SampleServer(ingestor, rng=random.Random(1))
        checkpointer = PeriodicCheckpointer(ingestor, path, interval_seconds=0.0).install()
        for start in range(0, 60, 20):
            server.ingest_batch(stream[start : start + 20])
        assert server.epoch == checkpointer.checkpoints_written == 3

        restored = type(ingestor).restore(path)
        restored.ingest_batch(stream[60:80])
        # The server's epoch counter and the checkpointer watch the live
        # object only; the restored copy fires neither.
        assert server.epoch == checkpointer.checkpoints_written == 3
        assert restored.tuples_ingested == 80
        assert restored.batches_ingested == 4
        if kind != "batch":
            deliveries = restored.statistics()["relation_deliveries"]
            assert sum(deliveries.values()) == 80
        if kind == "sharded":
            # The ingestor's own roll-up hook survives, and only it.
            assert restored._engine.after_chunk == [restored._roll_up]
        if kind == "rebalancing":
            assert restored._boundary_hooks == []

    def test_checkpoint_through_a_live_pool_equals_a_serial_one(self, tmp_path):
        stream = chain3_stream(160, seed=47)

        def build():
            return ShardedIngestor(
                chain3(), k=4, num_shards=2, chunk_size=20, rng=random.Random(48)
            )

        serial, pooled = build(), build()
        serial.ingest(stream)
        pooled.ingest_parallel(stream)
        serial.save(tmp_path / "serial.ckpt")
        pooled.save(tmp_path / "pooled.ckpt")
        pooled.close_pool()
        a = ShardedIngestor.restore(tmp_path / "serial.ckpt")
        b = ShardedIngestor.restore(tmp_path / "pooled.ckpt")
        assert a.shard_samples() == b.shard_samples()
        assert a._rng.getstate() == b._rng.getstate()
        assert [s._rng.getstate() for s in a.samplers] == [
            s._rng.getstate() for s in b.samplers
        ]
        for key in ("tuples_ingested", "batches_ingested", "broadcast_deliveries",
                    "relation_deliveries", "shard_tuples"):
            assert a.statistics()[key] == b.statistics()[key]
        assert [i.tuples_ingested for i in a.ingestors] == [
            i.tuples_ingested for i in b.ingestors
        ]
        assert [s.statistics() for s in a.samplers] == [
            s.statistics() for s in b.samplers
        ]


class _QueryOnlySampler:
    """A backend with per-tuple ``insert`` only: its lane is the
    ``chunk_apply`` fallback closure, which a pickle cannot carry."""

    def __init__(self, query):
        self.query = query
        self.rows: List[tuple] = []

    def insert(self, relation, row):
        self.rows.append((relation, tuple(row)))

    @property
    def sample(self):
        return list(self.rows)

    def statistics(self):
        return {"rows": len(self.rows)}


class TestRoundTrips:
    def test_async_round_trip_resumes_bit_identically(self, tmp_path):
        stream = chain3_stream(200, seed=51)

        def build():
            return AsyncIngestor(
                ShardedIngestor(chain3(), k=4, num_shards=2, chunk_size=25,
                                rng=random.Random(52)),
                chunk_size=25,
            )

        with build() as uninterrupted:
            uninterrupted.ingest(stream)
            expected = uninterrupted.target.shard_samples()
        with build() as first:
            first.ingest(stream[:100])
            first.save(tmp_path / "async.ckpt")
        with AsyncIngestor.restore(tmp_path / "async.ckpt") as resumed:
            assert resumed.at_boundary
            resumed.ingest(stream[100:])
            assert resumed.target.shard_samples() == expected
            assert resumed.chunks_submitted == 8

    def test_fanout_round_trip_rebinds_every_lane(self, tmp_path):
        stream = chain3_stream(200, seed=53)

        def build():
            fan = FanoutIngestor(chunk_size=25, rng=random.Random(54))
            fan.register("rj", lambda rng: ReservoirJoin(chain3(), 4, rng=rng))
            fan.add("plain", _QueryOnlySampler(chain3()))
            fan.add("sharded", ShardedIngestor(chain3(), k=4, num_shards=2,
                                               chunk_size=25, rng=random.Random(55)))
            return fan

        uninterrupted = build().ingest(stream)
        first = build().ingest(stream[:100])
        first.save(tmp_path / "fan.ckpt")
        resumed = FanoutIngestor.restore(tmp_path / "fan.ckpt")
        resumed.ingest(stream[100:])
        assert resumed.backend("rj").sample == uninterrupted.backend("rj").sample
        assert resumed.backend("plain").rows == uninterrupted.backend("plain").rows
        assert (resumed.backend("sharded").shard_samples()
                == uninterrupted.backend("sharded").shard_samples())
        assert resumed.backend_seed("rj") == uninterrupted.backend_seed("rj")
        assert resumed.statistics()["tuples_ingested"] == 200
