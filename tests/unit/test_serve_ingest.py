"""Streaming ingestion through the service: chunks in, wake events out.

The contract under test is the tentpole identity: a subscription fed a
stream chunk by chunk — across pump rounds, device retries, even a
crash and journal recovery in the middle — emits **bit-identical**
wake events to running the same condition over the finally assembled
trace whole.  Plus the request-path furniture around it: structured
rejections, idempotent re-push, stream-only pump rounds, and the new
``stream_*`` metrics fields.
"""

import numpy as np
import pytest

from repro.api.manager import validate_condition
from repro.errors import TraceError
from repro.serve.ingest import StreamIngest
from repro.sim.simulator import run_wakeup_condition
from repro.serve import (
    HUB_CATALOGS,
    ConditionService,
    Rejected,
    ShardCluster,
    Submission,
    read_journal,
)

RATE = 50.0

#: One template per stream-state flavour: bounded incremental replay,
#: chunk-invariant whole-graph replay (debounced extrema), and the
#: round-replica fallback (expMovingAvg is round-seeded).
CONDITIONS = {
    "incremental": (
        "ACC_X -> movingAvg(id=1, params={10});"
        "1 -> minThreshold(id=2, params={0.4});"
        "2 -> OUT;"
    ),
    "chunked_replay": (
        "ACC_X -> localExtrema(id=1, params={max, 0.3, 10, 3});"
        "1 -> OUT;"
    ),
    "round_replay": (
        "ACC_X -> expMovingAvg(id=1, params={0.5});"
        "1 -> maxThreshold(id=2, params={0.1});"
        "2 -> OUT;"
    ),
}


def _chunks(seed=0, count=8, n=100):
    rng = np.random.default_rng(seed)
    return [
        {
            "ACC_X": rng.normal(0.35, 0.35, size=n),
            "ACC_Y": rng.normal(0.7, 0.25, size=n),
        }
        for _ in range(count)
    ]


def _push_all(service, chunks, tenant="t0", stream="s0", pump_every=1,
              start=0):
    for seq, chunk in enumerate(chunks, start=start):
        service.push_chunk(
            tenant, stream, seq, chunk,
            rate_hz={"ACC_X": RATE, "ACC_Y": RATE} if seq == 0 else None,
        )
        if (seq + 1) % pump_every == 0:
            service.pump()


def _reference(il, chunks, chunk_seconds=4.0):
    """The whole-trace answer: assemble, then one direct engine run."""
    from repro.traces.stream import StreamBuffer
    buffer = StreamBuffer("s0", {"ACC_X": RATE, "ACC_Y": RATE})
    for seq, chunk in enumerate(chunks):
        buffer.push(seq, chunk)
    _, graph, _ = validate_condition(il, HUB_CATALOGS["default"])
    return tuple(run_wakeup_condition(graph, buffer.to_trace(), chunk_seconds))


def _history(service, tenant="t0", stream="s0"):
    """A shard's assembled stream: everything pushed to it so far."""
    return service._ingest._buffers[(tenant, stream)].to_trace()


class TestStreamedEqualsWhole:
    @pytest.mark.parametrize("name", sorted(CONDITIONS))
    def test_streamed_events_bit_identical(self, name):
        il = CONDITIONS[name]
        chunks = _chunks(seed=3)
        service = ConditionService(traces={})
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=il)
        )
        assert isinstance(sub_id, int)
        _push_all(service, chunks[1:], pump_every=3, start=1)
        logs = service.close_stream("t0", "s0")
        assert logs[sub_id] == _reference(il, chunks)
        assert service.stream_results(sub_id) == logs[sub_id]

    def test_many_subscriptions_one_stream(self):
        chunks = _chunks(seed=9)
        service = ConditionService(traces={})
        _push_all(service, chunks[:1])
        subs = {
            name: service.subscribe_stream(
                Submission(tenant="t0", trace="s0", il=il)
            )
            for name, il in CONDITIONS.items()
        }
        _push_all(service, chunks[1:], pump_every=2, start=1)
        logs = service.close_stream("t0", "s0")
        for name, il in CONDITIONS.items():
            assert logs[subs[name]] == _reference(il, chunks), name

    def test_duplicate_seq_does_not_skew_results(self):
        il = CONDITIONS["incremental"]
        chunks = _chunks(seed=5)
        service = ConditionService(traces={})
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=il)
        )
        for seq, chunk in enumerate(chunks[1:], start=1):
            service.push_chunk("t0", "s0", seq, chunk)
            # Reconnect retry: the same seq again is a counted no-op.
            assert not service.push_chunk("t0", "s0", seq, chunk)
            service.pump()
        assert service.close_stream("t0", "s0")[sub_id] == _reference(
            il, chunks
        )


class TestRequestPath:
    def test_app_submission_rejected(self):
        service = ConditionService(traces={})
        service.push_chunk(
            "t0", "s0", 0, _chunks(count=1)[0],
            rate_hz={"ACC_X": RATE, "ACC_Y": RATE},
        )
        rejected = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", app="pedometer")
        )
        assert isinstance(rejected, Rejected)
        assert rejected.reason == "invalid_subscription"

    def test_unknown_stream_rejected(self):
        service = ConditionService(traces={})
        rejected = service.subscribe_stream(
            Submission(tenant="t0", trace="nope", il=CONDITIONS["incremental"])
        )
        assert isinstance(rejected, Rejected)
        assert "no chunks yet" in rejected.detail

    def test_missing_channel_rejected(self):
        service = ConditionService(traces={})
        service.push_chunk(
            "t0", "s0", 0, {"ACC_X": np.zeros(100)}, rate_hz={"ACC_X": RATE}
        )
        rejected = service.subscribe_stream(
            Submission(
                tenant="t0", trace="s0",
                il="MIC -> maxThreshold(id=1, params={0.5}); 1 -> OUT;",
            )
        )
        assert isinstance(rejected, Rejected)
        assert "MIC" in rejected.detail

    def test_first_chunk_must_carry_rate(self):
        from repro.errors import ServiceError
        service = ConditionService(traces={})
        with pytest.raises(ServiceError, match="rate_hz"):
            service.push_chunk("t0", "s0", 0, {"ACC_X": np.zeros(10)})

    def test_sequence_gap_raises(self):
        service = ConditionService(traces={})
        service.push_chunk(
            "t0", "s0", 0, {"ACC_X": np.zeros(100)}, rate_hz={"ACC_X": RATE}
        )
        with pytest.raises(TraceError, match="chunks must append in order"):
            service.push_chunk("t0", "s0", 2, {"ACC_X": np.zeros(100)})

    def test_refused_first_chunk_opens_no_stream(self):
        """A subscription over a stream whose only chunk was refused
        would be journaled without any chunk record to replay it on."""
        service = ConditionService(traces={})
        with pytest.raises(TraceError, match="1-D"):
            service.push_chunk(
                "t0", "s0", 0, {"ACC_X": np.ones((100, 2))},
                rate_hz={"ACC_X": RATE},
            )
        assert service.stream_cursor("t0", "s0") == 0
        rejected = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=CONDITIONS["incremental"])
        )
        assert isinstance(rejected, Rejected)
        assert "no chunks yet" in rejected.detail

    def test_negative_seq_first_chunk_opens_no_stream(self, tmp_path):
        """A first chunk with a negative seq is an idempotent no-op, so
        nothing is journaled for it; a subscription on the stream it
        would open could not be recovered."""
        journal = tmp_path / "shard.journal"
        service = ConditionService(traces={}, journal=journal)
        assert not service.push_chunk(
            "t0", "s0", -1, {"ACC_X": np.zeros(100)},
            rate_hz={"ACC_X": RATE},
        )
        assert service.stream_cursor("t0", "s0") == 0
        rejected = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=CONDITIONS["incremental"])
        )
        assert isinstance(rejected, Rejected)
        assert "no chunks yet" in rejected.detail
        service.pump()
        service.shutdown()
        recovered, stats = ConditionService.recover(journal, traces={})
        recovered.shutdown()
        assert (stats.streams, stats.chunks) == (0, 0)

    def test_stream_cursor_tracks_next_seq(self):
        service = ConditionService(traces={})
        assert service.stream_cursor("t0", "s0") == 0
        for seq, chunk in enumerate(_chunks(count=3)):
            service.push_chunk(
                "t0", "s0", seq, chunk,
                rate_hz={"ACC_X": RATE, "ACC_Y": RATE} if seq == 0 else None,
            )
        assert service.stream_cursor("t0", "s0") == 3


class TestPumpAndMetrics:
    def test_stream_only_pump_advances(self):
        service = ConditionService(traces={})
        chunks = _chunks(seed=1, count=2)
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=CONDITIONS["incremental"])
        )
        assert service.metrics().stream_backlog > 0
        responses = service.pump()  # no queued submissions: stream-only
        assert responses == []
        snap = service.metrics()
        assert snap.stream_backlog == 0
        assert snap.stream_lag_s == 0.0
        assert snap.stream_chunks == 1
        assert snap.stream_subscriptions == 1
        assert snap.stream_rounds > 0
        assert service.stream_results(sub_id)  # events already emitted

    def test_occupancy_stacks_same_template(self):
        """Same-batch_key subscriptions share each round's dispatches."""
        service = ConditionService(traces={})
        chunks = _chunks(seed=2)
        thresholds = (0.2, 0.3, 0.4, 0.5)
        _push_all(service, chunks[:1])
        for threshold in thresholds:
            result = service.subscribe_stream(
                Submission(
                    tenant="t0", trace="s0",
                    il=(
                        "ACC_X -> movingAvg(id=1, params={10});"
                        f"1 -> minThreshold(id=2, params={{{threshold}}});"
                        "2 -> OUT;"
                    ),
                )
            )
            assert isinstance(result, int)
        _push_all(service, chunks[1:], pump_every=1, start=1)
        snap = service.metrics()
        assert snap.stream_cells >= len(thresholds) * snap.stream_rounds
        assert snap.stream_occupancy >= len(thresholds)

    def test_empty_pump_stays_noop(self):
        service = ConditionService(traces={})
        assert service.pump() == []
        assert service.metrics().stream_rounds == 0


class TestRecovery:
    def test_mid_stream_crash_recovers_bit_identical(self, tmp_path):
        il = CONDITIONS["incremental"]
        chunks = _chunks(seed=11)
        journal = tmp_path / "shard.journal"

        service = ConditionService(traces={}, journal=journal)
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=il)
        )
        for seq in range(1, 5):
            service.push_chunk("t0", "s0", seq, chunks[seq])
            service.pump()
        # Crash: a new service rebuilds buffers + subscriptions from the
        # journal's chunk/sub records and catches the cursor up.
        recovered, _ = ConditionService.recover(journal, traces={})
        resync = recovered.stream_cursor("t0", "s0")
        assert resync == 5
        # The device re-pushes from the resync point (idempotent dupes
        # below it would be no-ops) and the drive finishes normally.
        for seq in range(resync, len(chunks)):
            recovered.push_chunk("t0", "s0", seq, chunks[seq])
            recovered.pump()
        logs = recovered.close_stream("t0", "s0")
        assert logs[sub_id] == _reference(il, chunks)
        recovered.shutdown()
        # The pre-crash service closes last and without draining:
        # closing it any earlier would flush records the crash loses.
        service.shutdown(drain=False)

    def test_unflushed_chunks_fall_off_and_repush(self, tmp_path):
        """Chunks pushed but never flushed are simply not applied after
        recovery; the resync cursor tells the device where to resume."""
        il = CONDITIONS["incremental"]
        chunks = _chunks(seed=13)
        journal = tmp_path / "shard.journal"

        service = ConditionService(traces={}, journal=journal)
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=il)
        )
        service.pump()  # flushes chunk 0 + the subscription
        # These two never hit a pump, so they are buffered, not durable.
        service.push_chunk("t0", "s0", 1, chunks[1])
        service.push_chunk("t0", "s0", 2, chunks[2])

        recovered, _ = ConditionService.recover(journal, traces={})
        resync = recovered.stream_cursor("t0", "s0")
        assert resync == 1
        for seq in range(resync, len(chunks)):
            recovered.push_chunk("t0", "s0", seq, chunks[seq])
            recovered.pump()
        logs = recovered.close_stream("t0", "s0")
        assert logs[sub_id] == _reference(il, chunks)
        recovered.shutdown()
        service.shutdown(drain=False)

    def test_reused_sample_array_keeps_live_equal_to_recovered(self, tmp_path):
        """The journal pickles a chunk at push time; a device reusing its
        array before the pump must not change live history either."""
        il = "ACC_X -> minThreshold(id=1, params={4.0}); 1 -> OUT;"
        cluster = ShardCluster({}, shards=1, journal_dir=tmp_path)
        values = np.full(200, 5.0)
        cluster.push_chunk(
            "t0", "s0", 0, {"ACC_X": values}, rate_hz={"ACC_X": RATE}
        )
        _, sub_id = cluster.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=il)
        )
        values[:] = 0.0
        cluster.pump()
        live = cluster.close_stream("t0", "s0")
        cluster.shutdown()
        recovered, _ = ShardCluster.recover(tmp_path, {}, shards=1)
        replayed = recovered.close_stream("t0", "s0")
        recovered.shutdown()
        assert len(live[sub_id]) == 200
        assert replayed == live

    def test_refused_chunk_keeps_shard_pumping_and_recoverable(
        self, tmp_path
    ):
        il = CONDITIONS["incremental"]
        chunks = _chunks(seed=17)
        journal = tmp_path / "shard.journal"

        service = ConditionService(traces={}, journal=journal)
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=il)
        )
        with pytest.raises(TraceError, match="1-D"):
            service.push_chunk("t0", "s0", 1, {"ACC_X": np.ones((100, 2))})
        assert service.stream_cursor("t0", "s0") == 1
        _push_all(service, chunks[1:], start=1)
        logs = service.close_stream("t0", "s0")
        service.shutdown()
        recovered, _ = ConditionService.recover(journal, traces={})
        replayed = recovered.close_stream("t0", "s0")
        recovered.shutdown()
        assert logs[sub_id] == _reference(il, chunks)
        assert replayed == logs

    def test_chunk_records_hold_float64_bytes(self, tmp_path):
        """Chunk samples are journaled as raw float64 bytes, the dtype
        the stream stores, so int lists and float32 arrays replay bit
        for bit."""
        rng = np.random.default_rng(19)
        chunks = [
            {
                "ACC_X": [int(v) for v in rng.integers(-3, 4, size=100)],
                "ACC_Y": rng.normal(0.7, 0.25, size=100).astype(np.float32),
            }
            for _ in range(4)
        ]
        journal = tmp_path / "shard.journal"
        service = ConditionService(traces={}, journal=journal)
        _push_all(service, chunks[:1])
        sub_id = service.subscribe_stream(
            Submission(tenant="t0", trace="s0", il=CONDITIONS["incremental"])
        )
        _push_all(service, chunks[1:], start=1)
        live = _history(service)
        logs = service.close_stream("t0", "s0")
        service.shutdown()

        journaled = [
            record[6] for record in read_journal(journal).records
            if record[0] == "chunk"
        ]
        assert len(journaled) == len(chunks)
        for chunk, samples in zip(chunks, journaled):
            for name, values in chunk.items():
                assert type(samples[name]) is bytes
                assert samples[name] == (
                    np.asarray(values, dtype=np.float64).tobytes()
                )
        recovered, stats = ConditionService.recover(journal, traces={})
        try:
            assert (stats.streams, stats.chunks) == (1, len(chunks))
            assert "1 streams rebuilt from 4 chunks" in stats.describe()
            rebuilt = _history(recovered)
            for name in live.channels:
                assert rebuilt.data[name].tobytes() == live.data[name].tobytes()
            assert recovered.close_stream("t0", "s0") == logs
            assert logs[sub_id]
        finally:
            recovered.shutdown()

    def test_restore_refuses_a_sequence_gap(self):
        """A stream's journaled chunks must run on from its next seq."""
        def record(seq):
            return ("chunk", "t0", "s0", seq, 0.0, {"ACC_X": RATE},
                    {"ACC_X": np.full(4, float(seq)).tobytes()})

        for seqs in ((0, 2), (1, 2)):
            with pytest.raises(TraceError, match="must append in order"):
                StreamIngest(now=lambda: 0.0).restore(map(record, seqs))
        ingest = StreamIngest(now=lambda: 0.0)
        assert ingest.restore(map(record, (0, 1, 2))) == (1, 3)
        assert ingest.next_seq("t0", "s0") == 3
        assert ingest.chunks == 3
