"""StreamBuffer: append-only growing traces behind streaming ingestion.

The buffer's central identity is what makes incremental evaluation
digest-identical to whole-trace replay: for any cursor, the spans
handed out by ``spans_since`` concatenate to bitwise the same arrays
(and timestamps) ``to_trace`` produces at the end.  These tests pin
that identity plus the push protocol — idempotent duplicates, gap
refusal, fixed channel set — the device resync path leans on.
"""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.stream import StreamBuffer


def _buffer(rate=50.0):
    return StreamBuffer("stream-0", {"ACC_X": rate, "ACC_Y": rate})


def _chunks(seed=0, count=5, n=100):
    rng = np.random.default_rng(seed)
    return [
        {
            "ACC_X": rng.normal(size=n),
            "ACC_Y": rng.normal(size=n),
        }
        for _ in range(count)
    ]


class TestConstruction:
    def test_requires_channels(self):
        with pytest.raises(TraceError, match="no channels"):
            StreamBuffer("s", {})

    def test_requires_positive_rates(self):
        with pytest.raises(TraceError, match="no sampling rate"):
            StreamBuffer("s", {"ACC_X": 0.0})

    def test_channels_sorted(self):
        buffer = StreamBuffer("s", {"ACC_Y": 50.0, "ACC_X": 50.0})
        assert buffer.channels == ("ACC_X", "ACC_Y")


class TestPushProtocol:
    def test_in_order_chunks_apply(self):
        buffer = _buffer()
        for seq, chunk in enumerate(_chunks()):
            assert buffer.push(seq, chunk) is True
        assert buffer.next_seq == 5
        assert buffer.counts() == {"ACC_X": 500, "ACC_Y": 500}
        assert buffer.total_samples == 1000

    def test_duplicate_seq_is_idempotent_noop(self):
        buffer = _buffer()
        chunks = _chunks()
        buffer.push(0, chunks[0])
        before = {name: buffer.counts()[name] for name in buffer.channels}
        # A reconnect retry (or journal replay) re-pushes the same seq.
        assert buffer.push(0, chunks[1]) is False
        assert buffer.counts() == before
        assert buffer.next_seq == 1

    def test_sequence_gap_rejected(self):
        buffer = _buffer()
        buffer.push(0, _chunks()[0])
        with pytest.raises(TraceError, match="seq 2 arrived before seq 1"):
            buffer.push(2, _chunks()[1])

    def test_unknown_channel_rejected(self):
        buffer = _buffer()
        with pytest.raises(TraceError, match="unknown channels"):
            buffer.push(0, {"MIC": np.zeros(10)})

    def test_chunk_may_omit_channels(self):
        buffer = _buffer()
        buffer.push(0, {"ACC_X": np.ones(100)})
        assert buffer.counts() == {"ACC_X": 100, "ACC_Y": 0}
        assert buffer.end_seconds == pytest.approx(2.0)
        assert buffer.watermark_seconds == 0.0

    def test_push_copies_samples(self):
        """A device reusing its sample array after a push changes no
        history: the journal pickled the chunk at push time, so live
        and recovered results would otherwise diverge."""
        buffer = _buffer()
        values = np.full(100, 5.0)
        buffer.push(0, {"ACC_X": values, "ACC_Y": values})
        values[:] = 0.0
        assert np.all(buffer.channel_span("ACC_X", 0, 100).values == 5.0)
        trace = buffer.to_trace()
        assert np.all(trace.data["ACC_X"] == 5.0)
        assert np.all(trace.data["ACC_Y"] == 5.0)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.ones((100, 2)), "must be 1-D"),
            (3.0, "must be 1-D"),
            (["a", "b"], "not numeric"),
        ],
    )
    def test_refused_chunk_applies_no_channel(self, bad, match):
        """Every channel is checked before any is applied, so a refused
        chunk leaves the buffer as it was and its retry applies once."""
        buffer = _buffer()
        with pytest.raises(TraceError, match=match):
            buffer.push(0, {"ACC_X": np.ones(100), "ACC_Y": bad})
        assert buffer.counts() == {"ACC_X": 0, "ACC_Y": 0}
        assert buffer.next_seq == 0
        assert buffer.push(0, {"ACC_X": np.ones(100), "ACC_Y": np.ones(100)})
        assert buffer.counts() == {"ACC_X": 100, "ACC_Y": 100}


class TestSpanIdentity:
    def test_spans_concatenate_to_assembled_trace(self):
        """Walking any cursor schedule reproduces to_trace bitwise."""
        buffer = _buffer()
        chunks = _chunks(seed=7)
        collected = {name: [] for name in buffer.channels}
        cursor = {}
        for seq, chunk in enumerate(chunks):
            buffer.push(seq, chunk)
            if seq % 2 == 0:  # irregular: advance every other push
                spans, cursor = buffer.spans_since(cursor, buffer.channels)
                for name, span in spans.items():
                    if not span.is_empty:
                        collected[name].append(span)
        # Final catch-up.
        spans, cursor = buffer.spans_since(cursor, buffer.channels)
        for name, span in spans.items():
            if not span.is_empty:
                collected[name].append(span)
        trace = buffer.to_trace()
        for name in buffer.channels:
            values = np.concatenate([s.values for s in collected[name]])
            times = np.concatenate([s.times for s in collected[name]])
            assert np.array_equal(values, trace.data[name])
            assert np.array_equal(times, trace.times(name))

    def test_channel_span_matches_trace_times(self):
        buffer = _buffer()
        buffer.push(0, _chunks()[0])
        span = buffer.channel_span("ACC_X", 25, 75)
        trace = buffer.to_trace()
        assert np.array_equal(span.times, trace.times("ACC_X")[25:75])
        assert np.array_equal(span.values, trace.data["ACC_X"][25:75])

    def test_channel_span_clamps_and_empties(self):
        buffer = _buffer()
        buffer.push(0, _chunks()[0])
        assert len(buffer.channel_span("ACC_X", 50, 10_000)) == 50
        assert buffer.channel_span("ACC_X", 100, 100).is_empty

    def test_spans_since_unknown_cursor_key_counts_as_zero(self):
        buffer = _buffer()
        buffer.push(0, _chunks()[0])
        spans, moved = buffer.spans_since({}, buffer.channels)
        assert {name: len(span) for name, span in spans.items()} == {
            "ACC_X": 100, "ACC_Y": 100,
        }
        assert moved == {"ACC_X": 100, "ACC_Y": 100}


class TestToTrace:
    def test_assembled_trace_shape(self):
        buffer = _buffer()
        for seq, chunk in enumerate(_chunks()):
            buffer.push(seq, chunk)
        trace = buffer.to_trace()
        assert trace.name == "stream-0"
        assert trace.duration == pytest.approx(10.0)
        assert trace.metadata == {"kind": "stream", "chunks": 5}
        assert trace.channels == ("ACC_X", "ACC_Y")

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceError, match="no samples"):
            _buffer().to_trace()

    def test_trace_name_override(self):
        buffer = _buffer()
        buffer.push(0, _chunks()[0])
        assert buffer.to_trace(name="replica").name == "replica"
