"""Property: a stream rebuilt in bulk equals the stream pushed chunk by chunk.

Recovery groups each stream's journaled chunks and appends every
channel once.  Whatever the streams, chunk lengths (empty chunks and
chunks that omit a channel included), subscriptions interleaved with
the pushes and the point where the shard dies, the recovered shard
must hold bitwise the live shard's samples, sequence numbers and chunk
count, and close every subscription with the live shard's event log.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ConditionService, Submission

CHANNELS = ("ACC_X", "ACC_Y", "ACC_Z")

#: (channel read, condition): one per stream-state flavour.
CONDITIONS = (
    ("ACC_X", "ACC_X -> movingAvg(id=1, params={10});"
              "1 -> minThreshold(id=2, params={0.4}); 2 -> OUT;"),
    ("ACC_Y", "ACC_Y -> localExtrema(id=1, params={max, 0.3, 10, 3});"
              "1 -> OUT;"),
    ("ACC_Z", "ACC_Z -> expMovingAvg(id=1, params={0.5});"
              "1 -> maxThreshold(id=2, params={0.1}); 2 -> OUT;"),
)


def _columns(service, streams):
    """Per stream: next seq and each channel's samples, as bytes."""
    state = {}
    for tenant, stream in streams:
        buffer = service._ingest._buffers[(tenant, stream)]
        spans, _ = buffer.spans_since({}, buffer.channels)
        state[(tenant, stream)] = (
            service.stream_cursor(tenant, stream),
            {name: span.values.tobytes() for name, span in spans.items()},
        )
    return state


@st.composite
def scripts(draw):
    """Streams (tenant, name, channels, rate) and a list of operations."""
    streams = []
    for k in range(draw(st.integers(1, 3))):
        channels = draw(
            st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=3,
                     unique=True)
        )
        rate = draw(st.sampled_from([25.0, 50.0]))
        streams.append((f"t{k % 2}", f"s{k}", tuple(sorted(channels)), rate))
    push = st.tuples(
        st.just("push"),
        st.integers(0, len(streams) - 1),
        st.lists(st.none() | st.integers(0, 30), min_size=3, max_size=3),
    )
    sub = st.tuples(
        st.just("sub"),
        st.integers(0, len(streams) - 1),
        st.integers(0, len(CONDITIONS) - 1),
    )
    pump = st.tuples(st.just("pump"))
    ops = draw(
        st.lists(st.one_of(push, push, sub, pump), min_size=1, max_size=24)
    )
    kill = draw(st.integers(0, len(ops)))
    return streams, ops, kill


@given(script=scripts(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_bulk_rebuild_equals_per_chunk_replay(script, seed):
    streams, ops, kill = script
    rng = np.random.default_rng(seed)
    seqs = [0] * len(streams)

    def apply(services, op):
        if op[0] == "pump":
            for service in services:
                service.pump()
            return
        tenant, name, channels, rate = streams[op[1]]
        if op[0] == "push":
            samples = {
                channel: rng.normal(0.3, 0.5, size=n)
                for channel, n in zip(channels, op[2])
                if n is not None
            }
            rates = {c: rate for c in channels} if seqs[op[1]] == 0 else None
            for service in services:
                assert service.push_chunk(tenant, name, seqs[op[1]], samples,
                                          rate_hz=rates)
            seqs[op[1]] += 1
            return
        channel, il = CONDITIONS[op[2]]
        if seqs[op[1]] == 0 or channel not in channels:
            return
        ids = {
            service.subscribe_stream(Submission(tenant, name, il=il))
            for service in services
        }
        assert len(ids) == 1 and isinstance(ids.pop(), int)

    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        live = ConditionService(traces={}, journal=workdir / "live.wal")
        recovered = None
        try:
            for op in ops[:kill]:
                apply([live], op)
            # The shard dies just after a round made everything durable.
            live.pump()
            shutil.copy(workdir / "live.wal", workdir / "dead.wal")
            recovered, stats = ConditionService.recover(
                workdir / "dead.wal", traces={}
            )
            opened = [(t, s) for (t, s, _, _), n in zip(streams, seqs) if n]
            assert (stats.streams, stats.chunks) == (len(opened), sum(seqs))
            assert _columns(recovered, opened) == _columns(live, opened)

            for op in ops[kill:]:
                apply([live, recovered], op)
            # Even every stream's channels out, so it assembles.
            for k, (tenant, name, channels, rate) in enumerate(streams):
                if not seqs[k]:
                    continue
                counts = live._ingest._buffers[(tenant, name)].counts()
                top = max(counts.values())
                apply([live, recovered],
                      ("push", k, [top - counts[c] for c in channels]))
            opened = [(t, s) for (t, s, _, _), n in zip(streams, seqs) if n]
            assert _columns(recovered, opened) == _columns(live, opened)
            assert (
                recovered.metrics().stream_chunks
                == live.metrics().stream_chunks
                == sum(seqs)
            )
            for tenant, name in opened:
                buffer = live._ingest._buffers[(tenant, name)]
                if buffer.total_samples:
                    trace = buffer.to_trace()
                    again = recovered._ingest._buffers[
                        (tenant, name)
                    ].to_trace()
                    for channel in trace.channels:
                        assert (
                            again.data[channel].tobytes()
                            == trace.data[channel].tobytes()
                        )
                assert recovered.close_stream(tenant, name) == (
                    live.close_stream(tenant, name)
                )
        finally:
            if recovered is not None:
                recovered.shutdown()
            live.shutdown(drain=False)
