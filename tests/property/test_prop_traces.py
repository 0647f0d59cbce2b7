"""Property-based tests on the trace generators.

Whatever the seed, duration and variant, a generated trace must be
internally consistent: samples match the declared duration and rate,
events lie inside the trace with the right labels and metadata, and
generation is a pure function of its config.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.base import GroundTruthEvent, Trace
from repro.traces.compose import concat_traces
from repro.traces.audio import AudioEnvironment, AudioTraceConfig, generate_audio_trace
from repro.traces.human import HumanScenario, HumanTraceConfig, generate_human_trace
from repro.traces.robot import (
    ACTIVITY_SPLIT,
    GROUP_IDLE_FRACTION,
    RobotRunConfig,
    generate_robot_run,
)
from repro.traces.stream import StreamBuffer

seeds = st.integers(0, 2**31 - 1)


@given(
    seed=seeds,
    group=st.sampled_from([1, 2, 3]),
    duration=st.floats(120.0, 300.0),
)
@settings(max_examples=15, deadline=None)
def test_robot_trace_invariants(seed, group, duration):
    trace = generate_robot_run(
        RobotRunConfig(group=group, duration_s=duration, seed=seed)
    )
    rate = trace.rate_hz["ACC_X"]
    for channel in ("ACC_X", "ACC_Y", "ACC_Z"):
        assert abs(len(trace.data[channel]) - duration * rate) <= 1
        assert np.all(np.isfinite(trace.data[channel]))
    labels = {e.label for e in trace.events}
    assert labels <= {"walking", "transition", "headbutt"}
    for event in trace.events:
        assert 0.0 <= event.start <= event.end <= trace.duration + 1e-9
    # Walking bouts carry in-bout step times.
    for bout in trace.events_with_label("walking"):
        for t in bout.meta("step_times"):
            assert bout.start - 1e-9 <= t <= bout.end + 1e-9
    # Activity roughly follows the group's budget (loose bounds: the
    # scheduler truncates at the trace end).
    active = trace.event_seconds()
    budget = duration * (1.0 - GROUP_IDLE_FRACTION[group])
    assert active <= budget * 1.35 + 10.0


@given(
    seed=seeds,
    scenario=st.sampled_from(list(HumanScenario)),
    duration=st.floats(150.0, 300.0),
)
@settings(max_examples=10, deadline=None)
def test_human_trace_invariants(seed, scenario, duration):
    trace = generate_human_trace(
        HumanTraceConfig(scenario=scenario, duration_s=duration, seed=seed)
    )
    assert {e.label for e in trace.events} <= {"walking", "other_motion"}
    assert trace.events_with_label("walking")
    for event in trace.events:
        assert 0.0 <= event.start <= event.end <= trace.duration + 1e-9
    assert np.all(np.isfinite(trace.data["ACC_Z"]))


@given(
    seed=seeds,
    environment=st.sampled_from(list(AudioEnvironment)),
    duration=st.floats(90.0, 180.0),
)
@settings(max_examples=10, deadline=None)
def test_audio_trace_invariants(seed, environment, duration):
    trace = generate_audio_trace(
        AudioTraceConfig(environment=environment, duration_s=duration, seed=seed)
    )
    assert {e.label for e in trace.events} <= {"siren", "music", "speech"}
    events = sorted(trace.events, key=lambda e: e.start)
    for a, b in zip(events, events[1:]):
        assert a.end <= b.start + 1e-9  # placement never overlaps
    speech = trace.events_with_label("speech")
    if speech:
        assert any(e.meta("phrase") for e in speech)  # guaranteed target
    assert np.all(np.isfinite(trace.data["MIC"]))
    assert np.abs(trace.data["MIC"]).max() < 3.0


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_slice_concat_roundtrip_bitwise(data):
    """Cutting a trace into pieces and splicing them back is lossless.

    ``concat_traces`` over ``Trace.slice`` pieces must round-trip the
    original **bit-identically**: channel arrays, duration, event
    times, and time-valued event metadata (``*_times``, re-based out
    by slice and back in by concat).  Cut points are drawn at integer
    seconds in the gaps between events and all event times are dyadic
    rationals, so every re-basing is exact float arithmetic — any
    mismatch is a real offset bug, not rounding.
    """
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    n_sec = data.draw(st.integers(4, 12), label="duration_s")
    rate = 50.0
    # At most one event per integer-second cell, strictly inside it, so
    # integer cut points never split an event.
    cells = data.draw(
        st.sets(st.integers(0, n_sec - 1), min_size=1), label="event_cells"
    )
    events = [
        GroundTruthEvent.make(
            "walking", c + 0.25, c + 0.75, step_times=(c + 0.25, c + 0.5)
        )
        for c in sorted(cells)
    ]
    trace = Trace(
        name="synthetic",
        data={
            "ACC_X": rng.normal(size=int(n_sec * rate)),
            "ACC_Y": rng.normal(size=int(n_sec * rate)),
        },
        rate_hz={"ACC_X": rate, "ACC_Y": rate},
        duration=float(n_sec),
        events=events,
    )
    cuts = data.draw(
        st.sets(st.integers(1, n_sec - 1), min_size=1), label="cuts"
    )
    bounds = [0.0] + [float(c) for c in sorted(cuts)] + [float(n_sec)]
    pieces = [
        trace.slice(a, b) for a, b in zip(bounds, bounds[1:])
    ]
    # Slice re-bases *_times metadata along with the event itself.
    for piece in pieces:
        for event in piece.events:
            for t in event.meta("step_times"):
                assert event.start <= t <= event.end
    rebuilt = concat_traces(pieces)
    assert rebuilt.duration == trace.duration
    for channel in trace.data:
        assert rebuilt.data[channel].dtype == trace.data[channel].dtype
        assert np.array_equal(rebuilt.data[channel], trace.data[channel])
        assert np.array_equal(rebuilt.times(channel), trace.times(channel))
    assert rebuilt.events == trace.events
    assert rebuilt.metadata["segments"] == [
        (piece.name, a, b)
        for piece, (a, b) in zip(pieces, zip(bounds, bounds[1:]))
    ]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stream_buffer_storage_contract(data):
    """A growing StreamBuffer hands out stable, read-only spans.

    Random per-channel chunk lengths (absent, empty and uneven
    channels) and random cursor schedules over channel subsets.
    ``ACC_X`` gets a 1-sample first chunk and then at least 8 samples
    per chunk, so its column crosses several capacity doublings while
    spans handed out before them are still held.  Then: (a) each
    cursor's spans concatenate bitwise to ``to_trace()`` and
    ``Trace.times``; (b) every span is bitwise what it was when handed
    out; (c) spans and assembled channels refuse writes; (d)
    ``spans_since`` returns and advances only the named channels.
    """
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    rate = data.draw(st.sampled_from([25.0, 50.0, 100.0]), label="rate")
    channels = ("ACC_X", "ACC_Y", "ACC_Z")
    buffer = StreamBuffer("stream", {name: rate for name in channels})
    subsets = [("ACC_X",), ("ACC_Y", "ACC_Z"), channels]
    cursors = [{} for _ in subsets]
    # Per cursor and channel: (span, times copy, values copy).
    handed = [{name: [] for name in subset} for subset in subsets]

    def push(lengths):
        chunk = {name: rng.normal(size=n) for name, n in lengths.items()}
        assert buffer.push(buffer.next_seq, chunk)

    def walk(k):
        spans, moved = buffer.spans_since(cursors[k], subsets[k])
        counts = buffer.counts()
        assert list(spans) == list(subsets[k])
        assert moved == {name: counts[name] for name in subsets[k]}
        cursors[k] = moved
        for name, span in spans.items():
            handed[k][name].append(
                (span, span.times.copy(), span.values.copy())
            )
            if len(span):
                with pytest.raises(ValueError):
                    span.values[0] = 0.0

    push({"ACC_X": 1})
    for _ in range(data.draw(st.integers(16, 30), label="pushes")):
        lengths = {"ACC_X": data.draw(st.integers(8, 40))}
        for name in ("ACC_Y", "ACC_Z"):
            n = data.draw(st.none() | st.integers(0, 40))
            if n is not None:
                lengths[name] = n
        push(lengths)
        walks = st.lists(st.integers(0, len(subsets) - 1), max_size=2)
        for k in data.draw(walks):
            walk(k)
    # Even the channels out so the assembled trace is consistent.
    counts = buffer.counts()
    push({name: max(counts.values()) - n for name, n in counts.items()})
    for k in range(len(subsets)):
        walk(k)

    trace = buffer.to_trace()
    for k, subset in enumerate(subsets):
        for name in subset:
            for span, times, values in handed[k][name]:
                assert span.times.tobytes() == times.tobytes()
                assert span.values.tobytes() == values.tobytes()
            spans = [span for span, _, _ in handed[k][name]]
            assert (
                np.concatenate([s.values for s in spans]).tobytes()
                == trace.data[name].tobytes()
            )
            assert (
                np.concatenate([s.times for s in spans]).tobytes()
                == trace.times(name).tobytes()
            )
    for name in channels:
        with pytest.raises(ValueError):
            trace.data[name][0] = 0.0


@given(seed=seeds, group=st.sampled_from([1, 2, 3]))
@settings(max_examples=6, deadline=None)
def test_robot_generation_deterministic(seed, group):
    config = RobotRunConfig(group=group, duration_s=120.0, seed=seed)
    a = generate_robot_run(config)
    b = generate_robot_run(config)
    assert a.events == b.events
    for channel in a.data:
        assert np.array_equal(a.data[channel], b.data[channel])
