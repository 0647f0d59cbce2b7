"""Property-based tests: replayed shared front ends answer exactly.

A merged run records the per-round outputs of the front end its rows
share, and every later hub run on that recording replays them.  For
drawn mixes of per-tenant audio conditions (siren FFT, music, phrase,
with drawn band limits), accelerometer conditions sharing a
``movingAvg`` front end, and a pair sharing an ``expMovingAvg`` front
end (not chunk-invariant, so only the round interpreter runs it and the
replay must be exact round by round), over 2-3 recordings, arriving in
drawn batches (merged first, lone first, or mixed), every answer under
every switch setting must equal the rounds oracle bit for bit, and a
recorded array must refuse writes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.manager import validate_condition
from repro.hub.costmodel import CostModel
from repro.sim.engine import RunContext, program_fingerprint
from repro.traces.robot import RobotRunConfig, generate_robot_run
from tests.audio_conditions import AUDIO_BANDS, audio_clips, audio_condition

#: Accelerometer tails over one shared ``movingAvg`` front end.
MOVING_AVG = (
    "ACC_X -> movingAvg(id=1, params={10}); "
    "1 -> minThreshold(id=2, params={%.3f}); 2 -> OUT;",
    "ACC_X -> movingAvg(id=1, params={10}); "
    "1 -> maxThreshold(id=2, params={%.3f}); 2 -> OUT;",
)
#: A pair over one shared ``expMovingAvg`` front end.
EXP_MOVING_AVG = (
    "ACC_Y -> expMovingAvg(id=1, params={0.5}); "
    "1 -> maxThreshold(id=2, params={%.3f}); 2 -> OUT;",
    "ACC_Y -> expMovingAvg(id=1, params={0.5}); "
    "1 -> minThreshold(id=2, params={%.3f}); 2 -> OUT;",
)

#: Every switch setting; the store lives under ``cache``.
SWITCHES = (
    {},
    {"compiled": False},
    {"batch": False},
    {"shape_batch": False},
    {"cache": False},
)


@pytest.fixture(scope="module")
def recordings():
    robots = tuple(
        generate_robot_run(
            RobotRunConfig(group=2, duration_s=60.0, seed=70 + k)
        )
        for k in range(3)
    )
    return {"MIC": audio_clips(), "ACC": robots}


#: Front-end families a drawn group of conditions shares.
FAMILIES = ("siren", "music/phrase", "movingAvg", "expMovingAvg")


def _condition(family):
    """One condition of ``family``, as ``(kind, text, pinned)``."""
    if family == "siren":
        return st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
            lambda fractions: ("MIC", audio_condition(0, fractions), False)
        )
    if family == "music/phrase":
        return st.integers(1, 2).flatmap(
            lambda k: st.tuples(
                *[st.floats(0.0, 1.0) for _ in AUDIO_BANDS[k]]
            ).map(
                lambda fractions: ("MIC", audio_condition(k, fractions), False)
            )
        )
    templates = MOVING_AVG if family == "movingAvg" else EXP_MOVING_AVG
    return st.tuples(
        st.sampled_from(templates), st.floats(-2.0, 2.0), st.booleans()
    ).map(lambda drawn: ("ACC", drawn[0] % drawn[1], drawn[2]))


def _group():
    """2-6 conditions sharing one front end on one recording."""
    return st.tuples(
        st.sampled_from(FAMILIES), st.integers(0, 2)
    ).flatmap(
        lambda drawn: st.lists(_condition(drawn[0]), min_size=2, max_size=6)
        .map(lambda members: [(drawn[1], member) for member in members])
    )


def _batches(order, count, sizes):
    """Batch sizes for ``count`` arrivals in the drawn ``order``."""
    if order == "merged first":
        head = max(2, count // 2)
        return [head] + [1] * (count - head)
    if order == "lone first":
        lone = count // 3
        return [1] * lone + [count - 2 * lone] + [1] * lone
    batches, left = [], count
    for size in sizes:
        if left <= 0:
            break
        batches.append(min(size, left))
        left -= batches[-1]
    return batches + [1] * left


@given(
    groups=st.lists(_group(), min_size=1, max_size=3),
    count=st.integers(2, 3),
    order=st.sampled_from(["merged first", "lone first", "mixed"]),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=15),
    chunk_seconds=st.sampled_from([1.0, 2.5, 4.0]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_replayed_front_ends_equal_the_oracle(
    recordings, groups, count, order, sizes, chunk_seconds, data
):
    members = [member for group in groups for member in group]
    arrivals = data.draw(st.permutations(members))
    pairs = []
    table = {}
    for where, (kind, text, pinned) in arrivals:
        graph = validate_condition(text)[1]
        pairs.append((graph, recordings[kind][where % count]))
        if pinned:
            # Pinned to the round interpreter, so several on one
            # recording merge; unpinned ones run compiled.
            table[program_fingerprint(graph.program)] = "rounds"
    oracle = RunContext(cache=False, compiled=False)
    expected = [
        oracle.wake_events(graph, trace, chunk_seconds)
        for graph, trace in pairs
    ]
    for switches in SWITCHES:
        context = RunContext(cost_model=CostModel(table=table), **switches)
        answers = []
        start = 0
        for size in _batches(order, len(pairs), sizes):
            answers.extend(context.wake_events_batch(
                pairs[start:start + size], chunk_seconds
            ))
            start += size
        assert answers == expected, switches
        for stored in context._shared.values():
            for rounds in stored.values():
                for chunk in rounds:
                    with pytest.raises(ValueError, match="read-only"):
                        chunk.values[...] = 0.0
