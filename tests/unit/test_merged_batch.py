"""Merged round-interpreter rows in ``RunContext.wake_events_batch``.

Rows whose tier is ``rounds`` and that read the same channel set of one
trace run as one merged graph; everything else runs as it would alone.
Every answer must equal the unbatched per-pair run.
"""

import pytest

from repro.api.manager import validate_condition
from repro.errors import HubExecutionError
from repro.hub.costmodel import CostModel
from repro.hub.runtime import HubRuntime
from repro.serve.scheduler import Scheduler
from repro.serve.submission import Completed, Submission, Ticket
from repro.sim import engine
from repro.sim.engine import RunContext, program_fingerprint
from tests.audio_conditions import (
    REGISTRY_AUDIO_APPS,
    audio_clips,
    audio_condition,
    registry_condition,
)

ACC_LOW = (
    "ACC_X -> movingAvg(id=1, params={10}); "
    "1 -> minThreshold(id=2, params={3.0}); 2 -> OUT;"
)
ACC_HIGH = (
    "ACC_X -> movingAvg(id=1, params={10}); "
    "1 -> maxThreshold(id=2, params={-3.0}); 2 -> OUT;"
)
ACC_TWO_AXES = (
    "ACC_X -> movingAvg(id=1, params={10}); "
    "ACC_Y -> movingAvg(id=2, params={10}); "
    "1,2 -> minOf(id=3); 3 -> minThreshold(id=4, params={1.0}); 4 -> OUT;"
)


def _graph(text):
    return validate_condition(text)[1]


def _pinned(*graphs):
    """A context whose table pins every graph to the round interpreter."""
    table = {program_fingerprint(g.program): "rounds" for g in graphs}
    return RunContext(cost_model=CostModel(table=table))


def _reference(pairs, chunk_seconds=4.0):
    context = RunContext(batch=False)
    return [context.wake_events(g, t, chunk_seconds) for g, t in pairs]


@pytest.fixture(scope="module")
def clips():
    return audio_clips()


@pytest.fixture
def runs(monkeypatch):
    """Every ``HubRuntime.run`` call's tap argument, in call order."""
    calls = []
    run = HubRuntime.run

    def counted(self, rounds, taps=None, **kwargs):
        calls.append(taps)
        return run(self, rounds, taps, **kwargs)

    monkeypatch.setattr(HubRuntime, "run", counted)
    return calls


class TestMergedRows:
    def test_rows_of_one_recording_run_as_one_merged_graph(
        self, clips, runs
    ):
        graphs = [_graph(registry_condition(a)) for a in REGISTRY_AUDIO_APPS]
        pairs = [(g, clip) for clip in clips[:2] for g in graphs]
        expected = _reference(pairs)
        runs.clear()
        context = RunContext()
        assert context.wake_events_batch(pairs) == expected
        assert any(expected)
        assert context.stats.merge_rounds == 2
        assert context.stats.merged_cells == 6
        assert context.stats.merge_shared_nodes > 0
        assert context.stats.hub_misses == 6
        # One interpreter pass per recording, each over all three taps.
        assert [len(taps) for taps in runs] == [3, 3]

    def test_different_channel_sets_of_one_trace_never_share_a_group(
        self, robot_trace
    ):
        graphs = [_graph(t) for t in (ACC_LOW, ACC_HIGH, ACC_TWO_AXES)]
        pairs = [(g, robot_trace) for g in graphs]
        context = _pinned(*graphs)
        assert context.wake_events_batch(pairs) == _reference(pairs)
        assert context.stats.merge_rounds == 1
        assert context.stats.merged_cells == 2

    def test_a_lone_rounds_row_and_compiled_rows_never_merge(
        self, robot_trace, runs
    ):
        lone, *compiled = [_graph(t) for t in (ACC_LOW, ACC_HIGH, ACC_TWO_AXES)]
        pairs = [(g, robot_trace) for g in (lone, *compiled)]
        expected = _reference(pairs)
        runs.clear()
        context = _pinned(lone)
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.merge_rounds == 0
        assert context.stats.merged_cells == 0
        assert runs == [None]

    def test_duplicate_pairs_share_their_row(self, clips):
        graphs = [_graph(registry_condition(a)) for a in REGISTRY_AUDIO_APPS]
        pairs = [(g, clips[0]) for g in graphs] * 2
        context = RunContext()
        results = context.wake_events_batch(pairs)
        assert results == _reference(pairs)
        assert context.stats.merged_cells == 3
        assert context.stats.hub_misses == 3

    def test_missing_channel_raises_before_anything_runs(
        self, clips, runs
    ):
        graphs = [_graph(registry_condition(a)) for a in REGISTRY_AUDIO_APPS]
        pairs = [(g, clips[0]) for g in graphs] + [
            (_graph(ACC_LOW), clips[0])
        ]
        context = RunContext()
        with pytest.raises(HubExecutionError, match="lacks channels"):
            context.wake_events_batch(pairs)
        assert context.stats.hub_misses == 0
        assert context.stats.merge_rounds == 0
        assert runs == []

    def test_shape_groups_ask_once_and_file_under_both_keys(self, clips):
        texts = [
            audio_condition(0, (0.1, 0.2)),
            audio_condition(0, (0.7, 0.9)),
            audio_condition(1, (0.1, 0.2, 0.3)),
            audio_condition(2, (0.3, 0.6)),
        ]
        graphs = [_graph(t) for t in texts]
        pairs = [(g, clips[0]) for g in graphs]
        context = RunContext()
        asked = []
        choose = context.cost_model.choose
        context.cost_model.choose = (
            lambda key, allowed: asked.append(key) or choose(key, allowed)
        )
        assert context.wake_events_batch(pairs) == _reference(pairs)
        signatures = [context.shape_sig(g) for g in (graphs[0], graphs[2])]
        assert asked == signatures
        assert context.stats.merge_rounds == 1
        assert context.stats.merged_cells == 4
        ledger = context.cost_model.as_dict()
        for graph in graphs:
            fp = program_fingerprint(graph.program)
            assert ledger[fp]["rounds"]["runs"] == 1
        for sig in signatures:
            assert ledger[sig]["rounds"]["runs"] == 2


def test_scheduler_answers_each_request_when_a_merged_run_fails(
    clips, monkeypatch
):
    # A failed merged run propagates out of the batch; the scheduler's
    # per-key fallback then answers every request on its own.
    def broken(graphs):
        raise HubExecutionError("merged run failed")

    monkeypatch.setattr(engine, "merge_graphs", broken)
    texts = [registry_condition(a) for a in REGISTRY_AUDIO_APPS]
    scheduler = Scheduler({clips[0].name: clips[0]}, RunContext())
    entries = [
        (Ticket(k, f"t{k}", 0.0), Submission(f"t{k}", clips[0].name, il=text))
        for k, text in enumerate(texts)
    ]
    responses, engine_runs, _ = scheduler.run_batch(entries, now=1.0)
    expected = _reference([(_graph(t), clips[0]) for t in texts])
    assert engine_runs == len(texts)
    assert all(isinstance(r, Completed) for r in responses)
    assert [r.result for r in responses] == expected
    assert scheduler.merge_rounds == 0
