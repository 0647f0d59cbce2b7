"""Shared front ends: a merged run records them, later runs replay them.

A merged round-interpreter run keeps the per-round outputs of its
frontier nodes (shared by two or more rows, feeding a node fewer rows
use) in its ``RunContext``.  Every later hub run on that recording —
merged, lone compiled or lone rounds — replays them and runs only its
own tail.  Every answer must equal the rounds oracle.
"""

import numpy as np
import pytest

from repro.api.manager import validate_condition
from repro.errors import HubExecutionError
from repro.hub import merge as merge_module
from repro.hub.compile import CompiledPlan, compile_graph
from repro.hub.merge import frontier, merge_graphs, merge_programs
from repro.hub.runtime import HubRuntime, live_nodes, split_into_rounds
from repro.sensors.samples import Chunk
from repro.sim.engine import RunContext
from tests.audio_conditions import (
    audio_clips,
    audio_condition,
    registry_condition,
)

SIREN_FFT = 3
MUSIC_VARIANCES = (2, 7)


def _graph(text):
    return validate_condition(text)[1]


def _fft_rounds(graph, channels, chunk_seconds):
    """A siren graph's events and its fft's per-round outputs."""
    recorded = {SIREN_FFT: []}
    events = HubRuntime(graph).run(
        split_into_rounds(channels, chunk_seconds), record=recorded
    )
    graph.reset()
    return events, recorded[SIREN_FFT]


def _oracle(pairs, chunk_seconds=4.0):
    context = RunContext(cache=False, compiled=False)
    return [context.wake_events(g, t, chunk_seconds) for g, t in pairs]


@pytest.fixture(scope="module")
def clips():
    return audio_clips()


@pytest.fixture
def replays(monkeypatch):
    """``(tier, known node ids)`` of every hub run, in call order."""
    calls = []
    run, execute = HubRuntime.run, CompiledPlan.execute

    def traced_run(self, rounds, taps=None, known=None, record=None):
        calls.append(("rounds", sorted(known or ())))
        return run(self, rounds, taps, known=known, record=record)

    def traced_execute(self, channel_data, known=None):
        calls.append(("compiled", sorted(known or ())))
        return execute(self, channel_data, known)

    monkeypatch.setattr(HubRuntime, "run", traced_run)
    monkeypatch.setattr(CompiledPlan, "execute", traced_execute)
    return calls


class TestFrontier:
    def test_sirens_part_after_their_fft(self):
        graphs = [
            _graph(audio_condition(0, (0.1, 0.2))),
            _graph(audio_condition(0, (0.8, 0.9))),
        ]
        merged = merge_graphs(graphs)
        (node_id,) = frontier(merged)
        assert merged.program.statement_by_id()[node_id].opcode == "fft"

    def test_music_and_phrase_part_after_their_variances(self):
        graphs = [
            _graph(audio_condition(1, (0.1, 0.2, 0.3))),
            _graph(audio_condition(2, (0.4, 0.5))),
        ]
        merged = merge_graphs(graphs)
        opcodes = [
            merged.program.statement_by_id()[node_id].opcode
            for node_id in frontier(merged)
        ]
        assert opcodes == ["stat", "stat"]

    def test_conditions_sharing_nothing_have_no_frontier(self):
        graphs = [
            _graph(audio_condition(0, (0.1, 0.2))),
            _graph(audio_condition(1, (0.1, 0.2, 0.3))),
        ]
        assert frontier(merge_graphs(graphs)) == ()

    def test_merge_graphs_validates_nothing(self, monkeypatch):
        graphs = [
            _graph(audio_condition(0, (0.1, 0.2))),
            _graph(audio_condition(0, (0.5, 0.6))),
        ]
        validated = []
        validate = merge_module.validate_program
        monkeypatch.setattr(
            merge_module, "validate_program",
            lambda program: validated.append(program) or validate(program),
        )
        by_graphs = merge_graphs(graphs)
        assert validated == []
        assert merge_programs([g.program for g in graphs]) == by_graphs
        assert len(validated) == 2


class TestReplay:
    def test_known_outputs_skip_the_nodes_feeding_them(self, clips):
        graph = _graph(audio_condition(0, (0.1, 0.2)))
        channels = clips[0].channel_arrays()
        expected, rounds = _fft_rounds(graph, channels, 4.0)
        assert expected
        for node in graph.nodes[:SIREN_FFT]:
            node.algorithm.process = None  # running one would raise
        replayed = HubRuntime(graph).run(
            split_into_rounds(channels, 4.0), known={SIREN_FFT: rounds}
        )
        assert replayed == expected

    def test_a_plan_takes_the_joined_rounds(self, clips):
        graph = _graph(audio_condition(0, (0.1, 0.2)))
        channels = clips[0].channel_arrays()
        _, rounds = _fft_rounds(graph, channels, 2.5)
        parts = [chunk for chunk in rounds if len(chunk)]
        joined = Chunk.view(
            parts[0].kind,
            np.concatenate([chunk.times for chunk in parts]),
            np.concatenate([chunk.values for chunk in parts]),
            parts[0].rate_hz,
        )
        plan = compile_graph(graph)
        assert plan.execute(channels, {SIREN_FFT: joined}) == (
            plan.execute(channels)
        )

    def test_known_outputs_must_cover_the_rounds(self, clips):
        graph = _graph(audio_condition(0, (0.1, 0.2)))
        channels = clips[0].channel_arrays()
        _, rounds = _fft_rounds(graph, channels, 4.0)
        for wrong in (rounds[:-1], rounds * 2):
            graph.reset()
            with pytest.raises(HubExecutionError, match="cover"):
                HubRuntime(graph).run(
                    split_into_rounds(channels, 4.0),
                    known={SIREN_FFT: wrong},
                )

    def test_live_nodes_stop_at_known_nodes(self):
        graph = _graph(audio_condition(1, (0.1, 0.2, 0.3)))
        everything = {node.node_id for node in graph.nodes}
        assert live_nodes(graph.nodes, (graph.output_id,), ()) == everything
        live = live_nodes(graph.nodes, (graph.output_id,), MUSIC_VARIANCES)
        assert live == everything - {1, 4, 5, 6}


class TestEngineStore:
    def test_later_runs_on_the_recording_replay_the_front_end(
        self, clips, replays
    ):
        merged = [
            _graph(audio_condition(0, (0.1, 0.2))),
            _graph(audio_condition(0, (0.7, 0.8))),
            _graph(audio_condition(1, (0.1, 0.2, 0.3))),
            _graph(audio_condition(2, (0.4, 0.5))),
        ]
        siren = _graph(audio_condition(0, (0.4, 0.5)))
        music = _graph(audio_condition(1, (0.6, 0.7, 0.8)))
        pinned = _graph(registry_condition("sirens"))
        context = RunContext()
        batches = [[(g, clips[0]) for g in merged]] + [
            [(g, clips[0])] for g in (siren, music, pinned)
        ]
        expected = [_oracle(batch) for batch in batches]
        replays.clear()
        for batch, answers in zip(batches, expected):
            assert context.wake_events_batch(batch) == answers
        assert replays == [
            ("rounds", []),
            ("compiled", [SIREN_FFT]),
            ("compiled", list(MUSIC_VARIANCES)),
            ("rounds", [SIREN_FFT]),
        ]
        assert context.stats.shared_reads == 4
        assert context.stats.shared_entries == 3
        assert context.stats.shared_bytes > 0
        # A second merged run on the recording replays all three.
        again = [
            _graph(audio_condition(0, (0.2, 0.3))),
            _graph(audio_condition(0, (0.5, 0.6))),
            _graph(audio_condition(1, (0.3, 0.4, 0.5))),
            _graph(audio_condition(2, (0.6, 0.7))),
        ]
        batch = [(g, clips[0]) for g in again]
        expected = _oracle(batch)
        replays.clear()
        assert context.wake_events_batch(batch) == expected
        ((tier, known),) = replays
        assert tier == "rounds" and len(known) == 3
        assert context.stats.shared_reads == 7
        assert context.stats.shared_entries == 3

    def test_another_recording_or_round_length_reads_nothing(self, clips):
        graphs = [
            _graph(audio_condition(0, (0.1, 0.2))),
            _graph(audio_condition(0, (0.7, 0.8))),
        ]
        lone = _graph(audio_condition(0, (0.4, 0.5)))
        context = RunContext()
        context.wake_events_batch([(g, clips[0]) for g in graphs])
        for trace, chunk_seconds in ((clips[1], 4.0), (clips[0], 2.5)):
            pair = [(lone, trace)]
            assert context.wake_events_batch(pair, chunk_seconds) == (
                _oracle(pair, chunk_seconds)
            )
        assert context.stats.shared_reads == 0

    def test_recorded_arrays_refuse_writes(self, clips):
        graphs = [
            _graph(audio_condition(1, (0.1, 0.2, 0.3))),
            _graph(audio_condition(2, (0.4, 0.5))),
        ]
        context = RunContext()
        context.wake_events_batch([(g, clips[0]) for g in graphs])
        (stored,) = context._shared.values()
        assert len(stored) == 2
        for rounds in stored.values():
            for chunk in rounds:
                with pytest.raises(ValueError, match="read-only"):
                    chunk.values[...] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    chunk.times[...] = 0.0

    def test_no_cache_keeps_no_store(self, clips):
        graphs = [
            _graph(audio_condition(0, (0.1, 0.2))),
            _graph(audio_condition(0, (0.7, 0.8))),
            _graph(audio_condition(0, (0.4, 0.5))),
        ]
        context = RunContext(cache=False)
        for graph in graphs:
            pair = [(graph, clips[0])]
            assert context.wake_events_batch(pair) == _oracle(pair)
        assert context._shared == {}
        assert context.stats.as_dict()["shared_reads"] == 0
