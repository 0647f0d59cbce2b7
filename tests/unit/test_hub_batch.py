"""Tensor-major batched execution: eligibility and bit-exact equivalence.

The batched path (`repro.hub.compile.BatchedPlan`) stacks *B* traces'
channel arrays into ``(B, n_max)`` tensors and runs every node's
``lower_batched`` rule once.  Its correctness contract extends the
compiled path's: each row of a batched execution must be *bit-identical*
to the per-trace compiled plan — and therefore to the fused path and
the round-by-round interpreter oracle at any chunking.  This module
checks:

* for each equivalence program (shared with the fused and compiled
  suites), every row of a ragged batch matches per-trace compiled,
  fused, and round-by-round execution exactly (times AND values);
* equivalence holds under randomized algorithm parameters and
  randomized irregular chunking, not just the shipped constants;
* rows are independent: duplicated rows agree with each other and with
  a batch of one;
* ineligible graphs get human-readable reasons (inherited compile
  reasons; non-scalar output streams) and ``compile_batched`` refuses
  them;
* the engine's :meth:`RunContext.wake_events_batch` is bit-identical
  to per-pair :meth:`RunContext.wake_events`, fills the same cache,
  counts batch rounds, and falls back cleanly when batching is off;
* a group asks the cost model for its tier once and runs no probe
  rows: a pinned group runs per trace at its pinned tier, and with no
  table entry the context's flags alone pick the tier.
"""

import numpy as np
import pytest

from repro.apps import SirenDetectorApp
from repro.errors import HubExecutionError
from repro.hub.compile import (
    batch_eligibility,
    compile_batched,
    compile_graph,
)
from repro.hub.costmodel import CostModel
from repro.hub.runtime import HubRuntime, split_into_rounds
from repro.sim.engine import RunContext, program_fingerprint
from repro.traces.base import Trace
from repro.traces.library import audio_corpus
from tests.unit.test_fused_runtime import (
    EMA_PROGRAM,
    PROGRAMS,
    RATE,
    _events,
    _graph,
    _random_rounds,
    _signal,
)
from tests.unit.test_hub_compile import TEMPLATES

#: Ragged row durations — deliberately not multiples of each other or
#: of any chunk size, so padding and per-row lengths are exercised.
RAGGED_S = (30.0, 17.3, 24.9, 8.6)

WINDOW_OUT_PROGRAM = (
    "ACC_X -> window(id=1, params={16, 16, rectangular});"
    "1 -> OUT;"
)


def _rows(durations=RAGGED_S, seed0=0):
    """One channel-data mapping per trace, ragged lengths."""
    return [
        _signal(duration_s=duration, seed=seed0 + k)
        for k, duration in enumerate(durations)
    ]


def _trace(name, duration_s, seed):
    """A Trace wrapping `_signal` arrays (times match Trace.times)."""
    data = _signal(duration_s=duration_s, seed=seed)
    return Trace(
        name=name,
        data={channel: values for channel, (_, values, _) in data.items()},
        rate_hz={channel: rate for channel, (_, _, rate) in data.items()},
        duration=duration_s,
    )


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_shipped_programs_are_batch_eligible(self, name):
        assert batch_eligibility(_graph(PROGRAMS[name])) is None

    def test_compile_reasons_carry_over(self):
        reason = batch_eligibility(_graph(EMA_PROGRAM))
        assert reason is not None
        assert "expMovingAvg" in reason

    def test_non_scalar_output_blocks_batching_with_reason(self):
        graph = _graph(WINDOW_OUT_PROGRAM)
        # Compilable (window is chunk-invariant with a lowering rule)...
        assert batch_eligibility(graph) is not None
        # ...but not batchable: unstacking needs scalar output items.
        assert "scalar output stream" in batch_eligibility(graph)

    def test_compile_batched_refuses_ineligible_graph(self):
        with pytest.raises(HubExecutionError, match="not batch-eligible"):
            compile_batched(_graph(EMA_PROGRAM))


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_rows_match_compiled_fused_and_rounds(self, name):
        graph = _graph(PROGRAMS[name])
        rows = _rows()
        batched = compile_batched(graph).execute_batch(rows)
        plan = compile_graph(graph)
        for row, row_events in zip(rows, batched):
            assert row_events == plan.execute(row)
            by_rounds = _events(graph, split_into_rounds(row, 4.0))
            assert row_events == by_rounds  # exact times AND values
            graph.reset()
            assert HubRuntime(graph).run_fused(row) == by_rounds

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_random_params_and_chunking(self, template, seed):
        rng = np.random.default_rng(seed)
        graph = _graph(TEMPLATES[template](rng))
        durations = [float(rng.uniform(6.0, 30.0)) for _ in range(3)]
        rows = _rows(durations, seed0=seed)
        batched = compile_batched(graph).execute_batch(rows)
        for row, row_events in zip(rows, batched):
            assert row_events == _events(graph, _random_rounds(row, rng))

    def test_batch_of_one_matches_per_trace(self):
        graph = _graph(PROGRAMS["significant_motion"])
        row = _signal(duration_s=12.0, seed=7)
        [events] = compile_batched(graph).execute_batch([row])
        assert events == compile_graph(graph).execute(row)

    def test_rows_are_independent(self):
        graph = _graph(PROGRAMS["window_stat"])
        a = _signal(duration_s=20.0, seed=1)
        b = _signal(duration_s=9.4, seed=2)
        first, middle, last = compile_batched(graph).execute_batch([a, b, a])
        assert first == last
        assert first == compile_graph(graph).execute(a)
        assert middle == compile_graph(graph).execute(b)


class TestWakeEventsBatch:
    """Engine-level batching: bit-identity, caching, counters."""

    def _pairs(self, count=4):
        graph = _graph(PROGRAMS["significant_motion"])
        traces = [
            _trace(f"t{k}", duration, seed=k)
            for k, duration in enumerate(RAGGED_S[:count])
        ]
        return graph, [(graph, trace) for trace in traces]

    def test_bit_identical_to_per_pair_wake_events(self):
        _, pairs = self._pairs()
        reference = RunContext(batch=False)
        expected = [
            reference.wake_events(g, trace) for g, trace in pairs
        ]
        batched = RunContext().wake_events_batch(pairs)
        assert batched == expected

    def test_counts_one_round_and_fills_the_cache(self):
        _, pairs = self._pairs()
        context = RunContext()
        results = context.wake_events_batch(pairs)
        assert context.stats.batch_rounds == 1
        assert context.stats.batched_cells == len(pairs)
        assert context.stats.hub_misses == len(pairs)
        # Later per-pair calls hit the same cache entries.
        hits_before = context.stats.hub_hits
        for (g, trace), events in zip(pairs, results):
            assert context.wake_events(g, trace) == events
        assert context.stats.hub_hits == hits_before + len(pairs)
        # And a repeat batch is served entirely from cache.
        assert context.wake_events_batch(pairs) == results
        assert context.stats.batch_rounds == 1

    def test_duplicate_pairs_share_one_computation(self):
        _, pairs = self._pairs(count=2)
        doubled = pairs + pairs
        context = RunContext()
        results = context.wake_events_batch(doubled)
        assert results[:2] == results[2:]
        assert context.stats.hub_misses == 2
        assert context.stats.batched_cells == 2

    def test_batch_disabled_falls_back_per_pair(self):
        _, pairs = self._pairs()
        context = RunContext(batch=False)
        expected = [context.wake_events(g, t) for g, t in pairs]
        context_off = RunContext(batch=False)
        assert context_off.wake_events_batch(pairs) == expected
        assert context_off.stats.batch_rounds == 0
        assert context_off.stats.batched_cells == 0

    def test_group_asks_the_cost_model_once(self):
        graph, pairs = self._pairs()
        context = RunContext()
        asked = []
        choose = context.cost_model.choose
        context.cost_model.choose = (
            lambda key, allowed: asked.append(key) or choose(key, allowed)
        )
        context.wake_events_batch(pairs)
        fingerprint = program_fingerprint(graph.program)
        assert asked == [fingerprint]
        assert context.stats.batch_rounds == 1
        assert context.cost_model.as_dict()[fingerprint]["compiled"][
            "runs"
        ] == 1

    def test_pinned_group_runs_per_trace_at_its_tier(self):
        graph, pairs = self._pairs()
        fingerprint = program_fingerprint(graph.program)
        context = RunContext(
            cost_model=CostModel(table={fingerprint: "rounds"})
        )
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.batch_rounds == 0
        assert context.stats.hub_misses == len(pairs)
        ledger = context.cost_model.as_dict()
        assert list(ledger) == [fingerprint]
        assert list(ledger[fingerprint]) == ["rounds"]
        assert ledger[fingerprint]["rounds"]["runs"] == len(pairs)

    @pytest.mark.parametrize("table", [None, {}], ids=["default", "passed"])
    def test_registry_audio_group_runs_rounds_by_default(self, table):
        # The shipped table pins the registry's audio conditions to the
        # round interpreter, so their fingerprint group never becomes a
        # compiled batched dispatch, also under a passed table without
        # entries of its own (a table is laid over the shipped one).
        context = RunContext(
            cost_model=None if table is None else CostModel(table=table)
        )
        graph = context.compile(SirenDetectorApp().build_wakeup_pipeline())
        pairs = [(graph, trace) for trace in audio_corpus(duration_s=60.0)]
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.batch_rounds == 0
        ledger = context.cost_model.as_dict()
        assert list(ledger[program_fingerprint(graph.program)]) == ["rounds"]

    def test_lone_fresh_row_runs_compiled(self):
        graph, pairs = self._pairs(count=1)
        context = RunContext()
        context.wake_events_batch(pairs)
        fingerprint = program_fingerprint(graph.program)
        assert context.stats.batch_rounds == 0
        ledger = context.cost_model.as_dict()
        assert list(ledger) == [fingerprint]
        assert list(ledger[fingerprint]) == ["compiled"]
        assert ledger[fingerprint]["compiled"]["runs"] == 1

    @pytest.mark.parametrize("compiled, tier", [
        (True, "compiled"),
        (False, "rounds"),
    ])
    def test_flags_run_the_first_allowed_tier(self, compiled, tier):
        graph, pairs = self._pairs()
        context = RunContext(compiled=compiled)
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        ledger = context.cost_model.as_dict()
        assert list(ledger[program_fingerprint(graph.program)]) == [tier]

    def test_unbatchable_graph_drains_per_pair(self):
        graph = _graph(EMA_PROGRAM)
        traces = [_trace(f"u{k}", 10.0, seed=k) for k in range(3)]
        pairs = [(graph, trace) for trace in traces]
        context = RunContext()
        reference = RunContext(batch=False)
        assert context.wake_events_batch(pairs) == [
            reference.wake_events(g, t) for g, t in pairs
        ]
        assert context.stats.batch_rounds == 0

    def test_missing_channel_raises(self):
        graph = _graph(PROGRAMS["significant_motion"])
        trace = Trace(
            name="mic-only",
            data={"MIC": np.zeros(160)},
            rate_hz={"MIC": 16.0},
            duration=10.0,
        )
        with pytest.raises(HubExecutionError, match="lacks channels"):
            RunContext().wake_events_batch([(graph, trace)])
