"""Shape-keyed cross-fingerprint batching: signatures and equivalence.

Shape batching (`repro.hub.compile.BatchedPlan.execute_shape_batch`)
lifts per-node parameters into per-row tensors so graphs that share a
*shape* — same opcodes over the same wiring, different parameter values
— execute as one stacked dispatch.  Its correctness contract is the
batched path's, extended: every row of a heterogeneous shape batch must
be bit-identical to that row's own per-trace compiled plan — and
therefore to the fused path and the round-by-round interpreter oracle
at any chunking.  This module checks:

* :func:`shape_signature` keys graphs by opcode + topology with
  parameter values struck out (retuned copies collide, rewired or
  re-opcoded graphs do not);
* :func:`structural_key` separates only what the row-lowering rules
  cannot vary per row (thresholds lift, window widths do not);
* :func:`split_for_padding` bounds padding waste and partitions rows;
* for every opcode with a row-lowering rule, heterogeneous-parameter
  shape batches match per-trace compiled execution and the interpreter
  oracle exactly (times AND values), under randomized parameters;
* rows whose *structural* parameters differ still execute correctly
  (the per-row lowering fallback);
* the engine's :meth:`RunContext.wake_events_batch` dispatches
  same-shape different-fingerprint work as shape batches, bit-identical
  to the per-pair path, fills the per-fingerprint cache, counts shape
  rounds, and falls back cleanly when shape batching is off;
* a shape group asks the cost model for its tier once; a pinned shape
  runs row by row, filed under each row's fingerprint and the shape
  key; a fingerprint the table pins stays out of its shape group;
  retuned copies of a registry audio condition run on the round
  interpreter by default; and no reading of the engine's clock changes
  the path.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import SirenDetectorApp
from repro.hub.compile import (
    BatchDispatchInfo,
    compile_batched,
    compile_graph,
    shape_signature,
    split_for_padding,
    structural_key,
)
from repro.hub.costmodel import CALIBRATED_TABLE, CostModel
from repro.il.text import format_program
from repro.sim import engine
from repro.sim.engine import RunContext, program_fingerprint
from repro.traces.library import audio_corpus
from tests.unit.test_fused_runtime import (
    PROGRAMS,
    _events,
    _graph,
    _random_rounds,
    _signal,
)
from tests.unit.test_hub_batch import RAGGED_S, _trace

#: One program template per opcode with a row-lowering rule.  Each maps
#: a numpy Generator to IL text whose liftable parameters are random,
#: so equivalence is checked across parameter space, not one constant.
ROW_LOWERED = {
    "min_threshold": lambda rng: (
        "ACC_X -> movingAvg(id=1, params={10});"
        f"1 -> minThreshold(id=2, params={{{rng.uniform(-0.5, 0.8):.3f}}});"
        "2 -> OUT;"
    ),
    "max_threshold": lambda rng: (
        "ACC_X -> movingAvg(id=1, params={10});"
        f"1 -> maxThreshold(id=2, params={{{rng.uniform(-0.8, 0.5):.3f}}});"
        "2 -> OUT;"
    ),
    "range_threshold": lambda rng: (
        "ACC_X -> movingAvg(id=1, params={10});"
        f"1 -> rangeThreshold(id=2, params={{{rng.uniform(-0.6, 0.0):.3f}, "
        f"{rng.uniform(0.1, 0.8):.3f}}});"
        "2 -> OUT;"
    ),
    "band_indicator": lambda rng: (
        f"ACC_X -> bandIndicator(id=1, params={{{rng.uniform(-0.8, -0.1):.3f}, "
        f"{rng.uniform(0.0, 0.8):.3f}}});"
        "1 -> OUT;"
    ),
    "sustained_threshold": lambda rng: (
        f"ACC_X -> sustainedThreshold(id=1, params={{{rng.uniform(0.0, 0.5):.3f}, "
        f"{rng.integers(2, 12)}}});"
        "1 -> OUT;"
    ),
}


def _retuned(threshold):
    """The hetero-fleet program: one shape, per-tenant threshold."""
    return (
        "ACC_X -> movingAvg(id=1, params={8});"
        f"1 -> maxThreshold(id=2, params={{{threshold}}});"
        "2 -> OUT;"
    )


class TestShapeSignature:
    def test_retuned_copies_share_a_signature(self):
        sigs = {shape_signature(_graph(_retuned(t))) for t in (0.1, 0.25, 9.0)}
        assert len(sigs) == 1

    def test_signature_is_prefixed_and_hex(self):
        sig = shape_signature(_graph(_retuned(0.1)))
        assert sig.startswith("shape:")
        int(sig[len("shape:"):], 16)  # the rest is a hex digest

    def test_different_opcode_changes_the_signature(self):
        high = _graph(
            "ACC_X -> movingAvg(id=1, params={8});"
            "1 -> minThreshold(id=2, params={0.1});"
            "2 -> OUT;"
        )
        assert shape_signature(high) != shape_signature(_graph(_retuned(0.1)))

    def test_different_wiring_changes_the_signature(self):
        chained = _graph(
            "ACC_X -> minOf(id=1);"
            "ACC_Y -> maxOf(id=2);"
            "1,2 -> sumOf(id=3);"
            "3 -> OUT;"
        )
        swapped = _graph(
            "ACC_X -> minOf(id=1);"
            "ACC_Y -> maxOf(id=2);"
            "2,1 -> sumOf(id=3);"
            "3 -> OUT;"
        )
        assert shape_signature(chained) != shape_signature(swapped)

    def test_node_ids_are_normalized_away(self):
        renumbered = (
            "ACC_X -> movingAvg(id=7, params={8});"
            "7 -> maxThreshold(id=3, params={0.1});"
            "3 -> OUT;"
        )
        assert shape_signature(_graph(renumbered)) == shape_signature(
            _graph(_retuned(0.1))
        )


class TestStructuralKey:
    def test_liftable_params_are_struck_out(self):
        assert structural_key(_graph(_retuned(0.1))) == structural_key(
            _graph(_retuned(7.5))
        )

    def test_non_liftable_params_are_kept(self):
        narrow = _graph(_retuned(0.1))
        wide = _graph(_retuned(0.1).replace("params={8}", "params={12}"))
        assert shape_signature(narrow) == shape_signature(wide)
        assert structural_key(narrow) != structural_key(wide)

    def test_sustained_count_lifts_with_threshold(self):
        a = _graph("ACC_X -> sustainedThreshold(id=1, params={0.2, 7}); 1 -> OUT;")
        b = _graph("ACC_X -> sustainedThreshold(id=1, params={0.4, 3}); 1 -> OUT;")
        assert structural_key(a) == structural_key(b)


class TestSplitForPadding:
    def test_uniform_rows_stay_together(self):
        assert split_for_padding([100, 100, 100, 100]) == [[0, 1, 2, 3]]

    def test_groups_partition_all_indices(self):
        lengths = [10, 900, 35, 250, 11, 40]
        groups = split_for_padding(lengths)
        flat = sorted(idx for group in groups for idx in group)
        assert flat == list(range(len(lengths)))

    def test_outlier_row_is_shed_into_its_own_group(self):
        groups = split_for_padding([100, 100, 100, 1000])
        assert [sorted(g) for g in groups] == [[0, 1, 2], [3]]

    def test_threshold_bounds_waste_within_each_group(self):
        lengths = [10, 15, 22, 33, 50, 75, 112, 168]
        for group in split_for_padding(lengths, threshold=1.3):
            rows = [lengths[idx] for idx in group]
            assert max(rows) / (sum(rows) / len(rows)) <= 1.3

    def test_padding_ratio_property(self):
        assert BatchDispatchInfo(1, 100, 150).padding_ratio == pytest.approx(1.5)
        assert BatchDispatchInfo(0, 0, 0).padding_ratio == 1.0


class TestShapeBatchEquivalence:
    """Per-opcode differential tests for the row-lowered kernels."""

    @pytest.mark.parametrize("name", sorted(ROW_LOWERED))
    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_hetero_rows_match_compiled_and_rounds(self, name, seed):
        rng = np.random.default_rng(seed)
        graphs = [_graph(ROW_LOWERED[name](rng)) for _ in range(4)]
        sigs = {shape_signature(g) for g in graphs}
        assert len(sigs) == 1  # retuning never changes the shape
        rows = [
            _signal(duration_s=float(rng.uniform(6.0, 30.0)), seed=seed + k)
            for k in range(len(graphs))
        ]
        pairs = [
            (compile_graph(graph), row) for graph, row in zip(graphs, rows)
        ]
        batched = compile_batched(graphs[0]).execute_shape_batch(pairs)
        for graph, row, plan_row, row_events in zip(
            graphs, rows, pairs, batched
        ):
            assert row_events == plan_row[0].execute(row)
            assert row_events == _events(graph, _random_rounds(row, rng))

    def test_structurally_different_rows_fall_back_per_row(self):
        # Same shape, but the movingAvg window (not liftable) differs:
        # the stacked pass must lower that step row by row and still
        # match each row's own compiled plan exactly.
        texts = [
            _retuned(0.1),
            _retuned(0.3).replace("params={8}", "params={12}"),
            _retuned(0.2).replace("params={8}", "params={5}"),
        ]
        graphs = [_graph(text) for text in texts]
        assert len({shape_signature(g) for g in graphs}) == 1
        assert len({structural_key(g) for g in graphs}) == 3
        rows = [
            _signal(duration_s=duration, seed=k)
            for k, duration in enumerate((20.0, 17.3, 24.9))
        ]
        pairs = [
            (compile_graph(graph), row) for graph, row in zip(graphs, rows)
        ]
        batched = compile_batched(graphs[0]).execute_shape_batch(pairs)
        for (plan, row), row_events in zip(pairs, batched):
            assert row_events == plan.execute(row)

    def test_shape_batch_of_one_matches_per_trace(self):
        graph = _graph(_retuned(0.25))
        row = _signal(duration_s=12.0, seed=7)
        plan = compile_graph(graph)
        [events] = compile_batched(graph).execute_shape_batch([(plan, row)])
        assert events == plan.execute(row)

    def test_homogeneous_rows_agree_with_execute_batch(self):
        graph = _graph(PROGRAMS["significant_motion"])
        rows = [
            _signal(duration_s=duration, seed=k)
            for k, duration in enumerate(RAGGED_S)
        ]
        plan = compile_graph(graph)
        bplan = compile_batched(graph)
        assert bplan.execute_shape_batch(
            [(plan, row) for row in rows]
        ) == bplan.execute_batch(rows)

    def test_info_reports_padding_cells(self):
        graph = _graph(_retuned(0.25))
        plan = compile_graph(graph)
        rows = [
            _signal(duration_s=duration, seed=k)
            for k, duration in enumerate((10.0, 9.0, 8.5))
        ]
        _, info = compile_batched(graph).execute_shape_batch_with_info(
            [(plan, row) for row in rows]
        )
        assert info.sub_batches == 1
        assert info.padded_cells >= info.valid_cells > 0


class TestEngineShapeBatch:
    """Engine-level shape batching: bit-identity, caching, counters."""

    def _pairs(self, thresholds=(0.05, 0.15, 0.25, 0.35)):
        graphs = [_graph(_retuned(t)) for t in thresholds]
        traces = [
            _trace(f"t{k}", duration, seed=k)
            for k, duration in enumerate(RAGGED_S[: len(graphs)])
        ]
        return graphs, list(zip(graphs, traces))

    def test_bit_identical_to_per_pair_wake_events(self):
        _, pairs = self._pairs()
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, trace) for g, trace in pairs]
        assert RunContext().wake_events_batch(pairs) == expected

    def test_counts_shape_rounds_and_fills_the_cache(self):
        _, pairs = self._pairs()
        context = RunContext()
        results = context.wake_events_batch(pairs)
        assert context.stats.shape_rounds == 1
        assert context.stats.shape_cells == len(pairs)
        assert context.stats.batch_rounds == 0  # no homogeneous dispatch
        assert context.stats.hub_misses == len(pairs)
        assert context.stats.batch_padded_cells >= context.stats.batch_valid_cells > 0
        # Later per-pair calls hit each row's own fingerprint entry.
        hits_before = context.stats.hub_hits
        for (g, trace), events in zip(pairs, results):
            assert context.wake_events(g, trace) == events
        assert context.stats.hub_hits == hits_before + len(pairs)
        # And a repeat batch is served entirely from cache.
        assert context.wake_events_batch(pairs) == results
        assert context.stats.shape_rounds == 1

    def test_shape_batch_disabled_falls_back_per_fingerprint(self):
        _, pairs = self._pairs()
        context = RunContext(shape_batch=False)
        expected = [
            RunContext(batch=False).wake_events(g, t) for g, t in pairs
        ]
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.shape_rounds == 0
        assert context.stats.shape_cells == 0

    def test_single_fingerprint_stays_on_the_homogeneous_path(self):
        graphs, _ = self._pairs(thresholds=(0.25,))
        traces = [
            _trace(f"h{k}", duration, seed=k)
            for k, duration in enumerate(RAGGED_S)
        ]
        pairs = [(graphs[0], trace) for trace in traces]
        context = RunContext()
        context.wake_events_batch(pairs)
        assert context.stats.shape_rounds == 0
        assert context.stats.batch_rounds == 1
        assert context.stats.batched_cells == len(pairs)

    def test_mixed_structural_keys_split_into_sub_dispatches(self):
        # Two structural families under one shape: each sub-group gets
        # its own dispatch, and results still match the per-pair path.
        texts = [
            _retuned(0.05),
            _retuned(0.15),
            _retuned(0.25).replace("params={8}", "params={12}"),
            _retuned(0.35).replace("params={8}", "params={12}"),
        ]
        graphs = [_graph(text) for text in texts]
        traces = [
            _trace(f"m{k}", duration, seed=k)
            for k, duration in enumerate(RAGGED_S)
        ]
        pairs = list(zip(graphs, traces))
        context = RunContext()
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.shape_rounds == 2
        assert context.stats.shape_cells == len(pairs)

    def test_shape_group_asks_the_cost_model_once(self):
        graphs, pairs = self._pairs()
        context = RunContext()
        asked = []
        choose = context.cost_model.choose
        context.cost_model.choose = (
            lambda key, allowed: asked.append(key) or choose(key, allowed)
        )
        context.wake_events_batch(pairs)
        assert asked == [shape_signature(graphs[0])]
        assert context.stats.shape_rounds == 1

    def test_pinned_shape_files_each_row_under_both_keys(self):
        # The shape key pinned to the round interpreter: the group runs
        # row by row at that tier, and each run is filed under its own
        # fingerprint and under the shape key.
        graphs, pairs = self._pairs()
        sig = shape_signature(graphs[0])
        context = RunContext(cost_model=CostModel(table={sig: "rounds"}))
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.shape_rounds == 0
        assert context.stats.batch_rounds == 0
        ledger = context.cost_model.as_dict()
        assert set(ledger) == {sig} | {
            program_fingerprint(graph.program) for graph in graphs
        }
        assert {key: list(tiers) for key, tiers in ledger.items()} == {
            key: ["rounds"] for key in ledger
        }
        assert ledger[sig]["rounds"]["runs"] == len(pairs)

    def test_pinned_fingerprint_leaves_its_shape_group(self):
        # Two retuned copies of one shape, one pinned to the round
        # interpreter: it runs its pinned tier, the other runs
        # compiled, and no shape dispatch mixes them.
        pinned, free = _graph(_retuned(0.05)), _graph(_retuned(0.35))
        traces = [
            _trace(f"p{k}", duration, seed=k)
            for k, duration in enumerate(RAGGED_S[:2])
        ]
        pairs = [(graph, trace) for graph in (pinned, free) for trace in traces]
        pinned_fp = program_fingerprint(pinned.program)
        context = RunContext(cost_model=CostModel(table={pinned_fp: "rounds"}))
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        ledger = context.cost_model.as_dict()
        assert set(ledger) == {pinned_fp, program_fingerprint(free.program)}
        assert set(ledger[pinned_fp]) == {"rounds"}
        assert set(ledger[program_fingerprint(free.program)]) == {"compiled"}
        assert context.stats.shape_rounds == 0
        assert context.stats.batch_rounds == 1

    def test_retuned_registry_audio_runs_rounds_by_default(self):
        # Retuned copies of a registry audio condition share its shape,
        # which the shipped table pins to the round interpreter: the
        # shape group runs row by row, never as a compiled dispatch.
        base = RunContext().compile(SirenDetectorApp().build_wakeup_pipeline())
        text = format_program(base.program)
        assert "min_hz=850.0" in text
        graphs = [
            _graph(text.replace("min_hz=850.0", f"min_hz={hz}"))
            for hz in (820.0, 880.0)
        ]
        pairs = list(zip(graphs, audio_corpus(duration_s=60.0)))
        context = RunContext()
        reference = RunContext(batch=False)
        expected = [reference.wake_events(g, t) for g, t in pairs]
        assert context.wake_events_batch(pairs) == expected
        assert context.stats.shape_rounds == 0
        sig = shape_signature(graphs[0])
        assert CALIBRATED_TABLE[sig] == "rounds"
        assert list(context.cost_model.as_dict()[sig]) == ["rounds"]

    def test_timing_cannot_move_the_path(self, monkeypatch):
        # The same work twice in fresh contexts: one condition over
        # several traces, then retuned copies of it.  The second run's
        # engine clock jumps 50 ms per reading, so every run looks
        # slow; the tiers, the dispatches and the ledger's runs must
        # not notice.
        traces = [
            _trace(f"c{k}", duration, seed=k)
            for k, duration in enumerate(RAGGED_S)
        ]
        same = _graph(_retuned(0.25))
        retuned = [_graph(_retuned(t)) for t in (0.05, 0.15, 0.35, 0.45)]
        work = [[(same, trace) for trace in traces], list(zip(retuned, traces))]

        def drive():
            context = RunContext()
            events = [context.wake_events_batch(pairs) for pairs in work]
            ledger = {
                key: {
                    tier: (entry["runs"], entry["items"])
                    for tier, entry in tiers.items()
                }
                for key, tiers in context.cost_model.as_dict().items()
            }
            return events, context.stats.as_dict(), ledger

        real = drive()
        assert real[1]["batch_rounds"] == 1
        assert real[1]["shape_rounds"] == 1
        readings = itertools.count()
        monkeypatch.setattr(
            engine,
            "time",
            SimpleNamespace(perf_counter=lambda: 0.05 * next(readings)),
        )
        assert drive() == real
