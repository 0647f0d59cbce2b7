"""Property-based tests: pipeline merging never changes semantics.

For random sets of valid pipelines, the merged multi-tap execution must
produce exactly the events each condition produces when run alone — on
the same random input data, chunked into the same rounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.compile import compile_pipeline
from repro.hub.merge import MultiTapRuntime, merge_programs
from repro.hub.runtime import HubRuntime, split_into_rounds
from repro.il.validate import validate_program
from tests.property.test_prop_il import random_pipeline


def _acc_data(seed, n=200):
    rng = np.random.default_rng(seed)
    # Mix of noise and occasional large excursions so thresholds and
    # extrema actually fire sometimes.
    data = {}
    for name in ("ACC_X", "ACC_Y", "ACC_Z"):
        x = rng.normal(0, 2.0, n)
        for _ in range(rng.integers(0, 4)):
            i = rng.integers(0, n - 10)
            x[i : i + 10] += rng.uniform(-30, 30)
        data[name] = x
    return data


def _rounds(data, graph, chunk_seconds):
    """The graph's channels, on one 50 Hz timeline, cut into rounds."""
    return split_into_rounds(
        {
            name: (np.arange(len(values)) / 50.0, values, 50.0)
            for name, values in data.items()
            if name in graph.channels
        },
        chunk_seconds,
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    pipelines=st.lists(random_pipeline(), min_size=2, max_size=5),
    chunk_seconds=st.floats(0.1, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_merged_execution_equals_separate(seed, pipelines, chunk_seconds):
    programs = [compile_pipeline(p) for p in pipelines]
    merged = merge_programs(programs)
    runtime = MultiTapRuntime(merged)
    data = _acc_data(seed)
    merged_events = runtime.run(_rounds(data, runtime.graph, chunk_seconds))
    for program, tap in zip(programs, merged.taps):
        graph = validate_program(program)
        reference = HubRuntime(graph).run(_rounds(data, graph, chunk_seconds))
        assert merged_events[tap] == reference


@given(pipelines=st.lists(random_pipeline(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_merge_accounting_invariants(pipelines):
    programs = [compile_pipeline(p) for p in pipelines]
    merged = merge_programs(programs)
    total_nodes = sum(len(p) for p in programs)
    assert merged.node_count + merged.shared_nodes == total_nodes
    assert merged.node_count <= total_nodes
    assert len(merged.taps) == len(programs)
    # Every tap refers to a node in the merged program.
    ids = {s.node_id for s in merged.program.statements}
    assert set(merged.taps) <= ids
    # Merged ids are dense from 1.
    assert sorted(ids) == list(range(1, len(ids) + 1))


@given(pipeline=random_pipeline())
@settings(max_examples=30, deadline=None)
def test_self_merge_halves_nothing(pipeline):
    program = compile_pipeline(pipeline)
    merged = merge_programs([program, program])
    assert merged.node_count == len(program)
    assert merged.shared_nodes == len(program)
    assert merged.taps[0] == merged.taps[1]
