"""Property-based tests: merged round-interpreter rows answer exactly.

``RunContext.wake_events_batch`` runs the round-interpreter rows that
share a recording as one merged graph.  For random mixes of per-tenant
audio conditions (siren FFT, music, phrase, with drawn band limits) and
registry audio apps over a few short recordings, every pair's events
must equal the unbatched per-pair run bit for bit, and the context must
count one merged run per (trace, channel set) group of two or more
round-interpreter rows.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.manager import validate_condition
from repro.hub.costmodel import CALIBRATED_TABLE
from repro.sim.engine import RunContext
from tests.audio_conditions import (
    AUDIO_BANDS,
    REGISTRY_AUDIO_APPS,
    audio_clips,
    audio_condition,
    registry_condition,
)


@pytest.fixture(scope="module")
def clips():
    return audio_clips()


def _condition():
    tenant = st.integers(0, len(AUDIO_BANDS) - 1).flatmap(
        lambda family: st.tuples(
            st.just(family),
            st.tuples(
                *[st.floats(0.0, 1.0) for _ in AUDIO_BANDS[family]]
            ),
        ).map(lambda drawn: audio_condition(*drawn))
    )
    return st.one_of(tenant, st.sampled_from(REGISTRY_AUDIO_APPS).map(
        registry_condition
    ))


def _expected_merges(context, rows):
    """Count (trace, channel set) groups of two or more rounds rows.

    A pinned fingerprint runs its table tier.  Unpinned fingerprints of
    one shape run their shape key's tier when two or more are present,
    else their own (unpinned, so compiled) tier.
    """
    distinct = {(context.fingerprint(g.program), id(t)): g for g, t in rows}
    unpinned = {}
    for (fp, _), graph in distinct.items():
        if fp not in CALIBRATED_TABLE:
            unpinned.setdefault(context.shape_sig(graph), set()).add(fp)
    sizes = Counter()
    for (fp, trace_id), graph in distinct.items():
        sig = context.shape_sig(graph)
        key = fp if fp in CALIBRATED_TABLE else (
            sig if len(unpinned[sig]) >= 2 else None
        )
        if CALIBRATED_TABLE.get(key) == "rounds":
            sizes[(trace_id, tuple(sorted(graph.channels)))] += 1
    return sum(1 for size in sizes.values() if size >= 2)


@given(
    texts=st.lists(_condition(), min_size=2, max_size=9),
    placement=st.lists(st.integers(0, 2), min_size=9, max_size=9),
    traces=st.integers(2, 3),
    chunk_seconds=st.sampled_from([1.0, 2.5, 4.0]),
)
@settings(max_examples=25, deadline=None)
def test_merged_batch_equals_per_pair(
    clips, texts, placement, traces, chunk_seconds
):
    graphs = [validate_condition(text)[1] for text in texts]
    rows = [
        (graph, clips[where % traces])
        for graph, where in zip(graphs, placement)
    ]
    reference = RunContext(batch=False)
    expected = [
        reference.wake_events(graph, trace, chunk_seconds)
        for graph, trace in rows
    ]
    context = RunContext()
    assert context.wake_events_batch(rows, chunk_seconds) == expected
    assert context.stats.merge_rounds == _expected_merges(context, rows)
    assert context.stats.merged_cells >= 2 * context.stats.merge_rounds
