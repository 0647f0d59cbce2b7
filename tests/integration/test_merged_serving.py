"""Merged round-interpreter rows never change a served answer.

An audio raw-IL fleet — per-tenant siren, music and phrase conditions
plus the registry's audio apps over three recordings — served with
merging (the default batched path) must give the completion digest of
an unbatched reference at one shard, at four shards, and with one shard
killed and recovered from its journal.  In each, later runs on a
recording replay the front ends an earlier merged run recorded there.
"""

import random

import pytest

from repro.serve import (
    ServiceFaultPlan,
    ShardCluster,
    Submission,
    completion_digest,
    run_fleet,
)
from repro.sim.engine import RunContext
from tests.audio_conditions import (
    AUDIO_BANDS,
    REGISTRY_AUDIO_APPS,
    audio_clips,
    audio_condition,
    registry_condition,
)

PUMP_EVERY = 12


@pytest.fixture(scope="module")
def registry():
    return {clip.name: clip for clip in audio_clips()}


@pytest.fixture(scope="module")
def workload(registry):
    rng = random.Random(17)
    names = sorted(registry)
    texts = [registry_condition(app) for app in REGISTRY_AUDIO_APPS]
    for k in range(30):
        family = k % len(AUDIO_BANDS)
        fractions = tuple(rng.random() for _ in AUDIO_BANDS[family])
        texts.append(audio_condition(family, fractions))
    return [
        Submission(f"device-{k:03d}", names[k % len(names)], il=text)
        for k, text in enumerate(texts)
    ]


def _drive(registry, workload, shards, **kwargs):
    cluster = ShardCluster(registry, shards=shards, **kwargs)
    try:
        return run_fleet(cluster, workload, pump_every=PUMP_EVERY)
    finally:
        cluster.shutdown()


@pytest.fixture(scope="module")
def reference_digest(registry, workload):
    report = _drive(
        registry, workload, shards=1,
        context_factory=lambda: RunContext(batch=False),
    )
    assert report.metrics.merged.merge_rounds == 0
    assert report.metrics.merged.shared_reads == 0
    return completion_digest(report.pairs)


@pytest.mark.parametrize("shards", [1, 4])
def test_merged_fleet_matches_unbatched_reference(
    registry, workload, reference_digest, shards
):
    report = _drive(registry, workload, shards=shards)
    metrics = report.metrics.merged
    assert metrics.completed == len(workload)
    assert metrics.merge_rounds > 0
    assert metrics.merged_cells >= 2 * metrics.merge_rounds
    # Later runs on a recording replay the front ends merged runs
    # recorded there.
    assert metrics.shared_reads > 0
    assert metrics.shared_entries > 0 and metrics.shared_bytes > 0
    assert completion_digest(report.pairs) == reference_digest


def test_killed_and_recovered_shard_matches_unbatched_reference(
    registry, workload, reference_digest, tmp_path
):
    report = _drive(
        registry,
        workload,
        shards=4,
        journal_dir=tmp_path,
        faults={
            1: ServiceFaultPlan(kill_at_pump=1, kill_pump_phase="store")
        },
    )
    assert set(report.recoveries) == {1}
    assert report.metrics.merged.merge_rounds > 0
    assert report.metrics.merged.shared_reads > 0
    assert completion_digest(report.pairs) == reference_digest
