"""Streamed fleet drives vs whole-trace replay: digest identity.

The cluster-level form of the tentpole contract: a seeded fleet of
devices pushing chunks through intermittent connectivity — across any
shard count, and across a mid-stream shard kill/recover — produces
wake-event logs whose digest equals running the same conditions over
the assembled traces through the ordinary replay path.
"""

import pytest

from repro.serve import (
    ServiceFaultPlan,
    ShardCluster,
    StreamLoadSpec,
    completion_digest,
    run_fleet,
    run_stream_fleet,
    stream_fleet_plan,
    stream_replay_workload,
)

SPEC = StreamLoadSpec(
    fleet=8,
    seed=42,
    duration_s=16.0,
    disconnect_rate=0.25,
)


@pytest.fixture(scope="module")
def plans():
    return stream_fleet_plan(SPEC)


@pytest.fixture(scope="module")
def replay_digest(plans):
    """The reference: assembled traces through the replay path."""
    traces, submissions = stream_replay_workload(plans)
    cluster = ShardCluster(traces, shards=2)
    try:
        report = run_fleet(cluster, submissions)
    finally:
        cluster.shutdown()
    assert len(report.completed) == len(submissions)
    return completion_digest(report.pairs)


def _stream_digest(plans, shards, journal_dir=None, faults=None,
                   recover=False):
    cluster = ShardCluster(
        traces={}, shards=shards, journal_dir=journal_dir, faults=faults
    )
    try:
        report = run_stream_fleet(cluster, plans, SPEC, recover=recover)
    finally:
        cluster.shutdown()
    return report, report.digest()


@pytest.mark.parametrize("shards", [1, 4])
def test_streamed_digest_matches_replay(plans, replay_digest, shards):
    report, digest = _stream_digest(plans, shards)
    assert report.subscriptions == len(report.by_subscription)
    assert not report.rejections
    # Connectivity gaps buffered chunks on-device; they all arrived.
    assert report.chunks_pushed == sum(len(p.chunks) for p in plans)
    assert report.deferred_chunks > 0
    assert digest == replay_digest


def test_streamed_digest_survives_shard_kill(plans, replay_digest, tmp_path):
    """Kill one shard mid-stream; recovery + device resync re-derive
    bit-identical subscription logs from the journaled chunks/subs."""
    faults = {
        1: ServiceFaultPlan(kill_at_pump=3, kill_pump_phase="begin"),
    }
    report, digest = _stream_digest(
        plans, shards=4, journal_dir=tmp_path, faults=faults, recover=True
    )
    assert report.recoveries == {1: 1}
    assert digest == replay_digest


def test_stream_metrics_account_for_the_drive(plans):
    report, _ = _stream_digest(plans, shards=2)
    merged = report.metrics.merged
    assert merged.stream_chunks == report.chunks_pushed
    assert merged.stream_subscriptions == report.subscriptions
    assert merged.stream_backlog == 0  # every span was walked
    assert merged.stream_rounds > 0
    # Stacked same-template subscriptions keep occupancy above one
    # row per dispatch even in a small fleet.
    assert merged.stream_occupancy > 1.0
