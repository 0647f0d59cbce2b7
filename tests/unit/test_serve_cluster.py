"""Unit tests for the sharded cluster and its asyncio front end."""

import asyncio

import pytest

from repro.errors import ServiceKilled, SidewinderError
from repro.serve import (
    Completed,
    Rejected,
    ServiceFaultPlan,
    ShardCluster,
    Submission,
    TenantQuota,
    Ticket,
    shard_journal_path,
)
from repro.serve.cluster import merge_snapshots
from repro.serve.metrics import MetricsSnapshot


@pytest.fixture()
def registry(robot_trace):
    return {robot_trace.name: robot_trace}


def _steps(registry, tenant):
    (trace_name,) = registry
    return Submission(tenant=tenant, trace=trace_name, app="steps")


def _tenant_on_shard(cluster, registry, shard, hint=0):
    """A tenant name the router places on ``shard``."""
    (trace_name,) = registry
    for i in range(hint, hint + 10_000):
        tenant = f"device-{i:05d}"
        if cluster.router.route(tenant, trace_name) == shard:
            return tenant
    raise AssertionError(f"no tenant found for shard {shard}")


class TestShardCluster:
    def test_submit_routes_by_router(self, registry):
        cluster = ShardCluster(registry, shards=3)
        try:
            for i in range(12):
                submission = _steps(registry, f"device-{i:05d}")
                routed = cluster.submit(submission)
                assert routed.shard == cluster.router.route_submission(
                    submission
                )
                assert routed.accepted
                assert isinstance(routed.response, Ticket)
        finally:
            cluster.shutdown()

    def test_pump_completes_and_result_lookup(self, registry):
        cluster = ShardCluster(registry, shards=2)
        try:
            routed = cluster.submit(_steps(registry, "device-00000"))
            responses = cluster.pump()
            (response,) = responses[routed.shard]
            assert isinstance(response, Completed)
            assert (
                cluster.result(routed.shard, routed.response.submission_id)
                == response
            )
        finally:
            cluster.shutdown()

    def test_parallel_and_serial_pumps_agree(self, registry):
        outcomes = []
        for parallel in (True, False):
            cluster = ShardCluster(
                registry, shards=4, parallel_pumps=parallel
            )
            try:
                for i in range(16):
                    cluster.submit(_steps(registry, f"device-{i:05d}"))
                drained = cluster.drain()
                outcomes.append({
                    shard: [type(r).__name__ for r in responses]
                    for shard, responses in drained.items()
                })
            finally:
                cluster.shutdown()
        assert outcomes[0] == outcomes[1]

    def test_metrics_merge_and_per_shard_breakdown(self, registry):
        cluster = ShardCluster(registry, shards=3)
        try:
            for i in range(9):
                cluster.submit(_steps(registry, f"device-{i:05d}"))
            cluster.drain()
            snap = cluster.metrics()
            assert snap.shards == 3
            assert len(snap.per_shard) == 3
            assert snap.merged.submitted == 9
            assert snap.merged.completed == 9
            assert snap.merged.completed == sum(
                s.completed for s in snap.per_shard
            )
            assert "shard 0" in snap.describe()
            assert snap.as_dict()["shards"] == 3
        finally:
            cluster.shutdown()

    def test_killed_shard_goes_dead_and_refuses(self, registry, tmp_path):
        cluster = ShardCluster(
            registry,
            shards=2,
            journal_dir=tmp_path,
            faults={0: ServiceFaultPlan(kill_at_pump=0)},
        )
        try:
            victim = _tenant_on_shard(cluster, registry, 0)
            survivor = _tenant_on_shard(cluster, registry, 1)
            cluster.submit(_steps(registry, victim))
            cluster.submit(_steps(registry, survivor))
            responses = cluster.pump()
            assert cluster.dead_shards == (0,)
            assert responses[0] == []  # nothing from the dead shard
            # The dead shard refuses; the live one keeps serving.
            refused = cluster.submit(_steps(registry, victim))
            assert isinstance(refused.response, Rejected)
            assert refused.response.reason == "shard_down"
            assert cluster.submit(_steps(registry, survivor)).accepted
        finally:
            cluster.shutdown()

    def test_recover_shard_in_place(self, registry, tmp_path):
        cluster = ShardCluster(
            registry,
            shards=2,
            journal_dir=tmp_path,
            faults={0: ServiceFaultPlan(kill_at_pump=0)},
        )
        try:
            victim = _tenant_on_shard(cluster, registry, 0)
            cluster.submit(_steps(registry, victim))
            cluster.pump()
            assert cluster.dead_shards == (0,)
            stats = cluster.recover_shard(0)
            assert cluster.dead_shards == ()
            assert stats.accepts == 1
            # The recovered shard serves again and its queue drains.
            assert cluster.submit(_steps(registry, victim)).accepted
            drained = cluster.drain()
            assert all(
                isinstance(r, Completed) for r in drained.get(0, [])
            )
        finally:
            cluster.shutdown()

    def test_accept_kill_goes_dead_and_recovers(self, registry, tmp_path):
        cluster = ShardCluster(
            registry,
            shards=4,
            journal_dir=tmp_path,
            faults={1: ServiceFaultPlan(kill_after_accepts=2)},
        )
        try:
            first = _tenant_on_shard(cluster, registry, 1)
            second = _tenant_on_shard(
                cluster, registry, 1, hint=int(first.split("-")[1]) + 1
            )
            assert cluster.submit(_steps(registry, first)).accepted
            cluster.pump()  # makes the first accept durable
            # The second accept kills shard 1: the kill is caught, not
            # raised, and the killing submission comes back refused.
            killed = cluster.submit(_steps(registry, second))
            assert killed.shard == 1
            assert isinstance(killed.response, Rejected)
            assert killed.response.reason == "shard_down"
            assert cluster.dead_shards == (1,)
            # The other shards keep admitting; shard 1 keeps refusing.
            for shard in (0, 2, 3):
                tenant = _tenant_on_shard(cluster, registry, shard)
                assert cluster.submit(_steps(registry, tenant)).accepted
            refused = cluster.submit(_steps(registry, first))
            assert refused.response.reason == "shard_down"
            stats = cluster.recover_shard(1)
            assert cluster.dead_shards == ()
            assert stats.accepts == 1
            # The recovered shard re-issues the ticket the crash forgot.
            again = cluster.submit(_steps(registry, second))
            assert again.accepted
            assert again.response.submission_id == 2
            drained = cluster.drain()
            assert [type(r) for r in drained[1]] == [Completed]
        finally:
            cluster.shutdown()

    def test_recover_shard_requires_journal_dir(self, registry):
        cluster = ShardCluster(registry, shards=2)
        try:
            with pytest.raises(SidewinderError, match="journal"):
                cluster.recover_shard(0)
        finally:
            cluster.shutdown()

    def test_per_shard_journals_on_disk(self, registry, tmp_path):
        cluster = ShardCluster(registry, shards=3, journal_dir=tmp_path)
        try:
            for i in range(9):
                cluster.submit(_steps(registry, f"device-{i:05d}"))
            cluster.drain()
        finally:
            cluster.shutdown()
        for shard in range(3):
            assert shard_journal_path(tmp_path, shard).exists()

    def test_whole_cluster_recovery(self, registry, tmp_path):
        cluster = ShardCluster(
            registry,
            shards=2,
            quota=TenantQuota(max_pending=8),
            journal_dir=tmp_path,
        )
        tickets = 0
        try:
            for i in range(8):
                if cluster.submit(_steps(registry, f"device-{i:05d}")).accepted:
                    tickets += 1
            cluster.drain()
        finally:
            cluster.shutdown()

        rebuilt, stats = ShardCluster.recover(
            tmp_path, registry, shards=2, quota=TenantQuota(max_pending=8)
        )
        try:
            assert set(stats) == {0, 1}
            assert sum(len(s.replayed) for s in stats.values()) == tickets
            # The rebuilt cluster keeps serving.
            assert rebuilt.submit(_steps(registry, "device-99999")).accepted
            rebuilt.drain()
        finally:
            rebuilt.shutdown()


def _snapshot(**overrides):
    base = dict(
        submitted=0, accepted=0, rejected={}, completed=0, failed=0,
        cancelled=0, engine_runs=0, dedup_hits=0, dedup_hit_rate=0.0,
        latency_p50=0.0, latency_p90=0.0, latency_p99=0.0,
        queue_depth=0, store_size=0,
    )
    base.update(overrides)
    return MetricsSnapshot(**base)


class TestMergeSnapshots:
    def test_counters_add_and_percentiles_pool(self):
        a = _snapshot(
            submitted=4, accepted=4, completed=4,
            rejected={"tenant_quota": 1},
            engine_runs=2, dedup_hits=2, dedup_hit_rate=0.5,
        )
        b = _snapshot(
            submitted=2, accepted=2, completed=2,
            rejected={"tenant_quota": 2, "queue_full": 1},
            engine_runs=2, dedup_hits=0, dedup_hit_rate=0.0,
        )
        merged = merge_snapshots(
            [a, b], [[1.0, 2.0, 3.0, 4.0], [10.0, 20.0]]
        )
        assert merged.submitted == 6
        assert merged.completed == 6
        assert merged.rejected == {"tenant_quota": 3, "queue_full": 1}
        assert merged.dedup_hit_rate == pytest.approx(2 / 6)
        # Percentiles come from the pooled samples, not an average of
        # per-shard percentiles.
        assert merged.latency_p50 == 3.0
        assert merged.latency_p99 == 20.0
        assert merged.latency_p999 == 20.0

    def test_any_degraded_shard_degrades_the_fleet(self):
        healthy = _snapshot()
        sick = _snapshot(health_state="degraded")
        assert merge_snapshots([healthy, sick], [[], []]).health_state == (
            "degraded"
        )
        assert merge_snapshots([healthy], [[]]).health_state == "healthy"


class TestAsyncCluster:
    def test_future_resolves_at_pump_time(self, registry):
        from repro.serve import AsyncCluster

        async def drive():
            cluster = ShardCluster(registry, shards=2)
            front = AsyncCluster(cluster)
            try:
                future = front.submit(_steps(registry, "device-00000"))
                assert not future.done()  # resolution waits for the pump
                assert front.pending == 1
                await front.pump()
                response = await future
                assert isinstance(response, Completed)
                assert front.pending == 0
            finally:
                await front.shutdown()

        asyncio.run(drive())

    def test_rejection_resolves_immediately(self, registry):
        from repro.serve import AsyncCluster

        async def drive():
            cluster = ShardCluster(
                registry, shards=1, quota=TenantQuota(max_pending=1)
            )
            front = AsyncCluster(cluster)
            try:
                front.submit(_steps(registry, "t1"))
                second = front.submit(_steps(registry, "t1"))
                assert second.done()
                response = await second
                assert isinstance(response, Rejected)
                assert response.reason == "tenant_quota"
            finally:
                await front.shutdown()

        asyncio.run(drive())

    def test_dead_shard_fails_pending_futures(self, registry, tmp_path):
        from repro.serve import AsyncCluster

        async def drive():
            cluster = ShardCluster(
                registry,
                shards=2,
                journal_dir=tmp_path,
                faults={0: ServiceFaultPlan(kill_at_pump=0)},
            )
            front = AsyncCluster(cluster)
            try:
                victim = _tenant_on_shard(cluster, registry, 0)
                future = front.submit(_steps(registry, victim))
                await front.pump()
                assert cluster.dead_shards == (0,)
                with pytest.raises(ServiceKilled):
                    await future
            finally:
                await front.shutdown()

        asyncio.run(drive())

    def test_accept_kill_resolves_with_rejection(self, registry, tmp_path):
        from repro.serve import AsyncCluster

        async def drive():
            cluster = ShardCluster(
                registry,
                shards=4,
                journal_dir=tmp_path,
                faults={1: ServiceFaultPlan(kill_after_accepts=1)},
            )
            front = AsyncCluster(cluster)
            try:
                victim = _tenant_on_shard(cluster, registry, 1)
                future = front.submit(_steps(registry, victim))
                assert future.done()
                response = await future
                assert isinstance(response, Rejected)
                assert response.reason == "shard_down"
                assert cluster.dead_shards == (1,)
                assert front.pending == 0
            finally:
                await front.shutdown()

        asyncio.run(drive())

    def test_drain_resolves_everything(self, registry):
        from repro.serve import AsyncCluster

        async def drive():
            cluster = ShardCluster(registry, shards=3)
            front = AsyncCluster(cluster)
            try:
                futures = [
                    front.submit(_steps(registry, f"device-{i:05d}"))
                    for i in range(9)
                ]
                await front.drain()
                responses = await asyncio.gather(*futures)
                assert all(isinstance(r, Completed) for r in responses)
            finally:
                await front.shutdown()

        asyncio.run(drive())
