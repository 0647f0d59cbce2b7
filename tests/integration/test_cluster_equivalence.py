"""Sharding never changes an answer: cluster topology equivalence.

The acceptance bar for the sharded tier (ISSUE 8): the
topology-independent :func:`~repro.serve.loadgen.completion_digest`
must be identical between a 1-shard and an N-shard cluster over the
same workload, must survive killing and recovering a shard mid-drive,
and must be indifferent to whether the shards are pumped serially,
concurrently, or through the asyncio front end.
"""

import asyncio

import pytest

from repro.apps import all_applications
from repro.serve import (
    AsyncCluster,
    Completed,
    LoadSpec,
    Rejected,
    ServiceFaultPlan,
    ShardCluster,
    TenantQuota,
    completion_digest,
    fleet_workload,
    run_fleet,
    submission_content_key,
)
from repro.serve.service import ConditionService


@pytest.fixture(scope="module")
def registry(robot_trace, quiet_robot_trace, audio_trace, human_trace):
    traces = (robot_trace, quiet_robot_trace, audio_trace, human_trace)
    return {trace.name: trace for trace in traces}


@pytest.fixture(scope="module")
def workload(registry):
    spec = LoadSpec(fleet=24, seed=0, min_submissions=1, max_submissions=2)
    return fleet_workload(spec, all_applications(), list(registry.values()))


def _drive(registry, workload, shards, **kwargs):
    cluster = ShardCluster(
        registry, shards=shards, quota=TenantQuota(max_pending=8), **kwargs
    )
    try:
        return run_fleet(cluster, workload, pump_every=16)
    finally:
        cluster.shutdown()


@pytest.fixture(scope="module")
def reference_digest(registry, workload):
    """The 1-shard completion digest every topology must reproduce."""
    return completion_digest(_drive(registry, workload, shards=1).pairs)


class TestTopologyEquivalence:
    def test_four_shards_match_one_shard(
        self, registry, workload, reference_digest
    ):
        report = _drive(registry, workload, shards=4)
        assert report.tickets == len(report.responses)
        assert completion_digest(report.pairs) == reference_digest

    def test_serial_pumps_match_parallel(
        self, registry, workload, reference_digest
    ):
        report = _drive(
            registry, workload, shards=4, parallel_pumps=False
        )
        assert completion_digest(report.pairs) == reference_digest

    def test_cluster_matches_plain_service(
        self, registry, workload, reference_digest
    ):
        # The bare service (no router, no cluster, no fleet driver)
        # grounds the chain: cluster(1) == cluster(4) == ConditionService.
        service = ConditionService(
            registry, quota=TenantQuota(max_pending=8)
        )
        by_ticket = {}
        responses = []
        try:
            for index, submission in enumerate(workload):
                outcome = service.submit(submission)
                if not isinstance(outcome, Rejected):
                    by_ticket[outcome.submission_id] = submission
                if (index + 1) % 16 == 0:
                    responses.extend(service.pump())
            responses.extend(service.drain())
        finally:
            service.shutdown()
        pairs = [
            (by_ticket[response.ticket.submission_id], response)
            for response in responses
        ]
        assert len(pairs) == len(by_ticket)
        assert completion_digest(pairs) == reference_digest

    def test_digest_sees_result_content(self, registry, workload):
        # Guard the digest itself: swapping one completion's result
        # must change it (the digest is not vacuously stable).
        report = _drive(registry, workload, shards=2)
        honest = completion_digest(report.pairs)
        pairs = list(report.pairs)
        for index, (submission, response) in enumerate(pairs):
            if isinstance(response, Completed):
                other = next(
                    r for _, r in pairs
                    if isinstance(r, Completed) and r.result != response.result
                )
                pairs[index] = (
                    submission,
                    Completed(
                        ticket=response.ticket,
                        result=other.result,
                        dedup=response.dedup,
                        latency=response.latency,
                    ),
                )
                break
        assert completion_digest(pairs) != honest


class TestKillRecoverEquivalence:
    @pytest.mark.parametrize("kill_at_pump", [0, 1])
    def test_kill_and_recover_one_shard_of_four(
        self, registry, workload, reference_digest, tmp_path, kill_at_pump
    ):
        cluster = ShardCluster(
            registry,
            shards=4,
            quota=TenantQuota(max_pending=8),
            journal_dir=tmp_path / f"kill-{kill_at_pump}",
            faults={
                1: ServiceFaultPlan(
                    kill_at_pump=kill_at_pump, kill_pump_phase="store"
                )
            },
        )
        try:
            report = run_fleet(cluster, workload, pump_every=16)
        finally:
            cluster.shutdown()
        # The shard really died and really recovered ...
        assert set(report.recoveries) == {1}
        assert cluster.dead_shards == ()
        # ... and recovery changed nothing the fleet can observe.
        assert completion_digest(report.pairs) == reference_digest

    def test_recovered_responses_reuse_journaled_results(
        self, registry, workload, tmp_path
    ):
        # Kill after a pump has stored results: recovery must replay
        # those from the journal, not recompute everything.
        cluster = ShardCluster(
            registry,
            shards=4,
            quota=TenantQuota(max_pending=8),
            journal_dir=tmp_path,
            faults={1: ServiceFaultPlan(kill_at_pump=1)},
        )
        try:
            report = run_fleet(cluster, workload, pump_every=16)
        finally:
            cluster.shutdown()
        assert len(report.recoveries[1].replayed) > 0


class TestAsyncEquivalence:
    def test_async_front_end_matches_reference(
        self, registry, workload, reference_digest
    ):
        async def drive():
            cluster = ShardCluster(
                registry, shards=4, quota=TenantQuota(max_pending=8)
            )
            front = AsyncCluster(cluster)
            pairs = []
            try:
                for index, submission in enumerate(workload):
                    future = front.submit(submission)
                    future.submission = submission  # tag for collection
                    pairs.append(future)
                    if (index + 1) % 16 == 0:
                        await front.pump()
                await front.drain()
                out = []
                for future in pairs:
                    if not future.done():
                        continue  # rejected futures resolved immediately
                    response = future.result()
                    if hasattr(response, "ticket"):
                        out.append((future.submission, response))
                return out
            finally:
                await front.shutdown()

        pairs = asyncio.run(drive())
        assert completion_digest(pairs) == reference_digest

    def test_submission_content_key_ignores_identity(self, registry):
        from repro.serve import Submission

        (trace_name, *_) = registry
        a = submission_content_key(
            Submission(tenant="t", trace=trace_name, app="steps")
        )
        b = submission_content_key(
            Submission(
                tenant="".join("t"), trace=str(trace_name),
                app="".join(["st", "eps"]),
            )
        )
        assert a == b
