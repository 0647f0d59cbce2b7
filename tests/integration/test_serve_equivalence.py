"""Service results are bit-identical to direct engine runs.

The acceptance bar for the serving layer: everything a
:class:`~repro.serve.service.ConditionService` completes — through the
bounded queue, admission control, fingerprint dedup, cross-round memo
and batched engine execution — must equal a fresh direct
``Sidewinder``/engine run of the same condition, bit for bit, including
when quota rejections interleave with accepted work and invalid IL
rides in the same batches.
"""

import pytest

from repro.serve import (
    Completed,
    ConditionService,
    Failed,
    LoadSpec,
    Rejected,
    ShardCluster,
    Submission,
    TenantQuota,
    Ticket,
    fleet_workload,
    reference_result,
    run_fleet,
)
from repro.serve.loadgen import VALID_ACCEL_IL
from repro.apps import all_applications
from repro.sim.configs.sidewinder import Sidewinder


@pytest.fixture(scope="module")
def registry(robot_trace, quiet_robot_trace, audio_trace):
    traces = (robot_trace, quiet_robot_trace, audio_trace)
    return {trace.name: trace for trace in traces}


def test_app_results_bit_identical_to_direct_runs(registry, robot_trace):
    svc = ConditionService(registry)
    try:
        for tenant in ("a", "b"):
            svc.submit(
                Submission(tenant=tenant, trace=robot_trace.name, app="steps")
            )
        payer, coalesced = svc.pump()
    finally:
        svc.shutdown()
    direct = Sidewinder().run(
        {app.name: app for app in all_applications()}["steps"], robot_trace
    )
    # Full structural equality: timeline, power breakdown, detections.
    assert payer.result == direct
    assert coalesced.result == direct
    assert coalesced.dedup and not payer.dedup


def test_il_results_bit_identical_to_direct_runs(registry, robot_trace):
    svc = ConditionService(registry)
    try:
        submission = Submission(
            tenant="dev", trace=robot_trace.name, il=VALID_ACCEL_IL[0],
            chunk_seconds=2.0,
        )
        svc.submit(submission)
        (response,) = svc.pump()
    finally:
        svc.shutdown()
    assert isinstance(response, Completed)
    assert response.result == reference_result(submission, registry)
    assert len(response.result) > 0


def test_fleet_with_rejections_stays_bit_identical(registry):
    """A tight quota forces rejections interleaved with accepted work;
    every completion must still match its direct run."""
    spec = LoadSpec(
        fleet=40,
        seed=3,
        min_submissions=2,
        max_submissions=4,
        il_fraction=0.15,
        invalid_fraction=0.1,
    )
    submissions = fleet_workload(
        spec, all_applications(), list(registry.values())
    )
    cluster = ShardCluster(
        registry, quota=TenantQuota(max_pending=2, max_submissions=3)
    )
    try:
        # A large pump interval lets per-tenant pending counts build up,
        # so the quota actually bites mid-stream.
        report = run_fleet(cluster, submissions, pump_every=64)
    finally:
        cluster.shutdown()

    assert report.submitted == len(submissions)
    # The interesting regime really occurred: rejections (quota and/or
    # budget) interleaved with accepted-and-completed work, plus some
    # structured per-request failures from invalid IL.
    reasons = {r.reason for _, r in report.rejections}
    assert reasons & {"tenant_quota", "tenant_budget"}
    assert report.completed
    assert report.failed
    assert report.tickets == len(report.responses)

    dedup = 0
    for submission, response in report.pairs:
        if not isinstance(response, Completed):
            continue
        assert response.result == reference_result(submission, registry), (
            submission,
        )
        dedup += response.dedup
    # Coalescing happened and never changed an answer.
    assert dedup > 0
    # Failures are structured library errors, not crashes.
    for response in report.failed:
        assert response.error_type.endswith("Error")


def test_batching_on_and_off_bit_identical(registry):
    """Tensor-major batching is invisible in every response: the same
    workload served with and without it yields identical outcomes,
    while the batched shard actually ran batch rounds."""
    from repro.serve import response_digest
    from repro.sim.engine import RunContext
    from repro.traces.robot import RobotRunConfig, generate_robot_run

    # Batching needs the same condition over *different* traces in one
    # pump round, so widen the registry beyond the shared fixtures (the
    # first row of a fresh fingerprint runs alone as the probe).
    fleet_registry = dict(registry)
    for seed in range(4):
        trace = generate_robot_run(
            RobotRunConfig(group=1 + seed % 2, duration_s=60.0, seed=100 + seed)
        )
        fleet_registry[trace.name] = trace

    def drive(batch):
        spec = LoadSpec(fleet=24, seed=5, il_fraction=0.9)
        submissions = fleet_workload(
            spec, all_applications(), list(fleet_registry.values())
        )
        cluster = ShardCluster(
            fleet_registry, context_factory=lambda: RunContext(batch=batch)
        )
        try:
            report = run_fleet(cluster, submissions, pump_every=16)
        finally:
            cluster.shutdown()
        return report, report.metrics.merged

    batched, batched_metrics = drive(batch=True)
    plain, plain_metrics = drive(batch=False)
    assert response_digest(batched.responses) == response_digest(
        plain.responses
    )
    assert [r.ticket for _, r in batched.responses] == [
        r.ticket for _, r in plain.responses
    ]
    # Batching genuinely engaged on the batched shard only.
    assert batched_metrics.batch_rounds > 0
    assert (
        batched_metrics.batched_cells >= 2 * batched_metrics.batch_rounds
    )
    assert plain_metrics.batch_rounds == 0
    assert plain_metrics.batched_cells == 0


def test_shape_batching_on_and_off_bit_identical(registry):
    """Shape-keyed batching is invisible too: one detector shape with
    per-tenant thresholds (distinct fingerprints, one shape) served
    with and without it yields identical responses, while the enabled
    shard actually ran shape rounds."""
    from repro.hub.compile import shape_signature
    from repro.hub.costmodel import CostModel
    from repro.il.parser import parse_program
    from repro.il.validate import validate_program
    from repro.serve import response_digest
    from repro.sim.engine import RunContext

    # Raw-IL fleet: every tenant runs the same detector shape with its
    # own threshold — as many fingerprints as tenants, one shape.
    trace_names = [
        name for name in sorted(registry) if name.startswith("robot")
    ]

    def tenant_il(k):
        return (
            "ACC_X -> movingAvg(id=1, params={8});"
            f"1 -> maxThreshold(id=2, params={{{0.05 + 0.03 * k:.2f}}});"
            "2 -> OUT;"
        )

    submissions = [
        Submission(
            tenant=f"tenant-{k}",
            trace=trace_names[k % len(trace_names)],
            il=tenant_il(k),
            chunk_seconds=2.0,
        )
        for k in range(12)
    ]
    # Pin the shared shape to the compiled tier: the cost model's probe
    # threshold is wall-clock based, so an unpinned run may settle on a
    # different tier under load (still bit-identical, but then the
    # shape-round counters this test asserts on would be zero).
    shape = shape_signature(validate_program(parse_program(tenant_il(0))))

    def drive(shape_batch):
        cluster = ShardCluster(
            registry,
            context_factory=lambda: RunContext(
                shape_batch=shape_batch,
                cost_model=CostModel(table={shape: "compiled"}),
            ),
        )
        try:
            report = run_fleet(
                cluster, list(submissions), pump_every=len(submissions)
            )
        finally:
            cluster.shutdown()
        return report, report.metrics.merged

    shaped, shaped_metrics = drive(shape_batch=True)
    plain, plain_metrics = drive(shape_batch=False)
    assert response_digest(shaped.responses) == response_digest(
        plain.responses
    )
    assert [r.ticket for _, r in shaped.responses] == [
        r.ticket for _, r in plain.responses
    ]
    # Shape batching genuinely engaged on the enabled shard only.
    assert shaped_metrics.shape_rounds > 0
    assert (
        shaped_metrics.shape_cells >= 2 * shaped_metrics.shape_rounds
    )
    assert plain_metrics.shape_rounds == 0
    assert plain_metrics.shape_cells == 0


def test_same_seed_same_outcome(registry):
    """The whole serve path is deterministic: same seed, same workload,
    same tickets, same rejections, same results."""
    def drive():
        spec = LoadSpec(fleet=12, seed=9, il_fraction=0.2)
        submissions = fleet_workload(
            spec, all_applications(), list(registry.values())
        )
        cluster = ShardCluster(registry, quota=TenantQuota(max_pending=2))
        try:
            report = run_fleet(cluster, submissions, pump_every=16)
        finally:
            cluster.shutdown()
        outcomes = []
        for _, response in report.responses:
            if isinstance(response, Completed):
                outcomes.append(
                    ("ok", response.ticket.submission_id, response.dedup,
                     response.latency)
                )
            else:
                outcomes.append(
                    ("fail", response.ticket.submission_id,
                     response.error_type)
                )
        rejections = [(r.tenant, r.reason) for _, r in report.rejections]
        results = [r.result for r in report.completed]
        return outcomes, rejections, results

    first = drive()
    second = drive()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
