"""Crash-recovery equivalence: kill the shard anywhere, lose nothing.

The acceptance bar for the durability tier: for any planned kill point
— after an accept, at any pump phase, with or without a torn journal
tail, on any shard of the cluster — the union of pre-crash responses
and post-recovery responses must be bit-identical to the uninterrupted
run's on the same topology, quota rejections included.  A damaged
journal recovers its longest valid prefix; a restart can never reset
tenant budgets; a stalled or journal-broken shard degrades
deterministically and sheds bulk work.
"""

import gc
import warnings

import numpy as np
import pytest

from repro.apps import all_applications
from repro.errors import ServiceKilled, TraceError
from repro.serve import scheduler as scheduler_module
from repro.serve import (
    Completed,
    ConditionService,
    HealthPolicy,
    Lane,
    LoadSpec,
    Rejected,
    ServiceFaultPlan,
    ShardCluster,
    Submission,
    TenantQuota,
    fleet_workload,
    read_journal,
    response_digest,
    run_fleet,
    shard_journal_path,
)
from repro.serve.journal import JournalWriter
from repro.serve.loadgen import (
    STREAM_INCREMENTAL_IL,
    STREAM_REPLAY_IL,
    VALID_ACCEL_IL,
)
from repro.traces.robot import RobotRunConfig, generate_robot_run

QUOTA = TenantQuota(max_pending=2)
PUMP_EVERY = 16


@pytest.fixture(scope="module")
def registry(robot_trace, quiet_robot_trace, audio_trace):
    traces = (robot_trace, quiet_robot_trace, audio_trace)
    return {trace.name: trace for trace in traces}


def _drive(registry, submissions, shards, journal_dir=None, faults=None):
    cluster = ShardCluster(
        registry, quota=QUOTA, shards=shards, journal_dir=journal_dir,
        faults=faults,
    )
    try:
        return run_fleet(cluster, submissions, pump_every=PUMP_EVERY)
    finally:
        cluster.shutdown()


def _responses(report):
    return [response for _, response in report.responses]


@pytest.fixture(scope="module")
def bundle(registry):
    """Per-(seed, shards) (workload, uninterrupted reference run),
    computed once."""
    workloads = {}
    references = {}

    def get(seed, shards=1):
        if seed not in workloads:
            spec = LoadSpec(
                fleet=24,
                seed=seed,
                min_submissions=1,
                max_submissions=3,
                il_fraction=0.15,
                invalid_fraction=0.1,
            )
            workloads[seed] = fleet_workload(
                spec, all_applications(), list(registry.values())
            )
        if (seed, shards) not in references:
            report = _drive(registry, workloads[seed], shards)
            assert report.rejections, "workload must exercise rejections"
            references[(seed, shards)] = report
        return workloads[seed], references[(seed, shards)]

    return get


@pytest.fixture(scope="module")
def workload(bundle):
    return bundle(5)[0]


@pytest.fixture(scope="module")
def reference(bundle):
    """The uninterrupted run every crashed run must reproduce."""
    return bundle(5)[1]


def _plan_id(plan):
    return (
        f"accepts{plan.kill_after_accepts}" if plan.kill_after_accepts
        else f"pump{plan.kill_at_pump}-{plan.kill_pump_phase}"
    ) + (f"-torn{plan.torn_tail_bytes}" if plan.torn_tail_bytes else "")


KILL_PLANS = [
    ServiceFaultPlan(kill_after_accepts=8),
    ServiceFaultPlan(kill_after_accepts=20, torn_tail_bytes=33),
    ServiceFaultPlan(kill_at_pump=0, kill_pump_phase="begin"),
    ServiceFaultPlan(kill_at_pump=1, kill_pump_phase="store"),
    ServiceFaultPlan(kill_at_pump=1, kill_pump_phase="end", torn_tail_bytes=48),
    ServiceFaultPlan(kill_at_pump=2, kill_pump_phase="store"),
]

#: Seeds × kill points on one shard: the full plan battery on the main
#: workload, and a kill per category on a second seeded workload so
#: the equivalence is a property of the mechanism, not one stream.
SCENARIOS = [(5, 1, 0, plan) for plan in KILL_PLANS] + [
    (11, 1, 0, ServiceFaultPlan(kill_after_accepts=13)),
    (11, 1, 0, ServiceFaultPlan(kill_at_pump=1, kill_pump_phase="store",
                                torn_tail_bytes=21)),
    (11, 1, 0, ServiceFaultPlan(kill_at_pump=0, kill_pump_phase="end")),
    # A tail long enough to land whole accept records past the last
    # round: the resume point is the last durable accept, not a round.
    (5, 1, 0, ServiceFaultPlan(kill_after_accepts=20, torn_tail_bytes=800)),
]

#: Kills on a non-zero shard of four: the victim's own schedule is
#: replayed while the other shards keep serving.  A 4-way split gives
#: each shard 8–16 tickets of these workloads, so accept kills stay
#: well below that.  On seed 7, shard 3's second round follows a quota
#: rejection after its last accept, so its kill resumes past that
#: durable round rather than after the last durable accept.
CLUSTER_SCENARIOS = [
    (5, 4, 1, ServiceFaultPlan(kill_after_accepts=3)),
    (5, 4, 3, ServiceFaultPlan(kill_after_accepts=6, torn_tail_bytes=33)),
    (7, 4, 3, ServiceFaultPlan(kill_after_accepts=11)),
    (5, 4, 1, ServiceFaultPlan(kill_at_pump=1, kill_pump_phase="end",
                               torn_tail_bytes=48)),
    # A "tail" covering the whole buffer makes the killing accept itself
    # durable: its ticket stands and the submission is not re-driven.
    (5, 4, 3, ServiceFaultPlan(kill_after_accepts=6, torn_tail_bytes=1 << 16)),
]


@pytest.mark.parametrize(
    "seed, shards, victim, plan", SCENARIOS + CLUSTER_SCENARIOS,
    ids=lambda value: (
        _plan_id(value) if isinstance(value, ServiceFaultPlan)
        else str(value)
    ),
)
def test_kill_anywhere_recovers_bit_identically(
    registry, bundle, tmp_path, seed, shards, victim, plan
):
    workload, reference = bundle(seed, shards)
    report = _drive(
        registry, workload, shards, journal_dir=tmp_path,
        faults={victim: plan},
    )
    assert set(report.recoveries) == {victim}, "the kill must actually fire"
    stats = report.recoveries[victim]
    # The union of pre-crash and post-recovery responses equals the
    # uninterrupted run's responses as a multiset of bytes...
    assert response_digest(_responses(report)) == response_digest(
        _responses(reference)
    )
    # ... and the interleaved admission decisions replayed identically,
    # quota rejections included.
    assert [(s, r.tenant, r.reason) for s, r in report.rejections] == [
        (s, r.tenant, r.reason) for s, r in reference.rejections
    ]
    assert report.tickets == reference.tickets
    if plan.torn_tail_bytes and stats.truncated_bytes:
        assert stats.truncation_reason == "torn_tail"


def test_restart_reanswers_everything_bit_identically(
    registry, workload, reference, tmp_path
):
    """A clean restart from the journal re-answers every completed
    submission without touching the engine."""
    report = _drive(registry, workload, shards=1, journal_dir=tmp_path)
    assert response_digest(_responses(report)) == response_digest(
        _responses(reference)
    )
    recovered, stats = ConditionService.recover(
        shard_journal_path(tmp_path, 0), registry, quota=QUOTA
    )
    try:
        assert stats.truncated_bytes == 0
        assert stats.reexecuted == ()
        assert stats.requeued == ()
        assert len(stats.replayed) == reference.tickets
        assert response_digest(stats.replayed) == response_digest(
            _responses(reference)
        )
        # Every result is fetchable under its original ticket id.
        for response in _responses(report):
            sid = response.ticket.submission_id
            assert recovered.result(sid) == response
    finally:
        recovered.shutdown()


def _accepted(svc, registry, tenant="t1", lane=Lane.BULK):
    (trace_name, *_) = registry
    outcome = svc.submit(
        Submission(tenant=tenant, trace=trace_name, app="steps", lane=lane)
    )
    assert not isinstance(outcome, Rejected), outcome
    return outcome


class TestRecoveryReadsTheJournal:
    """Recovery seeds the coalescing memo from the keys journaled with
    each payer instead of re-deriving them: no condition re-validates,
    and every payer is coalesced onto again afterwards."""

    def test_recovery_validates_no_condition(
        self, registry, tmp_path, monkeypatch
    ):
        conditions = VALID_ACCEL_IL + STREAM_INCREMENTAL_IL + STREAM_REPLAY_IL
        accel = [n for n, trace in registry.items() if "ACC_X" in trace.data]
        journal = tmp_path / "shard.wal"
        svc = ConditionService(registry, journal=journal)
        try:
            # Every condition twice per trace: one payer, one dedup.
            for k, il in enumerate(conditions * 2):
                for name in accel:
                    ticket = svc.submit(Submission(f"t{k}", name, il=il))
                    assert not isinstance(ticket, Rejected), ticket
            responses = svc.drain()
        finally:
            svc.shutdown()
        payers = [r for r in responses if not r.dedup]
        assert len(payers) == len(conditions) * len(accel)

        calls = []
        validate = scheduler_module.validate_condition

        def counting(il, *args, **kwargs):
            calls.append(il)
            return validate(il, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "validate_condition", counting)
        recovered, stats = ConditionService.recover(journal, registry)
        try:
            assert calls == []
            assert stats.seeded == len(payers)
            assert f"{len(payers)} memo entries seeded" in stats.describe()
            for k, il in enumerate(conditions):
                for name in accel:
                    recovered.submit(Submission(f"r{k}", name, il=il))
            again = recovered.drain()
            assert all(isinstance(r, Completed) and r.dedup for r in again)
            assert recovered.metrics().engine_runs == 0
            # A condition validates on its first submission after.
            assert sorted(calls) == sorted(conditions)
        finally:
            recovered.shutdown()

    def test_never_firing_payers_are_seeded_from_cref_records(
        self, tmp_path
    ):
        # Two conditions that never fire both return the one empty
        # tuple, so the second payer is journaled as a cref record.
        trace = generate_robot_run(
            RobotRunConfig(group=2, duration_s=60.0, seed=7)
        )
        registry = {trace.name: trace}
        never = (
            "ACC_X -> minThreshold(id=1, params={1000}); 1 -> OUT;",
            "ACC_Y -> minThreshold(id=1, params={1000}); 1 -> OUT;",
        )
        journal = tmp_path / "shard.wal"
        svc = ConditionService(
            registry, journal=journal,
            faults=ServiceFaultPlan(kill_after_accepts=3),
        )
        for k, il in enumerate(never):
            svc.submit(Submission(f"t{k}", trace.name, il=il))
        first = svc.pump()
        assert [(r.result, r.dedup) for r in first] == [
            ((), False), ((), False),
        ]
        with pytest.raises(ServiceKilled):
            svc.submit(Submission("t2", trace.name, il=never[0]))
        records = [
            record for record in read_journal(journal).records
            if record[0] in ("complete", "cref")
        ]
        assert [record[0] for record in records] == ["complete", "cref"]
        assert all(record[-1] is not None for record in records)

        recovered, stats = ConditionService.recover(journal, registry)
        try:
            assert stats.seeded == 2
            spaced = "  " + never[1].replace("; ", " ;\n   ") + "\n"
            for k, il in enumerate((never[1], spaced)):
                recovered.submit(Submission(f"r{k}", trace.name, il=il))
            again = recovered.drain()
            assert [(r.result, r.dedup) for r in again] == [
                ((), True), ((), True),
            ]
        finally:
            recovered.shutdown()


class TestDamagedJournals:
    def test_bad_crc_record_truncates_to_valid_prefix(
        self, registry, tmp_path
    ):
        journal = tmp_path / "shard.wal"
        svc = ConditionService(registry, journal=journal)
        try:
            for tenant in ("a", "b", "c"):
                _accepted(svc, registry, tenant=tenant)
            svc.pump()
        finally:
            svc.shutdown()
        clean = read_journal(journal)
        data = bytearray(journal.read_bytes())
        data[-1] ^= 0xFF  # bit-rot inside the last record's payload
        journal.write_bytes(bytes(data))
        recovered, stats = ConditionService.recover(journal, registry)
        try:
            assert stats.truncation_reason == "corrupt_record"
            assert stats.truncated_bytes > 0
            assert stats.records == len(clean.records) - 1
            # The journal itself was truncated back to health.
            assert read_journal(journal).reason is None
            # The lost completion was re-executed, not forgotten.
            assert len(stats.replayed) + len(stats.reexecuted) == 3
        finally:
            recovered.shutdown()

    def test_torn_tail_is_truncated_and_reported(self, registry, tmp_path):
        journal = tmp_path / "shard.wal"
        plan = ServiceFaultPlan(kill_after_accepts=3, torn_tail_bytes=17)
        svc = ConditionService(registry, journal=journal, faults=plan)
        _accepted(svc, registry, tenant="a")
        svc.pump()  # flushes the first accept + round
        _accepted(svc, registry, tenant="b")
        with pytest.raises(ServiceKilled):
            _accepted(svc, registry, tenant="c")
        assert read_journal(journal).reason == "torn_tail"
        recovered, stats = ConditionService.recover(journal, registry)
        try:
            assert stats.truncation_reason == "torn_tail"
            assert stats.truncated_bytes == 17
        finally:
            recovered.shutdown()

    def test_failed_recovery_closes_its_journal(self, tmp_path):
        """A rebuild that raises must not leave the new service's
        journal file open (a ResourceWarning when it is collected)."""
        journal = tmp_path / "shard.wal"
        writer = JournalWriter(journal)
        for seq in (0, 2):
            writer.append(
                ("chunk", "t0", "s0", seq, 0.0, {"ACC_X": 50.0},
                 {"ACC_X": np.zeros(4).tobytes()})
            )
        writer.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TraceError, match="must append in order"):
                ConditionService.recover(journal, {})
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


class TestQuotaReconstruction:
    def test_restart_cannot_reset_tenant_budgets(self, registry, tmp_path):
        journal = tmp_path / "shard.wal"
        quota = TenantQuota(max_pending=4)
        svc = ConditionService(
            registry, quota=quota, batch_size=2, journal=journal
        )
        try:
            for _ in range(4):
                _accepted(svc, registry, tenant="t1")
            svc.pump()  # completes 2, leaves 2 pending (accepts durable)
        finally:
            svc.shutdown(drain=False)  # cancels the 2 queued, durably
        recovered, stats = ConditionService.recover(
            journal, registry, quota=quota, batch_size=2
        )
        try:
            assert stats.accepts == 4
            # Shutdown cancellation was journaled, so nothing requeues
            # and the tenant's pending count is back to zero...
            assert stats.requeued == ()
            for _ in range(4):
                _accepted(recovered, registry, tenant="t1")
            # ... and the reconstructed pending count still enforces the
            # quota exactly where the uninterrupted service would.
            (trace_name, *_) = registry
            outcome = recovered.submit(
                Submission(tenant="t1", trace=trace_name, app="steps")
            )
            assert isinstance(outcome, Rejected)
            assert outcome.reason == "tenant_quota"
        finally:
            recovered.shutdown()

    def test_requeued_accepts_keep_their_pending_slots(
        self, registry, tmp_path
    ):
        journal = tmp_path / "shard.wal"
        quota = TenantQuota(max_pending=4)
        plan = ServiceFaultPlan(kill_at_pump=1, kill_pump_phase="begin")
        svc = ConditionService(
            registry, quota=quota, batch_size=2, journal=journal, faults=plan
        )
        for _ in range(4):
            _accepted(svc, registry, tenant="t1")
        svc.pump()  # round 0: completes 2, flushes all 4 accepts
        with pytest.raises(ServiceKilled):
            svc.pump()  # round 1 dies at "begin"
        recovered, stats = ConditionService.recover(
            journal, registry, quota=quota, batch_size=2
        )
        try:
            # Round 1's membership was durable, so its two submissions
            # re-executed; nothing is left to requeue.
            assert len(stats.reexecuted) == 2
            assert recovered.queue_depth == 0
            # All four pending slots were released by completion, so the
            # tenant has full headroom again — no double-charging.
            for _ in range(4):
                _accepted(recovered, registry, tenant="t1")
        finally:
            recovered.shutdown()


class TestHealthSupervision:
    def test_stalled_shard_sheds_bulk_keeps_interactive(self, registry):
        policy = HealthPolicy(pump_period=1.0, tolerance=1, recovery_pumps=1)
        svc = ConditionService(registry, health=policy)
        try:
            _accepted(svc, registry, tenant="a")  # now=0, gap 0
            _accepted(svc, registry, tenant="b")  # now=1, gap 1 (deadline)
            (trace_name, *_) = registry
            outcome = svc.submit(
                Submission(tenant="c", trace=trace_name, app="steps")
            )
            assert isinstance(outcome, Rejected)  # now=2, gap 2 > deadline
            assert outcome.reason == "degraded"
            # Interactive work still lands on the degraded shard.
            _accepted(svc, registry, tenant="c", lane=Lane.INTERACTIVE)
            snapshot = svc.metrics()
            assert snapshot.health_state == "degraded"
            assert snapshot.health_transitions == (
                (2.0, "healthy", "degraded"),
            )
            # Draining pumps on schedule earns the shard its way back.
            svc.drain()
            svc.pump()  # empty, timely: recovery credit
            assert svc.metrics().health_state == "healthy"
            assert len(svc.metrics().health_transitions) == 2
        finally:
            svc.shutdown()

    def test_journal_error_rejects_and_degrades(self, registry, tmp_path):
        plan = ServiceFaultPlan(journal_error_appends=(2,))
        svc = ConditionService(
            registry, journal=tmp_path / "shard.wal", faults=plan
        )
        try:
            _accepted(svc, registry, tenant="a")
            _accepted(svc, registry, tenant="b")
            (trace_name, *_) = registry
            outcome = svc.submit(
                Submission(tenant="c", trace=trace_name, app="steps")
            )
            assert isinstance(outcome, Rejected)
            assert outcome.reason == "journal_unavailable"
            snapshot = svc.metrics()
            assert snapshot.journal_errors == 1
            assert snapshot.health_state == "degraded"
            # The failed acceptance was retracted: queue holds only the
            # two durable accepts, and the rejected tenant is uncharged.
            assert svc.queue_depth == 2
            responses = svc.drain()
            assert {r.ticket.tenant for r in responses} == {"a", "b"}
            assert all(isinstance(r, Completed) for r in responses)
        finally:
            svc.shutdown()
