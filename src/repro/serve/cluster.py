"""The sharded serving tier: N condition services behind one router.

One :class:`~repro.serve.service.ConditionService` is one shard: one
pump loop, one scheduler, one engine context.  :class:`ShardCluster`
composes N of them behind a deterministic
:class:`~repro.serve.router.ShardRouter` (rendezvous hashing on
``(tenant, trace)``), so fleet work partitions across independent
schedulers while each shard keeps the single-shard guarantees —
fingerprint dedup, tensor-major batching, durable journals, health
supervision — within its partition.

Isolation is the design rule: every shard owns its own
:class:`~repro.sim.engine.RunContext` (and therefore its own
:class:`~repro.sim.engine.EnginePool` worker pool), its own clock, and
its own write-ahead journal (``shard-00.wal`` … under one directory),
so shards never contend for cached graphs, pool settings, or journal
frames, and a crashed shard recovers from *its* journal without
touching the others.  Shard pumps run concurrently over a thread
executor; no state crosses shard boundaries, so concurrency cannot
change any shard's responses.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ServiceKilled, SidewinderError
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.serve.health import HealthPolicy
from repro.serve.journal import RecoveryStats
from repro.serve.metrics import (
    LogicalClock,
    MetricsSnapshot,
    percentile_sorted,
)
from repro.serve.faults import ServiceFaultPlan
from repro.serve.quotas import TenantQuota
from repro.serve.router import ShardRouter
from repro.serve.service import ConditionService
from repro.serve.submission import Rejected, Response, Submission, Ticket
from repro.sim.engine import RunContext
from repro.traces.base import Trace

__all__ = [
    "ClusterMetricsSnapshot",
    "Routed",
    "ShardCluster",
    "shard_journal_path",
]


def shard_journal_path(journal_dir: Union[str, Path], shard: int) -> Path:
    """Where shard ``shard`` journals under ``journal_dir``."""
    return Path(journal_dir) / f"shard-{shard:02d}.wal"


@dataclass(frozen=True)
class Routed:
    """A routed admission outcome: which shard, and what it said.

    ``response`` is the shard's :meth:`ConditionService.submit` return —
    a :class:`Ticket` on acceptance, a :class:`Rejected` refusal
    otherwise.  Submission ids are **per-shard** counters, so a result
    lookup always needs the ``(shard, submission_id)`` pair.
    """

    shard: int
    response: Union[Ticket, Rejected]

    @property
    def accepted(self) -> bool:
        """True when the shard issued a ticket."""
        return isinstance(self.response, Ticket)


@dataclass(frozen=True)
class ClusterMetricsSnapshot:
    """Cross-shard metrics: merged totals plus the per-shard breakdown.

    ``merged`` sums counters across shards and recomputes latency
    percentiles over the **union** of every shard's raw samples —
    per-shard percentiles cannot be averaged into a fleet percentile.
    ``merged.health_state`` is ``"degraded"`` if any shard is.
    """

    shards: int
    merged: MetricsSnapshot
    per_shard: Tuple[MetricsSnapshot, ...]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for logs and benchmark artifacts."""
        return {
            "shards": self.shards,
            "merged": self.merged.as_dict(),
            "per_shard": [snap.as_dict() for snap in self.per_shard],
        }

    def describe(self) -> str:
        """Merged report plus one summary line per shard."""
        lines = [f"cluster of {self.shards} shard(s)", self.merged.describe()]
        for shard, snap in enumerate(self.per_shard):
            lines.append(
                f"  shard {shard}: accepted {snap.accepted} | completed "
                f"{snap.completed} | engine runs {snap.engine_runs} | "
                f"dedup {snap.dedup_hit_rate:.1%} | p99 {snap.latency_p99:g}"
            )
        return "\n".join(lines)


def merge_snapshots(
    per_shard: Sequence[MetricsSnapshot],
    latency_samples: Sequence[Sequence[float]],
) -> MetricsSnapshot:
    """Fold per-shard snapshots into one fleet-wide snapshot.

    Counters add; the rejection breakdown merges by reason; dedup
    hit-rate and latency percentiles are recomputed from the summed
    counters and the pooled raw samples.  Health transitions are not
    merged (they are per-shard timelines on per-shard clocks) — read
    them from the per-shard snapshots.
    """
    rejected: Dict[str, int] = {}
    for snap in per_shard:
        for reason, count in snap.rejected.items():
            rejected[reason] = rejected.get(reason, 0) + count
    pooled = sorted(
        sample for samples in latency_samples for sample in samples
    )
    completed = sum(snap.completed for snap in per_shard)
    dedup_hits = sum(snap.dedup_hits for snap in per_shard)
    return MetricsSnapshot(
        submitted=sum(snap.submitted for snap in per_shard),
        accepted=sum(snap.accepted for snap in per_shard),
        rejected=rejected,
        completed=completed,
        failed=sum(snap.failed for snap in per_shard),
        cancelled=sum(snap.cancelled for snap in per_shard),
        engine_runs=sum(snap.engine_runs for snap in per_shard),
        dedup_hits=dedup_hits,
        dedup_hit_rate=(dedup_hits / completed if completed else 0.0),
        latency_p50=percentile_sorted(pooled, 50),
        latency_p90=percentile_sorted(pooled, 90),
        latency_p99=percentile_sorted(pooled, 99),
        latency_p999=percentile_sorted(pooled, 99.9),
        queue_depth=sum(snap.queue_depth for snap in per_shard),
        store_size=sum(snap.store_size for snap in per_shard),
        store_spilled=sum(snap.store_spilled for snap in per_shard),
        journal_errors=sum(snap.journal_errors for snap in per_shard),
        health_state=(
            "degraded"
            if any(snap.health_state != "healthy" for snap in per_shard)
            else "healthy"
        ),
        batch_rounds=sum(snap.batch_rounds for snap in per_shard),
        batched_cells=sum(snap.batched_cells for snap in per_shard),
        shape_rounds=sum(snap.shape_rounds for snap in per_shard),
        shape_cells=sum(snap.shape_cells for snap in per_shard),
        batch_padded_cells=sum(snap.batch_padded_cells for snap in per_shard),
        batch_valid_cells=sum(snap.batch_valid_cells for snap in per_shard),
        merge_rounds=sum(snap.merge_rounds for snap in per_shard),
        merged_cells=sum(snap.merged_cells for snap in per_shard),
        merge_shared_nodes=sum(
            snap.merge_shared_nodes for snap in per_shard
        ),
        shared_reads=sum(snap.shared_reads for snap in per_shard),
        shared_entries=sum(snap.shared_entries for snap in per_shard),
        shared_bytes=sum(snap.shared_bytes for snap in per_shard),
        stream_chunks=sum(snap.stream_chunks for snap in per_shard),
        stream_subscriptions=sum(
            snap.stream_subscriptions for snap in per_shard
        ),
        stream_backlog=sum(snap.stream_backlog for snap in per_shard),
        # Lag is a worst-case freshness bound, not a volume — the fleet
        # lags as far as its furthest-behind shard.
        stream_lag_s=max(
            (snap.stream_lag_s for snap in per_shard), default=0.0
        ),
        stream_rounds=sum(snap.stream_rounds for snap in per_shard),
        stream_cells=sum(snap.stream_cells for snap in per_shard),
    )


class ShardCluster:
    """N independent condition-service shards behind one router.

    Args:
        traces: Trace registry shared by every shard (read-only).
        quota: Per-tenant admission limits, enforced **per shard** —
            each shard has its own admission controller, so a tenant's
            effective fleet budget is ``quota × shards it routes to``.
        shards: Shard count (router fan-out and service count).
        capacity / interactive_reserve / batch_size / jobs /
            result_ttl / profile / spill_dir / memory_budget / health:
            Per-shard :class:`ConditionService` settings, identical
            across shards.
        clock_factory: Called once per shard for its clock; defaults to
            a fresh deterministic
            :class:`~repro.serve.metrics.LogicalClock` per shard, so a
            shard's latencies depend only on *its* submission stream,
            not on cluster-wide interleaving.
        journal_dir: When set, shard ``i`` journals to
            ``journal_dir/shard-0i.wal`` and
            :meth:`recover_shard` / :meth:`recover` can rebuild shards
            after a crash, shard by shard.
        faults: Optional per-shard fault plans (``{shard: plan}``) —
            deterministic kill/torn-tail injection for exactly the
            shards named.
        salt: Router namespace (see :class:`ShardRouter`).
        parallel_pumps: Pump shards concurrently over a thread
            executor (default).  Shards share no mutable state, so this
            cannot change any shard's responses; disable it to simplify
            debugging or profiling.
    """

    def __init__(
        self,
        traces: Mapping[str, Trace],
        quota: Optional[TenantQuota] = None,
        shards: int = 1,
        capacity: int = 256,
        interactive_reserve: int = 32,
        batch_size: int = 64,
        jobs: int = 1,
        result_ttl: float = 512.0,
        clock_factory: Optional[Callable[[], Callable[[], float]]] = None,
        profile: PhonePowerProfile = NEXUS4,
        journal_dir: Optional[Union[str, Path]] = None,
        faults: Optional[Mapping[int, ServiceFaultPlan]] = None,
        health: Optional[HealthPolicy] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        memory_budget: Optional[int] = None,
        salt: str = "",
        parallel_pumps: bool = True,
        context_factory: Optional[Callable[[], RunContext]] = None,
    ):
        self._router = ShardRouter(shards, salt=salt)
        self._traces = traces
        self._journal_dir = (
            Path(journal_dir) if journal_dir is not None else None
        )
        if self._journal_dir is not None:
            self._journal_dir.mkdir(parents=True, exist_ok=True)
        self._clock_factory = (
            clock_factory if clock_factory is not None else LogicalClock
        )
        # One fresh context per shard — never one shared context, which
        # would defeat shard isolation (and RunContext is not
        # thread-safe under concurrent pumps).
        self._context_factory = context_factory
        self._shard_kwargs = dict(
            quota=quota,
            capacity=capacity,
            interactive_reserve=interactive_reserve,
            batch_size=batch_size,
            jobs=jobs,
            result_ttl=result_ttl,
            profile=profile,
            health=health,
            memory_budget=memory_budget,
        )
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._services: List[ConditionService] = []
        for shard in range(shards):
            self._services.append(
                ConditionService(
                    traces,
                    clock=self._clock_factory(),
                    journal=self._shard_journal(shard),
                    faults=faults.get(shard) if faults is not None else None,
                    spill_dir=self._shard_spill(shard),
                    context=self._shard_context(),
                    **self._shard_kwargs,
                )
            )
        self._dead: Dict[int, str] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._parallel = parallel_pumps and shards > 1
        self._closed = False

    # -- construction plumbing ------------------------------------------

    def _shard_journal(self, shard: int) -> Optional[Path]:
        if self._journal_dir is None:
            return None
        return shard_journal_path(self._journal_dir, shard)

    def _shard_spill(self, shard: int) -> Optional[Path]:
        if self._spill_dir is None:
            return None
        return self._spill_dir / f"shard-{shard:02d}"

    def _shard_context(self):
        return (
            self._context_factory()
            if self._context_factory is not None
            else None
        )

    def _pump_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.shards,
                thread_name_prefix="shard-pump",
            )
        return self._executor

    # -- topology -------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards (live or dead)."""
        return self._router.shards

    @property
    def router(self) -> ShardRouter:
        """The routing function (stateless; safe to share)."""
        return self._router

    @property
    def traces(self) -> Mapping[str, Trace]:
        """The trace registry every shard serves."""
        return self._traces

    @property
    def dead_shards(self) -> Tuple[int, ...]:
        """Shards killed by fault injection, awaiting recovery."""
        return tuple(sorted(self._dead))

    def shard(self, shard: int) -> ConditionService:
        """Direct access to one shard's service (tests, recovery)."""
        return self._services[shard]

    # -- the tenant-facing API ------------------------------------------

    def _shard_down(self, tenant: str, shard: int) -> Rejected:
        return Rejected(
            tenant, "shard_down", f"shard {shard} is down pending recovery"
        )

    def submit(self, submission: Submission) -> Routed:
        """Route one submission to its shard and admit it there.

        A dead (killed, unrecovered) shard refuses with
        ``Rejected(reason="shard_down")`` rather than silently routing
        elsewhere — re-routing would break the determinism contract
        (the same key must always land on the same shard) and the
        recovered shard's journal replay.  An accept-time fault-plan
        kill is caught the way :meth:`pump_shard` catches a pump-time
        one: the shard joins :attr:`dead_shards` and the killing
        submission comes back ``shard_down``.
        """
        shard = self._router.route_submission(submission)
        if shard in self._dead:
            return Routed(shard, self._shard_down(submission.tenant, shard))
        try:
            return Routed(shard, self._services[shard].submit(submission))
        except ServiceKilled as killed:
            self._dead[shard] = str(killed)
            return Routed(shard, self._shard_down(submission.tenant, shard))

    # -- streaming ingestion --------------------------------------------

    def push_chunk(
        self,
        tenant: str,
        stream: str,
        seq: int,
        samples: Mapping[str, object],
        rate_hz: Optional[Mapping[str, float]] = None,
    ) -> Tuple[int, Optional[bool]]:
        """Route one device chunk to its stream's shard and apply it.

        Returns ``(shard, applied)``; ``applied`` is ``None`` when the
        shard is down — the device buffers and re-pushes after
        recovery, resyncing from :meth:`stream_cursor` (per-stream
        ``seq`` makes the re-push idempotent).
        """
        shard = self._router.route_stream(tenant, stream)
        if shard in self._dead:
            return shard, None
        return shard, self._services[shard].push_chunk(
            tenant, stream, seq, samples, rate_hz=rate_hz
        )

    def subscribe_stream(
        self, submission: Submission
    ) -> Tuple[int, Union[int, Rejected]]:
        """Register a streaming subscription on the stream's shard.

        Returns ``(shard, sub_id_or_rejection)``.  Ids are per-shard —
        results are read back through ``(shard, sub_id)``.
        """
        shard = self._router.route_stream(
            submission.tenant, submission.trace
        )
        if shard in self._dead:
            return shard, self._shard_down(submission.tenant, shard)
        return shard, self._services[shard].subscribe_stream(submission)

    def close_stream(self, tenant: str, stream: str) -> Dict[int, tuple]:
        """End one stream on its shard; subscription id → event log."""
        shard = self._router.route_stream(tenant, stream)
        return self._services[shard].close_stream(tenant, stream)

    def stream_results(self, shard: int, sub_id: int) -> tuple:
        """Wake events a streaming subscription has emitted so far."""
        return self._services[shard].stream_results(sub_id)

    def stream_cursor(self, tenant: str, stream: str) -> int:
        """The next chunk ``seq`` a stream's shard expects (0 when the
        stream is unknown there) — the device resync point."""
        shard = self._router.route_stream(tenant, stream)
        return self._services[shard].stream_cursor(tenant, stream)

    def pump_shard(self, shard: int) -> List[Response]:
        """Run one scheduling round on one shard.

        A fault-plan kill (:class:`~repro.errors.ServiceKilled`) is
        caught and recorded: the shard joins :attr:`dead_shards` and
        keeps refusing work until :meth:`recover_shard`.
        """
        if shard in self._dead:
            return []
        try:
            return self._services[shard].pump()
        except ServiceKilled as killed:
            self._dead[shard] = str(killed)
            return []

    def pump(self) -> Dict[int, List[Response]]:
        """One scheduling round on every live shard; shard → responses.

        Shards with queued work pump concurrently over the thread
        executor when ``parallel_pumps`` is on.  Each shard is pumped
        by exactly one thread and shards share no mutable state, so
        the interleaving cannot affect any shard's responses.
        """
        live = [shard for shard in range(self.shards) if shard not in self._dead]
        if not self._parallel or len(live) <= 1:
            return {shard: self.pump_shard(shard) for shard in live}
        executor = self._pump_executor()
        futures = {
            shard: executor.submit(self.pump_shard, shard) for shard in live
        }
        return {shard: future.result() for shard, future in futures.items()}

    def drain(self) -> Dict[int, List[Response]]:
        """Pump until every live shard's queue is empty."""
        merged: Dict[int, List[Response]] = {
            shard: []
            for shard in range(self.shards)
            if shard not in self._dead
        }
        while any(
            self._services[shard].queue_depth for shard in merged
            if shard not in self._dead
        ):
            for shard, responses in self.pump().items():
                merged[shard].extend(responses)
        return merged

    def result(self, shard: int, submission_id: int) -> Optional[Response]:
        """A ticket's terminal response from its owning shard."""
        return self._services[shard].result(submission_id)

    def metrics(self) -> ClusterMetricsSnapshot:
        """Merged counters + per-shard breakdown (see
        :class:`ClusterMetricsSnapshot`)."""
        per_shard = tuple(service.metrics() for service in self._services)
        merged = merge_snapshots(
            per_shard,
            [service.latency_samples() for service in self._services],
        )
        return ClusterMetricsSnapshot(
            shards=self.shards, merged=merged, per_shard=per_shard
        )

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, drain: bool = True) -> Dict[int, List[Response]]:
        """Shut every live shard down; shard → its shutdown responses.

        Dead shards are skipped (their journals stay on disk for a
        later :meth:`recover`).  The pump executor is torn down last.
        """
        responses: Dict[int, List[Response]] = {}
        if not self._closed:
            for shard, service in enumerate(self._services):
                if shard in self._dead:
                    continue
                responses[shard] = service.shutdown(drain=drain)
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        return responses

    # -- crash recovery -------------------------------------------------

    def recover_shard(self, shard: int) -> RecoveryStats:
        """Rebuild one crashed shard from its own journal, in place.

        The other shards keep serving throughout — per-shard journals
        are the point: recovery is a shard-local replay, not a cluster
        restart.  The rebuilt service takes over the shard's slot with
        a fresh engine context (and pool handle), and the shard leaves
        :attr:`dead_shards`.
        """
        journal = self._shard_journal(shard)
        if journal is None:
            raise SidewinderError(
                "cannot recover a shard without a journal_dir"
            )
        service, stats = ConditionService.recover(
            journal,
            self._traces,
            spill_dir=self._shard_spill(shard),
            context=self._shard_context(),
            **self._shard_kwargs,
        )
        self._services[shard] = service
        self._dead.pop(shard, None)
        return stats

    @classmethod
    def recover(
        cls,
        journal_dir: Union[str, Path],
        traces: Mapping[str, Trace],
        shards: int,
        **kwargs: object,
    ) -> Tuple["ShardCluster", Dict[int, RecoveryStats]]:
        """Rebuild a whole cluster, shard by shard, from its journals.

        ``kwargs`` are the original :class:`ShardCluster` settings.
        Every shard journal must exist (a cluster that never journaled
        cannot be recovered).  Returns the cluster plus per-shard
        :class:`RecoveryStats`.
        """
        cluster = cls(
            traces, shards=shards, journal_dir=None, **kwargs  # type: ignore[arg-type]
        )
        # Keep the cluster's config but none of its fresh services:
        # each shard is rebuilt from its journal instead.
        for service in cluster._services:
            service.shutdown(drain=False)
        cluster._journal_dir = Path(journal_dir)
        cluster._services = []
        stats: Dict[int, RecoveryStats] = {}
        for shard in range(shards):
            service, shard_stats = ConditionService.recover(
                shard_journal_path(journal_dir, shard),
                traces,
                spill_dir=cluster._shard_spill(shard),
                context=cluster._shard_context(),
                **cluster._shard_kwargs,
            )
            cluster._services.append(service)
            stats[shard] = shard_stats
        return cluster, stats

