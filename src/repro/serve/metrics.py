"""Service observability: the logical clock and the metrics snapshot.

Everything the service measures is driven by an injectable clock so
load tests are bit-for-bit reproducible.  The default
:class:`LogicalClock` advances only when the service tells it to (one
tick per submission, one per scheduling round), making "latency" a
deterministic count of scheduling rounds a submission waited — the
quantity admission control actually manages — rather than wall time.
Embedders that want wall-clock metrics pass ``time.monotonic``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class LogicalClock:
    """A deterministic event-count clock.

    ``now()`` reads the current time; ``tick()`` advances it.  The
    service ticks once per accepted submission and once per scheduling
    round, so identical workloads produce identical latencies.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self._now = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        """Current logical time."""
        return self._now

    def tick(self) -> float:
        """Advance one step; returns the new time."""
        self._now += self._step
        return self._now


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Args:
        values: Sample values (need not be sorted).
        q: Percentile in ``[0, 100]``.

    Returns:
        0.0 for an empty sample, matching "no completed requests yet".
    """
    if not values:
        return 0.0
    return percentile_sorted(sorted(values), q)


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an *already sorted* sample.

    Sorting dominates :func:`percentile` on large samples, and a
    snapshot asks for several quantiles of the same latency list — so
    callers sort once and index repeatedly through this.
    """
    if not ordered:
        return 0.0
    if q <= 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float drift
    return ordered[min(int(rank), len(ordered)) - 1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time counters of one :class:`~repro.serve.service.ConditionService`.

    Attributes:
        submitted: All ``submit()`` calls, accepted or not.
        accepted: Submissions that received a ticket.
        rejected: Admission rejections, keyed by reason code.
        completed: Tickets resolved with a result.
        failed: Tickets resolved with a structured per-request error.
        cancelled: Tickets the shutdown path never ran.
        engine_runs: Unique work items actually executed.
        dedup_hits: Completed submissions served by coalescing onto an
            identical work item instead of running.
        dedup_hit_rate: ``dedup_hits / completed`` (0 when nothing
            completed).
        latency_p50 / latency_p90 / latency_p99 / latency_p999:
            Percentiles of completion latency in clock units
            (scheduling rounds under the default logical clock);
            ``latency_p999`` is p99.9, the overload-sweep tail.
        queue_depth: Submissions queued at snapshot time.
        store_size: Unexpired responses held by the result store.
        store_spilled: Of those, how many currently live in the spill
            tier on disk.
        journal_errors: Write-ahead-journal append/flush failures
            (injected or real) the service survived.
        batch_rounds: Tensor-major hub dispatches the engine ran for
            this service — batched executions, not per-trace runs.
        batched_cells: Per-trace hub runs those dispatches covered
            (``batched_cells / batch_rounds`` is the mean batch size).
        shape_rounds: Shape-keyed heterogeneous dispatches — batched
            executions mixing different fingerprints of one graph
            shape.
        shape_cells: Per-trace hub runs those shape dispatches covered
            (``shape_cells / shape_rounds`` is the mean shape-batch
            occupancy).
        batch_padded_cells / batch_valid_cells: Allocated vs valid
            channel-tensor cells across every stacked dispatch; their
            ratio is the padding waste the engine's splitting guard
            keeps bounded.
        merge_rounds: Merged-graph interpreter runs — round-interpreter
            conditions over one recording run as one merged graph.
        merged_cells: Per-trace hub runs those merged runs answered
            (``merged_cells / merge_rounds`` is the mean merge size).
        merge_shared_nodes: Node instances the merged runs skipped
            because another condition's identical node already ran.
        shared_reads: Recorded shared-node outputs hub runs replayed
            instead of recomputing a front end merged conditions share
            on one recording.
        shared_entries / shared_bytes: Shared-node outputs the engine
            holds, and their array bytes.
        health_state: The :class:`~repro.serve.health.HealthMonitor`
            verdict (``"healthy"`` / ``"degraded"``) at snapshot time.
        health_transitions: Every ``(now, from, to)`` health transition
            so far, in order — deterministic under the logical clock.
        stream_chunks: Device chunks applied to stream buffers.
        stream_subscriptions: Streaming subscriptions registered.
        stream_backlog: Samples pushed but not yet walked by every
            subscription of their stream — the ingestion backlog at
            snapshot time.
        stream_lag_s: Worst per-subscription chunk lag in stream
            seconds: how far the furthest-behind subscription's cursor
            trails its stream's timeline end.
        stream_rounds: Incremental-round dispatches the streaming path
            ran (stacked ``advance_rows`` calls plus single-state and
            replay advances).
        stream_cells: Per-subscription advances those dispatches
            covered; ``stream_cells / stream_rounds`` is the
            incremental-round occupancy.
    """

    submitted: int
    accepted: int
    rejected: Dict[str, int]
    completed: int
    failed: int
    cancelled: int
    engine_runs: int
    dedup_hits: int
    dedup_hit_rate: float
    latency_p50: float
    latency_p90: float
    latency_p99: float
    queue_depth: int
    store_size: int
    latency_p999: float = 0.0
    store_spilled: int = 0
    journal_errors: int = 0
    health_state: str = "healthy"
    health_transitions: Tuple[Tuple[float, str, str], ...] = ()
    batch_rounds: int = 0
    batched_cells: int = 0
    shape_rounds: int = 0
    shape_cells: int = 0
    batch_padded_cells: int = 0
    batch_valid_cells: int = 0
    merge_rounds: int = 0
    merged_cells: int = 0
    merge_shared_nodes: int = 0
    shared_reads: int = 0
    shared_entries: int = 0
    shared_bytes: int = 0
    stream_chunks: int = 0
    stream_subscriptions: int = 0
    stream_backlog: int = 0
    stream_lag_s: float = 0.0
    stream_rounds: int = 0
    stream_cells: int = 0

    @property
    def rejected_total(self) -> int:
        """All rejections across reasons."""
        return sum(self.rejected.values())

    @property
    def batch_occupancy(self) -> float:
        """Mean per-trace runs per batched dispatch (0 when none ran)."""
        return self.batched_cells / self.batch_rounds if self.batch_rounds else 0.0

    @property
    def shape_occupancy(self) -> float:
        """Mean per-trace runs per shape dispatch (0 when none ran)."""
        return self.shape_cells / self.shape_rounds if self.shape_rounds else 0.0

    @property
    def batch_padding_ratio(self) -> float:
        """Allocated over valid stacked cells (1.0 means zero waste)."""
        if self.batch_valid_cells <= 0:
            return 1.0
        return self.batch_padded_cells / self.batch_valid_cells

    @property
    def stream_occupancy(self) -> float:
        """Mean subscription advances per incremental-round dispatch."""
        return self.stream_cells / self.stream_rounds if self.stream_rounds else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Snapshot as a plain dict (for logs and benchmark artifacts)."""
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": dict(self.rejected),
            "rejected_total": self.rejected_total,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "engine_runs": self.engine_runs,
            "dedup_hits": self.dedup_hits,
            "dedup_hit_rate": self.dedup_hit_rate,
            "latency_p50": self.latency_p50,
            "latency_p90": self.latency_p90,
            "latency_p99": self.latency_p99,
            "latency_p999": self.latency_p999,
            "queue_depth": self.queue_depth,
            "store_size": self.store_size,
            "store_spilled": self.store_spilled,
            "journal_errors": self.journal_errors,
            "batch_rounds": self.batch_rounds,
            "batched_cells": self.batched_cells,
            "batch_occupancy": self.batch_occupancy,
            "shape_rounds": self.shape_rounds,
            "shape_cells": self.shape_cells,
            "shape_occupancy": self.shape_occupancy,
            "batch_padded_cells": self.batch_padded_cells,
            "batch_valid_cells": self.batch_valid_cells,
            "batch_padding_ratio": self.batch_padding_ratio,
            "merge_rounds": self.merge_rounds,
            "merged_cells": self.merged_cells,
            "merge_shared_nodes": self.merge_shared_nodes,
            "shared_reads": self.shared_reads,
            "shared_entries": self.shared_entries,
            "shared_bytes": self.shared_bytes,
            "stream_chunks": self.stream_chunks,
            "stream_subscriptions": self.stream_subscriptions,
            "stream_backlog": self.stream_backlog,
            "stream_lag_s": self.stream_lag_s,
            "stream_rounds": self.stream_rounds,
            "stream_cells": self.stream_cells,
            "stream_occupancy": self.stream_occupancy,
            "health_state": self.health_state,
            "health_transitions": [
                list(transition) for transition in self.health_transitions
            ],
        }

    def describe(self) -> str:
        """Multi-line human-readable report."""
        rejected = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.rejected.items()))
            or "none"
        )
        return "\n".join(
            [
                f"submitted {self.submitted} | accepted {self.accepted} | "
                f"rejected {self.rejected_total} ({rejected})",
                f"completed {self.completed} | failed {self.failed} | "
                f"cancelled {self.cancelled}",
                f"engine runs {self.engine_runs} | dedup hits "
                f"{self.dedup_hits} | dedup hit-rate {self.dedup_hit_rate:.1%}",
                f"batch rounds {self.batch_rounds} | batched cells "
                f"{self.batched_cells} | occupancy {self.batch_occupancy:.1f}",
                f"shape rounds {self.shape_rounds} | shape cells "
                f"{self.shape_cells} | occupancy {self.shape_occupancy:.1f} | "
                f"padding ratio {self.batch_padding_ratio:.2f}",
                f"merge rounds {self.merge_rounds} | merged cells "
                f"{self.merged_cells} | shared nodes "
                f"{self.merge_shared_nodes}",
                f"shared reads {self.shared_reads} | shared entries "
                f"{self.shared_entries} ({self.shared_bytes} bytes)",
                f"stream chunks {self.stream_chunks} | subs "
                f"{self.stream_subscriptions} | backlog "
                f"{self.stream_backlog} | lag {self.stream_lag_s:.2f}s | "
                f"rounds {self.stream_rounds} | occupancy "
                f"{self.stream_occupancy:.1f}",
                f"latency p50/p90/p99/p99.9 {self.latency_p50:g}/"
                f"{self.latency_p90:g}/{self.latency_p99:g}/"
                f"{self.latency_p999:g} rounds",
                f"queue depth {self.queue_depth} | stored results "
                f"{self.store_size} ({self.store_spilled} spilled)",
                f"health {self.health_state} | transitions "
                f"{len(self.health_transitions)} | journal errors "
                f"{self.journal_errors}",
            ]
        )


@dataclass
class MetricsRecorder:
    """Mutable counters the service updates as requests flow through."""

    submitted: int = 0
    accepted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    engine_runs: int = 0
    dedup_hits: int = 0
    latencies: List[float] = field(default_factory=list)

    def on_rejected(self, reason: str) -> None:
        """Count one admission rejection."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def on_completed(self, latency: float, dedup: bool) -> None:
        """Count one completion (and its coalescing outcome)."""
        self.completed += 1
        if dedup:
            self.dedup_hits += 1
        self.latencies.append(latency)

    def snapshot(
        self,
        queue_depth: int,
        store_size: int,
        store_spilled: int = 0,
        journal_errors: int = 0,
        health_state: str = "healthy",
        health_transitions: Tuple[Tuple[float, str, str], ...] = (),
        batch_rounds: int = 0,
        batched_cells: int = 0,
        shape_rounds: int = 0,
        shape_cells: int = 0,
        batch_padded_cells: int = 0,
        batch_valid_cells: int = 0,
        merge_rounds: int = 0,
        merged_cells: int = 0,
        merge_shared_nodes: int = 0,
        shared_reads: int = 0,
        shared_entries: int = 0,
        shared_bytes: int = 0,
        stream_chunks: int = 0,
        stream_subscriptions: int = 0,
        stream_backlog: int = 0,
        stream_lag_s: float = 0.0,
        stream_rounds: int = 0,
        stream_cells: int = 0,
    ) -> MetricsSnapshot:
        """Freeze the counters into a :class:`MetricsSnapshot`.

        The latency sample is sorted once here and every quantile
        indexes into that one ordering — snapshots used to re-sort the
        full list per quantile, which dominated snapshot cost on
        fleet-scale runs.
        """
        ordered = sorted(self.latencies)
        return MetricsSnapshot(
            submitted=self.submitted,
            accepted=self.accepted,
            rejected=dict(self.rejected),
            completed=self.completed,
            failed=self.failed,
            cancelled=self.cancelled,
            engine_runs=self.engine_runs,
            dedup_hits=self.dedup_hits,
            dedup_hit_rate=(
                self.dedup_hits / self.completed if self.completed else 0.0
            ),
            latency_p50=percentile_sorted(ordered, 50),
            latency_p90=percentile_sorted(ordered, 90),
            latency_p99=percentile_sorted(ordered, 99),
            latency_p999=percentile_sorted(ordered, 99.9),
            queue_depth=queue_depth,
            store_size=store_size,
            store_spilled=store_spilled,
            journal_errors=journal_errors,
            health_state=health_state,
            health_transitions=health_transitions,
            batch_rounds=batch_rounds,
            batched_cells=batched_cells,
            shape_rounds=shape_rounds,
            shape_cells=shape_cells,
            batch_padded_cells=batch_padded_cells,
            batch_valid_cells=batch_valid_cells,
            merge_rounds=merge_rounds,
            merged_cells=merged_cells,
            merge_shared_nodes=merge_shared_nodes,
            shared_reads=shared_reads,
            shared_entries=shared_entries,
            shared_bytes=shared_bytes,
            stream_chunks=stream_chunks,
            stream_subscriptions=stream_subscriptions,
            stream_backlog=stream_backlog,
            stream_lag_s=stream_lag_s,
            stream_rounds=stream_rounds,
            stream_cells=stream_cells,
        )
