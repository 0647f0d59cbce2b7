"""The fleet serving layer: a multi-tenant condition service.

The paper's deployment story (Section 3.1) is many applications on many
phones pushing wake-up conditions to a shared sensor manager; its
Section 7 anticipates concurrent pipelines merged on one hub.  This
package models the backend side of that story at fleet scale, on top of
the simulation engine (:mod:`repro.sim.engine`):

* :class:`~repro.serve.service.ConditionService` — bounded two-lane
  queue, per-tenant quotas, structured rejections, TTL'd result store,
  metrics snapshot;
* :class:`~repro.serve.scheduler.Scheduler` — validates submissions
  through the same path as a phone-side manager push, deduplicates
  identical work by IL content fingerprint + trace key (inference-server
  style request coalescing), and batches the survivors trace-major onto
  the engine's persistent pool;
* :mod:`~repro.serve.loadgen` — a deterministic seeded fleet workload
  generator (Zipf-ish popularity) behind ``repro serve-bench``;
* :mod:`~repro.serve.journal` / :mod:`~repro.serve.persist` — the
  durability tier: a CRC-framed write-ahead journal (accepts made
  durable before tickets escape, fsync batched per round) and the
  crash-atomic spill files of the result store's disk tier;
* :mod:`~repro.serve.health` / :mod:`~repro.serve.faults` — shard
  self-healing: a pump-cadence liveness monitor driving a degraded
  mode, and a deterministic fault plan that kills the service at
  planned boundaries so :meth:`ConditionService.recover` can be tested
  for bit-identical crash recovery;
* :mod:`~repro.serve.router` / :mod:`~repro.serve.cluster` — the
  sharded tier: a deterministic rendezvous-hash router over
  ``(tenant, trace)`` keys, N isolated service shards (each with its
  own engine context, pool, clock and journal) pumped concurrently,
  cross-shard metrics aggregation, and an asyncio front end whose
  ``submit`` resolves at pump time;
* :mod:`~repro.serve.openloop` — Poisson-arrival open-loop load on a
  simulated clock, the overload sweep measuring goodput and
  p50/p90/p99/p99.9 tail latency vs offered rate, and the streamed
  fleet driver with its intermittent device-connectivity model;
* :mod:`~repro.serve.ingest` — streaming ingestion: devices push
  sequence-numbered sensor chunks into per-``(tenant, stream)``
  append-only buffers, tenants register long-lived subscriptions whose
  conditions evaluate *incrementally* on each pump round (carried hub
  state, stacked batched-tier dispatches per ``batch_key``), with
  ``chunk``/``sub`` journal records making streams crash-recoverable —
  streamed wake events are bit-identical to replaying the assembled
  trace whole.

Results returned by the service are bit-identical to direct
``Sidewinder``/engine runs — the serving layer adds routing, admission
and coalescing around the engine, never arithmetic — and recovery
preserves that: re-answered and re-executed responses are byte-equal
to the uninterrupted run's.
"""

from repro.serve.faults import (
    NO_SERVICE_FAULTS,
    ServiceFaultInjector,
    ServiceFaultPlan,
)
from repro.serve.health import HealthMonitor, HealthPolicy, HealthState
from repro.serve.journal import (
    JournalScan,
    JournalWriter,
    RecoveryStats,
    read_journal,
    truncate_journal,
)
from repro.serve.cluster import (
    AsyncCluster,
    ClusterMetricsSnapshot,
    Routed,
    ShardCluster,
    shard_journal_path,
)
from repro.serve.ingest import StreamIngest, StreamSubscriptionState
from repro.serve.loadgen import (
    DeviceStreamPlan,
    LoadReport,
    LoadSpec,
    STREAM_INCREMENTAL_IL,
    STREAM_REPLAY_IL,
    StreamLoadSpec,
    assemble_stream_trace,
    completion_digest,
    fleet_workload,
    reference_result,
    response_digest,
    run_fleet,
    stream_fleet_plan,
    stream_replay_workload,
    submission_content_key,
)
from repro.serve.metrics import (
    LogicalClock,
    MetricsSnapshot,
    percentile,
    percentile_sorted,
)
from repro.serve.openloop import (
    DeviceConnectivity,
    OpenLoopReport,
    OpenLoopSpec,
    SimClock,
    StreamFleetReport,
    overload_sweep,
    poisson_arrivals,
    run_open_loop,
    run_stream_fleet,
)
from repro.serve.router import ShardRouter, route_key
from repro.serve.queue import LaneQueue
from repro.serve.quotas import AdmissionController, TenantQuota
from repro.serve.scheduler import HUB_CATALOGS, Scheduler
from repro.serve.service import ConditionService
from repro.serve.store import ResultStore
from repro.serve.submission import (
    Cancelled,
    Completed,
    Failed,
    Lane,
    Rejected,
    Response,
    ServeResult,
    Submission,
    Ticket,
)

__all__ = [
    "AdmissionController",
    "AsyncCluster",
    "Cancelled",
    "ClusterMetricsSnapshot",
    "Completed",
    "ConditionService",
    "DeviceConnectivity",
    "DeviceStreamPlan",
    "Failed",
    "HUB_CATALOGS",
    "HealthMonitor",
    "HealthPolicy",
    "HealthState",
    "JournalScan",
    "JournalWriter",
    "Lane",
    "LaneQueue",
    "LoadReport",
    "LoadSpec",
    "LogicalClock",
    "MetricsSnapshot",
    "NO_SERVICE_FAULTS",
    "OpenLoopReport",
    "OpenLoopSpec",
    "RecoveryStats",
    "Rejected",
    "Response",
    "ResultStore",
    "Routed",
    "Scheduler",
    "ServeResult",
    "ServiceFaultInjector",
    "ServiceFaultPlan",
    "STREAM_INCREMENTAL_IL",
    "STREAM_REPLAY_IL",
    "ShardCluster",
    "ShardRouter",
    "SimClock",
    "StreamFleetReport",
    "StreamIngest",
    "StreamLoadSpec",
    "StreamSubscriptionState",
    "Submission",
    "TenantQuota",
    "Ticket",
    "assemble_stream_trace",
    "completion_digest",
    "fleet_workload",
    "overload_sweep",
    "percentile",
    "percentile_sorted",
    "poisson_arrivals",
    "read_journal",
    "reference_result",
    "response_digest",
    "route_key",
    "run_fleet",
    "run_open_loop",
    "run_stream_fleet",
    "shard_journal_path",
    "stream_fleet_plan",
    "stream_replay_workload",
    "submission_content_key",
]
