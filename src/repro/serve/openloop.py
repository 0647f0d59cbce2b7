"""Open-loop arrival load generation and the overload sweep.

:func:`~repro.serve.loadgen.run_fleet` is *closed-loop*: it submits a
block to a :class:`~repro.serve.cluster.ShardCluster`, pumps every
shard, submits the next block — so the offered load implicitly adapts
to service speed and the queue can never really overflow.  Real
fleets are **open-loop**: devices submit on their own schedule whether
or not the backend keeps up, and the interesting regime is exactly
where it does not — tail latency and goodput as offered load crosses
capacity.

This module drives a :class:`~repro.serve.cluster.ShardCluster` with
Poisson arrivals (exponential inter-arrival times from a seeded RNG,
so every run of a spec is bit-identical) on a **simulated clock**:

* :class:`SimClock` is a settable time source shared by the driver and
  every shard.  It deliberately has no ``tick`` method, so the
  services' own event ticking is inert and time advances *only* when
  the driver says so — one timeline, owned by the arrival process.
* Shards pump on a fixed simulated cadence (``pump_interval_s``).
  Each boundary pumps every shard once, so an N-shard cluster's
  capacity is ``N × batch_size`` submissions per interval — the
  partitioned-scheduler speedup the benchmark quantifies, independent
  of how many host cores the test machine happens to have.
* Latency is simulated seconds between arrival and the pump that
  completed the submission; "goodput" is completions per simulated
  second.  Overload sheds through the bounded queue
  (``bulk_backpressure`` / ``queue_full`` rejections), exactly like
  the closed-loop path.

:func:`overload_sweep` repeats this across offered rates and reports
p50/p90/p99/p99.9 vs load — the classic hockey-stick curve.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.serve.cluster import ShardCluster
from repro.serve.loadgen import (
    DeviceStreamPlan,
    LoadSpec,
    StreamLoadSpec,
    completion_digest,
    fleet_workload,
)
from repro.serve.metrics import percentile_sorted
from repro.serve.submission import (
    Completed,
    Rejected,
    Response,
    Submission,
    Ticket,
)

__all__ = [
    "DeviceConnectivity",
    "OpenLoopReport",
    "OpenLoopSpec",
    "SimClock",
    "StreamFleetReport",
    "overload_sweep",
    "poisson_arrivals",
    "run_open_loop",
    "run_stream_fleet",
]


class SimClock:
    """A settable simulated-time clock, advanced only by the driver.

    Unlike :class:`~repro.serve.metrics.LogicalClock` it has **no**
    ``tick`` method — services probe for one and no-op without it — so
    submission and pump events do not move time.  The open-loop driver
    owns the timeline: it advances the clock to each arrival instant
    and each pump boundary.  Time never goes backwards.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def advance_to(self, now: float) -> float:
        """Move time forward to ``now``; moving backwards is an error."""
        if now < self._now:
            raise ServiceError(
                f"simulated time cannot rewind: {now} < {self._now}"
            )
        self._now = float(now)
        return self._now


@dataclass(frozen=True)
class OpenLoopSpec:
    """Shape of one open-loop drive.

    Attributes:
        rate: Offered load — mean arrivals per simulated second.
        duration_s: Simulated seconds of arrivals to generate.
        seed: RNG seed for the arrival process (the workload content
            comes from ``load.seed``; the two seeds are independent so
            the same fleet can be replayed at different rates).
        pump_interval_s: Simulated seconds between pump boundaries;
            every shard pumps once per boundary.
        load: The fleet workload shape (who submits what); the
            submission *sequence* is cycled to cover however many
            arrivals the rate and duration imply.
    """

    rate: float = 64.0
    duration_s: float = 64.0
    seed: int = 0
    pump_interval_s: float = 1.0
    load: LoadSpec = field(default_factory=LoadSpec)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ServiceError(f"rate must be positive, got {self.rate}")
        if self.duration_s <= 0:
            raise ServiceError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.pump_interval_s <= 0:
            raise ServiceError(
                f"pump_interval_s must be positive, got {self.pump_interval_s}"
            )


def poisson_arrivals(
    rate: float, duration_s: float, seed: int
) -> List[float]:
    """Deterministic Poisson arrival instants in ``[0, duration_s)``.

    Exponential inter-arrival times with mean ``1/rate`` from
    ``random.Random(seed)`` — same spec, same instants, bit for bit.
    """
    rng = random.Random(seed)
    arrivals: List[float] = []
    now = rng.expovariate(rate)
    while now < duration_s:
        arrivals.append(now)
        now += rng.expovariate(rate)
    return arrivals


@dataclass
class OpenLoopReport:
    """Outcome of one open-loop drive at one offered rate.

    Attributes:
        offered_rate: The spec's arrivals per simulated second.
        arrivals: Arrival count the rate and duration produced.
        accepted: Arrivals some shard admitted.
        shed: Arrivals refused (the overload signal: queue bounds and
            per-tenant quotas), by reason.
        completed / failed: Terminal outcomes among accepted work.
        goodput: Completions per simulated second over the drive.
        latency_p50/p90/p99/p999: Nearest-rank percentiles of
            simulated-seconds latency (arrival → completing pump).
        wall_s: Real seconds the drive took (host-dependent; reported
            for honesty, never gated on).
    """

    offered_rate: float = 0.0
    arrivals: int = 0
    accepted: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    goodput: float = 0.0
    latency_p50: float = 0.0
    latency_p90: float = 0.0
    latency_p99: float = 0.0
    latency_p999: float = 0.0
    wall_s: float = 0.0

    @property
    def shed_total(self) -> int:
        """All refusals across reasons."""
        return sum(self.shed.values())

    def as_dict(self) -> Dict[str, object]:
        """Benchmark-artifact form."""
        return {
            "offered_rate": self.offered_rate,
            "arrivals": self.arrivals,
            "accepted": self.accepted,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "completed": self.completed,
            "failed": self.failed,
            "goodput": self.goodput,
            "latency_p50": self.latency_p50,
            "latency_p90": self.latency_p90,
            "latency_p99": self.latency_p99,
            "latency_p999": self.latency_p999,
            "wall_s": self.wall_s,
        }


def run_open_loop(
    cluster: ShardCluster,
    clock: SimClock,
    spec: OpenLoopSpec,
    submissions: Optional[Sequence[Submission]] = None,
) -> OpenLoopReport:
    """Drive Poisson arrivals through a cluster on simulated time.

    ``cluster`` must have been built with every shard reading
    ``clock`` (``clock_factory=lambda: clock``) — the driver advances
    it to each arrival and each pump boundary, so shard-side
    ``submitted_at`` stamps and completion latencies are simulated
    seconds on one shared timeline.

    The submission sequence (default: ``fleet_workload(spec.load)``
    over the cluster's registry apps/traces) is cycled to cover every
    arrival instant.  Returns the per-rate report; the cluster is left
    drained but running (callers own shutdown, so a sweep can reuse
    construction machinery).
    """
    from repro.apps import all_applications

    if submissions is None:
        traces = list(cluster.traces.values())
        submissions = fleet_workload(
            spec.load, all_applications(), traces
        )
    if not submissions:
        raise ServiceError("open-loop drive needs a non-empty workload")

    arrivals = poisson_arrivals(spec.rate, spec.duration_s, spec.seed)
    report = OpenLoopReport(offered_rate=spec.rate, arrivals=len(arrivals))
    started = time.perf_counter()

    latencies: List[float] = []

    def pump_once() -> None:
        for _, responses in cluster.pump().items():
            _count(responses)

    def _count(responses: List[Response]) -> None:
        for response in responses:
            if isinstance(response, Completed):
                report.completed += 1
                latencies.append(response.latency)
            else:
                report.failed += 1

    next_pump = spec.pump_interval_s
    for index, arrival in enumerate(arrivals):
        while next_pump <= arrival:
            clock.advance_to(next_pump)
            pump_once()
            next_pump += spec.pump_interval_s
        clock.advance_to(arrival)
        routed = cluster.submit(submissions[index % len(submissions)])
        if isinstance(routed.response, Rejected):
            reason = routed.response.reason
            report.shed[reason] = report.shed.get(reason, 0) + 1
        else:
            report.accepted += 1
    # Drain: keep pumping on cadence until every queue empties, so
    # accepted-at-the-bell work still completes with honest latency.
    while any(
        cluster.shard(shard).queue_depth
        for shard in range(cluster.shards)
        if shard not in cluster.dead_shards
    ):
        clock.advance_to(next_pump)
        pump_once()
        next_pump += spec.pump_interval_s

    report.wall_s = time.perf_counter() - started
    report.goodput = report.completed / spec.duration_s
    ordered = sorted(latencies)
    report.latency_p50 = percentile_sorted(ordered, 50)
    report.latency_p90 = percentile_sorted(ordered, 90)
    report.latency_p99 = percentile_sorted(ordered, 99)
    report.latency_p999 = percentile_sorted(ordered, 99.9)
    return report


class DeviceConnectivity:
    """Seeded intermittent connectivity for one streaming device.

    Mobile devices do not upload on a clean cadence: radios sleep,
    coverage drops, uploads batch.  This model makes that part of the
    arrival process — per round a connected device disconnects with
    probability ``disconnect_rate`` and a disconnected one reconnects
    with probability ``1 / mean_gap_rounds`` (geometric gap lengths).
    While disconnected its chunks buffer on-device; the driver delivers
    the whole backlog in one burst at reconnect, which is exactly the
    bursty span shape the incremental execution layer must stay
    bit-identical under.

    Round 0 is always connected: a device's first contact carries its
    stream's first chunk and registers its subscriptions.
    """

    def __init__(
        self,
        seed: int,
        device: int,
        disconnect_rate: float = 0.0,
        mean_gap_rounds: float = 2.0,
    ):
        if not 0 <= disconnect_rate < 1:
            raise ServiceError(
                f"disconnect_rate must be in [0, 1), got {disconnect_rate}"
            )
        self._rng = random.Random(seed * 2_000_003 + device)
        self._disconnect = disconnect_rate
        self._reconnect = 1.0 / max(1.0, mean_gap_rounds)

    def schedule(self, rounds: int) -> List[bool]:
        """Connected flags for ``rounds`` rounds (round 0 always True)."""
        flags: List[bool] = []
        connected = True
        for index in range(rounds):
            if index > 0:
                if connected:
                    if self._rng.random() < self._disconnect:
                        connected = False
                elif self._rng.random() < self._reconnect:
                    connected = True
            flags.append(connected or index == 0)
        return flags


@dataclass
class StreamFleetReport:
    """Outcome of driving one streamed fleet through a cluster.

    Attributes:
        devices / subscriptions / chunks_pushed: Fleet shape counters.
        deferred_chunks: Chunks delivered later than the round that
            produced them (buffered through a connectivity gap, or
            re-pushed after a shard recovery).
        rejections: ``(shard, rejection)`` subscription refusals.
        by_subscription: Registered submissions keyed by their global
            ``(shard, sub_id)``.
        events: Complete per-subscription wake-event logs, same keys.
        recoveries: Shard → times it was killed and rebuilt mid-drive.
        wall_s: Real seconds the drive took.
        metrics: The cluster's final merged + per-shard snapshot.
    """

    devices: int = 0
    subscriptions: int = 0
    chunks_pushed: int = 0
    deferred_chunks: int = 0
    rejections: List[Tuple[int, Rejected]] = field(default_factory=list)
    by_subscription: Dict[Tuple[int, int], Submission] = field(
        default_factory=dict
    )
    events: Dict[Tuple[int, int], tuple] = field(default_factory=dict)
    recoveries: Dict[int, int] = field(default_factory=dict)
    wall_s: float = 0.0
    metrics: object = None  # ClusterMetricsSnapshot

    @property
    def wake_events(self) -> int:
        """Wake events emitted across every subscription."""
        return sum(len(log) for log in self.events.values())

    @property
    def pairs(self) -> List[Tuple[Submission, Completed]]:
        """(submission, completion) pairs for
        :func:`~repro.serve.loadgen.completion_digest`.

        Each subscription's event log is wrapped as a completion whose
        result is the event tuple — the same result content an ordinary
        raw-IL submission over the assembled trace completes with, so
        streamed and replayed drives digest-compare directly.  Ticket
        ids and timestamps are synthetic; the digest ignores them.
        """
        return [
            (
                self.by_subscription[key],
                Completed(
                    Ticket(key[1], self.by_subscription[key].tenant, 0.0),
                    result=self.events.get(key, ()),
                ),
            )
            for key in sorted(self.by_subscription)
        ]

    def digest(self) -> str:
        """Topology-independent digest of every subscription's events."""
        return completion_digest(self.pairs)

    def as_dict(self) -> Dict[str, object]:
        """Benchmark-artifact form."""
        return {
            "devices": self.devices,
            "subscriptions": self.subscriptions,
            "chunks_pushed": self.chunks_pushed,
            "deferred_chunks": self.deferred_chunks,
            "rejections": len(self.rejections),
            "wake_events": self.wake_events,
            "recoveries": dict(self.recoveries),
            "wall_s": self.wall_s,
            "metrics": self.metrics.as_dict() if self.metrics else None,
        }


def run_stream_fleet(
    cluster: ShardCluster,
    plans: Sequence[DeviceStreamPlan],
    spec: StreamLoadSpec,
    recover: bool = False,
) -> StreamFleetReport:
    """Drive a streamed fleet through a cluster, round by round.

    Each round, every connected device pushes its backlog of produced
    chunks (one chunk per round while connected; a burst after a gap),
    then the cluster pumps once — chunks become durable at the round
    flush and every subscription advances incrementally over whatever
    arrived.  Round 0 additionally registers each device's
    subscriptions, right after its first chunk lands.

    With ``recover=True``, shards killed by their fault plans are
    rebuilt from their journals after the pump that killed them, and
    the affected devices resync their send pointers from
    :meth:`~repro.serve.cluster.ShardCluster.stream_cursor` — re-pushing
    whatever durability lost, exactly the reconnect protocol.  The
    drive ends by closing every stream and collecting complete event
    logs; digest-compare against the replay reference built from
    :func:`~repro.serve.loadgen.stream_replay_workload`.
    """
    report = StreamFleetReport(devices=len(plans))
    started = time.perf_counter()
    rounds = max((len(plan.chunks) for plan in plans), default=0)
    sent: Dict[str, int] = {plan.stream: 0 for plan in plans}
    schedules = {
        plan.stream: DeviceConnectivity(
            spec.seed, device, spec.disconnect_rate, spec.mean_gap_rounds
        ).schedule(rounds)
        for device, plan in enumerate(plans)
    }

    def deliver(plan: DeviceStreamPlan, upto: int, now_round: int) -> None:
        for seq in range(sent[plan.stream], upto):
            _, applied = cluster.push_chunk(
                plan.tenant,
                plan.stream,
                seq,
                plan.chunks[seq],
                rate_hz=dict(plan.rate_hz) if seq == 0 else None,
            )
            if applied is None:
                return  # Shard down: keep buffering, retry post-recovery.
            sent[plan.stream] = seq + 1
            report.chunks_pushed += 1
            if seq < now_round:
                report.deferred_chunks += 1

    def recover_dead() -> None:
        if not recover:
            return
        for shard in cluster.dead_shards:
            cluster.recover_shard(shard)
            report.recoveries[shard] = report.recoveries.get(shard, 0) + 1
            # Devices resync from the durable cursor: chunks the crash
            # lost get re-pushed, chunks it kept are skipped (seq is
            # idempotent either way).
            for plan in plans:
                sent[plan.stream] = min(
                    sent[plan.stream],
                    cluster.stream_cursor(plan.tenant, plan.stream),
                )

    for now_round in range(rounds):
        for plan in plans:
            if now_round < len(plan.chunks) and (
                schedules[plan.stream][now_round]
            ):
                deliver(plan, now_round + 1, now_round)
        if now_round == 0:
            for plan in plans:
                for submission in plan.submissions:
                    shard, outcome = cluster.subscribe_stream(submission)
                    if isinstance(outcome, Rejected):
                        report.rejections.append((shard, outcome))
                    else:
                        report.subscriptions += 1
                        report.by_subscription[(shard, outcome)] = submission
        cluster.pump()
        recover_dead()

    # Final reconnect: every device flushes its remaining backlog (and
    # anything a recovery rolled back), pumping until all delivered.
    while any(sent[plan.stream] < len(plan.chunks) for plan in plans):
        for plan in plans:
            deliver(plan, len(plan.chunks), rounds)
        cluster.pump()
        recover_dead()
        if cluster.dead_shards and not recover:
            break

    for plan in plans:
        shard = cluster.router.route_stream(plan.tenant, plan.stream)
        for sub_id, log in cluster.close_stream(
            plan.tenant, plan.stream
        ).items():
            report.events[(shard, sub_id)] = log

    report.wall_s = time.perf_counter() - started
    report.metrics = cluster.metrics()
    return report


def overload_sweep(
    make_cluster,
    spec: OpenLoopSpec,
    rates: Sequence[float],
) -> List[OpenLoopReport]:
    """One open-loop drive per offered rate; the tail-latency curve.

    Args:
        make_cluster: ``(clock) -> ShardCluster`` factory — a fresh
            cluster per rate (every point starts cold and fair), with
            every shard reading the given clock.
        spec: Drive shape; its ``rate`` is overridden per point.
        rates: Offered loads to sweep, in arrivals per simulated
            second.
    """
    reports: List[OpenLoopReport] = []
    for rate in rates:
        clock = SimClock()
        cluster = make_cluster(clock)
        point = OpenLoopSpec(
            rate=rate,
            duration_s=spec.duration_s,
            seed=spec.seed,
            pump_interval_s=spec.pump_interval_s,
            load=spec.load,
        )
        try:
            reports.append(run_open_loop(cluster, clock, point))
        finally:
            cluster.shutdown(drain=False)
    return reports
