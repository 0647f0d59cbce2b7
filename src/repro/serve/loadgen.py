"""Deterministic fleet load generator for the condition service.

Models the paper's deployment story at fleet scale: N simulated devices
(tenants), each pushing a handful of wake-up conditions against the
shared backend.  Popularity is Zipf-ish — most devices run the same few
popular (application, trace) workloads — which is exactly the regime
where fingerprint dedup pays: a thousand devices submitting the
significant-motion condition over the commute trace cost one engine
run.

Everything is a pure function of the :class:`LoadSpec` seed, so a load
run is replayable bit for bit: same submissions, same rejections, same
dedup hits, same results.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.api.manager import validate_condition
from repro.apps import all_applications
from repro.apps.base import SensingApplication
from repro.errors import ServiceError
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.serve.cluster import ClusterMetricsSnapshot, Routed, ShardCluster
from repro.serve.journal import RecoveryStats
from repro.serve.scheduler import HUB_CATALOGS
from repro.serve.submission import (
    Completed,
    Failed,
    Lane,
    Rejected,
    Response,
    ServeResult,
    Submission,
)
from repro.sim.configs.sidewinder import Sidewinder
from repro.sim.simulator import run_wakeup_condition
from repro.traces.base import Trace
from repro.traces.stream import StreamBuffer

#: Broken IL texts the generator sprinkles in to exercise the
#: per-request error path: a parse failure, a dangling node reference,
#: and an unknown opcode — each fails with a different
#: :mod:`repro.errors` type, never poisoning the batch it rides in.
INVALID_IL: Tuple[str, ...] = (
    "ACC_X -> movingAvg(id=1, params={8}",
    "ACC_X -> movingAvg(id=1, params={8}); 7 -> OUT;",
    "ACC_X -> frobnicate(id=1, params={}); 1 -> OUT;",
)

#: Valid raw-IL conditions (the wire form) for accelerometer traces —
#: what a device whose app is not in the registry would push.
VALID_ACCEL_IL: Tuple[str, ...] = (
    "ACC_X -> movingAvg(id=1, params={8}); "
    "1 -> maxThreshold(id=2, params={1.5}); 2 -> OUT;",
    "ACC_Y -> expMovingAvg(id=1, params={0.2}); "
    "1 -> minThreshold(id=2, params={-0.5}); 2 -> OUT;",
)


#: Streaming condition templates that support bounded-replay
#: incremental execution.  Each family rolls only a *liftable*
#: threshold parameter, so every instance of a family shares one
#: ``batch_key`` — subscriptions across the whole fleet advance through
#: one stacked batched-tier dispatch per family per round, which is
#: what makes round-sized streaming work batched-tier work.
STREAM_INCREMENTAL_IL: Tuple[str, ...] = tuple(
    f"ACC_X -> movingAvg(id=1, params={{10}});"
    f"1 -> minThreshold(id=2, params={{{threshold}}});"
    f"2 -> OUT;"
    for threshold in (0.2, 0.35, 0.5)
) + tuple(
    f"ACC_Y -> movingAvg(id=1, params={{12}});"
    f"1 -> maxThreshold(id=2, params={{{threshold}}});"
    f"2 -> OUT;"
    for threshold in (0.6, 0.75, 0.9)
) + (
    "ACC_X -> sustainedThreshold(id=1, params={0.2, 7}); 1 -> OUT;",
)

#: Streaming templates that fall back to whole-graph replay:
#: ``localExtrema`` with a debounce window (chunk-invariant, so it
#: replays over arbitrary arrival spans) and ``expMovingAvg`` (not
#: chunk-invariant, so it replays through the canonical round replica).
STREAM_REPLAY_IL: Tuple[str, ...] = (
    "ACC_X -> localExtrema(id=1, params={max, 0.3, 10, 3}); 1 -> OUT;",
    "ACC_X -> expMovingAvg(id=1, params={0.5});"
    "1 -> maxThreshold(id=2, params={0.1});"
    "2 -> OUT;",
)


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one deterministic fleet workload.

    Attributes:
        fleet: Number of simulated devices (tenants).
        seed: Base RNG seed; everything derives from it.
        min_submissions / max_submissions: Per-device submission count
            range (inclusive).
        zipf_s: Popularity skew over (app, trace) pairs; higher is more
            head-heavy.  1.1 gives the classic "few workloads dominate"
            fleet profile.
        interactive_fraction: Probability a submission rides the
            interactive lane.
        il_fraction: Probability a submission carries raw IL instead of
            a registry application name.
        invalid_fraction: Probability a submission carries broken IL
            (exercises the structured per-request error path).
    """

    fleet: int = 100
    seed: int = 0
    min_submissions: int = 1
    max_submissions: int = 3
    zipf_s: float = 1.1
    interactive_fraction: float = 0.05
    il_fraction: float = 0.05
    invalid_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.fleet <= 0:
            raise ServiceError(f"fleet must be positive, got {self.fleet}")
        if not 1 <= self.min_submissions <= self.max_submissions:
            raise ServiceError(
                "submission range must satisfy 1 <= min <= max, got "
                f"[{self.min_submissions}, {self.max_submissions}]"
            )


def zipf_weights(n: int, s: float) -> List[float]:
    """Unnormalized Zipf weights ``1 / rank^s`` for ranks 1..n."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def fleet_workload(
    spec: LoadSpec,
    apps: Sequence["SensingApplication"],
    traces: Sequence[Trace],
) -> List[Submission]:
    """The submission stream of one simulated fleet, in arrival order.

    Args:
        spec: Workload shape (seeded).
        apps: Registry applications devices may request; each is only
            aimed at traces carrying its sensors (a device does not
            push an audio condition without a microphone).
        traces: Registry traces; raw-IL submissions are only aimed at
            traces that carry accelerometer channels (matching
            :data:`VALID_ACCEL_IL`).
    """
    rng = random.Random(spec.seed)
    trace_names = [trace.name for trace in traces]
    accel_traces = [t.name for t in traces if "ACC_X" in t.data]
    pairs = [
        (app.name, trace.name)
        for app in apps
        for trace in traces
        if all(channel in trace.data for channel in app.channels)
    ]
    # One shared popularity ranking for the whole fleet: shuffle the
    # (app, trace) pairs once, then weight by rank.
    rng.shuffle(pairs)
    weights = zipf_weights(len(pairs), spec.zipf_s)

    submissions: List[Submission] = []
    for device in range(spec.fleet):
        tenant = f"device-{device:04d}"
        count = rng.randint(spec.min_submissions, spec.max_submissions)
        for _ in range(count):
            lane = (
                Lane.INTERACTIVE
                if rng.random() < spec.interactive_fraction
                else Lane.BULK
            )
            roll = rng.random()
            if roll < spec.invalid_fraction:
                submissions.append(
                    Submission(
                        tenant=tenant,
                        trace=rng.choice(trace_names),
                        il=rng.choice(INVALID_IL),
                        lane=lane,
                    )
                )
            elif roll < spec.invalid_fraction + spec.il_fraction and accel_traces:
                submissions.append(
                    Submission(
                        tenant=tenant,
                        trace=rng.choice(accel_traces),
                        il=rng.choice(VALID_ACCEL_IL),
                        lane=lane,
                    )
                )
            else:
                app, trace = rng.choices(pairs, weights=weights)[0]
                submissions.append(
                    Submission(tenant=tenant, trace=trace, app=app, lane=lane)
                )
    return submissions


@dataclass(frozen=True)
class StreamLoadSpec:
    """Shape of one deterministic streaming fleet workload.

    Attributes:
        fleet: Number of simulated devices; device ``d`` is tenant
            ``device-000d`` pushing stream ``stream-000d``.
        seed: Base RNG seed; signal content, subscription choices and
            connectivity gaps all derive from it.
        duration_s: Seconds of sensor data each device produces.
        chunk_interval_s: Seconds of data per pushed chunk — the round
            granularity of the streamed drive.
        chunk_seconds: Feed chunking the subscriptions evaluate at
            (the replay reference must use the same value).
        rate_hz: Sampling rate of every synthetic channel.
        min_subscriptions / max_subscriptions: Per-device subscription
            count range (inclusive).
        replay_fraction: Probability a subscription draws a
            whole-graph-replay template (:data:`STREAM_REPLAY_IL`)
            instead of an incremental one
            (:data:`STREAM_INCREMENTAL_IL`).
        disconnect_rate: Per-round probability a connected device drops
            off; while gone its chunks buffer on-device.
        mean_gap_rounds: Mean rounds a disconnection lasts (geometric);
            reconnection delivers the buffered chunks in one burst.
    """

    fleet: int = 20
    seed: int = 0
    duration_s: float = 32.0
    chunk_interval_s: float = 2.0
    chunk_seconds: float = 4.0
    rate_hz: float = 50.0
    min_subscriptions: int = 1
    max_subscriptions: int = 2
    replay_fraction: float = 0.2
    disconnect_rate: float = 0.1
    mean_gap_rounds: float = 2.0

    def __post_init__(self) -> None:
        if self.fleet <= 0:
            raise ServiceError(f"fleet must be positive, got {self.fleet}")
        if self.duration_s <= 0 or self.chunk_interval_s <= 0:
            raise ServiceError(
                "duration_s and chunk_interval_s must be positive"
            )
        if not 1 <= self.min_subscriptions <= self.max_subscriptions:
            raise ServiceError(
                "subscription range must satisfy 1 <= min <= max, got "
                f"[{self.min_subscriptions}, {self.max_subscriptions}]"
            )

    @property
    def rounds(self) -> int:
        """Chunks each device produces over the drive."""
        return max(1, int(round(self.duration_s / self.chunk_interval_s)))


@dataclass(frozen=True)
class DeviceStreamPlan:
    """One device's complete streaming intent, fixed before the drive.

    The plan is the shared ground truth between the streamed drive and
    the replay reference: the streamed path pushes ``chunks`` in order
    (possibly deferred by connectivity gaps) and registers
    ``submissions`` as live subscriptions; the reference assembles the
    same chunks into one trace (:func:`assemble_stream_trace`) and
    submits the same ``submissions`` over it.  Digest identity between
    the two is the streaming correctness gate.
    """

    tenant: str
    stream: str
    rate_hz: Mapping[str, float]
    chunks: Tuple[Mapping[str, np.ndarray], ...]
    submissions: Tuple[Submission, ...]


def stream_fleet_plan(spec: StreamLoadSpec) -> List[DeviceStreamPlan]:
    """The per-device streaming plans of one seeded fleet.

    Every device carries two accelerometer channels; chunk ``seq``
    covers seconds ``[seq, seq+1) * chunk_interval_s`` of the device's
    seeded signal.  Subscription ILs draw from the rolled template
    families, so many devices share each template's ``batch_key`` and
    the shard's incremental rounds batch across the fleet.
    """
    plans: List[DeviceStreamPlan] = []
    per_chunk = max(1, int(round(spec.rate_hz * spec.chunk_interval_s)))
    rounds = spec.rounds
    for device in range(spec.fleet):
        rng = random.Random(spec.seed * 1_000_003 + device)
        data_rng = np.random.default_rng(spec.seed * 7_654_321 + device)
        tenant = f"device-{device:04d}"
        stream = f"stream-{device:04d}"
        total = per_chunk * rounds
        columns = {
            "ACC_X": data_rng.normal(0.35, 0.35, total),
            "ACC_Y": data_rng.normal(0.7, 0.25, total),
        }
        chunks = tuple(
            {
                name: column[index * per_chunk:(index + 1) * per_chunk]
                for name, column in columns.items()
            }
            for index in range(rounds)
        )
        count = rng.randint(
            spec.min_subscriptions, spec.max_subscriptions
        )
        submissions = tuple(
            Submission(
                tenant=tenant,
                trace=stream,
                il=rng.choice(
                    STREAM_REPLAY_IL
                    if rng.random() < spec.replay_fraction
                    else STREAM_INCREMENTAL_IL
                ),
                chunk_seconds=spec.chunk_seconds,
            )
            for _ in range(count)
        )
        plans.append(
            DeviceStreamPlan(
                tenant=tenant,
                stream=stream,
                rate_hz={
                    "ACC_X": spec.rate_hz, "ACC_Y": spec.rate_hz,
                },
                chunks=chunks,
                submissions=submissions,
            )
        )
    return plans


def assemble_stream_trace(plan: DeviceStreamPlan) -> Trace:
    """A plan's chunks assembled into the whole-trace replay reference.

    Built through the same :class:`~repro.traces.stream.StreamBuffer`
    machinery the serving shard uses, so the assembled channel arrays
    and timeline are bitwise what the streamed path saw.
    """
    buffer = StreamBuffer(plan.stream, dict(plan.rate_hz))
    for seq, chunk in enumerate(plan.chunks):
        buffer.push(seq, chunk)
    return buffer.to_trace()


def stream_replay_workload(
    plans: Sequence[DeviceStreamPlan],
) -> Tuple[Dict[str, Trace], List[Submission]]:
    """The replay-whole-trace equivalent of a streamed fleet drive.

    Returns the trace registry (every device's assembled stream) and
    the submission list (every plan's subscriptions, as ordinary raw-IL
    submissions over the assembled traces).  Drive these through
    :func:`run_fleet` and the
    :func:`completion_digest` of the report's pairs must equal the
    streamed drive's digest — same fleet, same seed, same events.
    """
    traces = {plan.stream: assemble_stream_trace(plan) for plan in plans}
    submissions = [
        submission for plan in plans for submission in plan.submissions
    ]
    return traces, submissions


def reference_result(
    submission: Submission,
    traces: Mapping[str, Trace],
    profile: PhonePowerProfile = NEXUS4,
) -> ServeResult:
    """The direct-engine answer for one submission, computed fresh.

    No shared context, no pool, no memo — exactly what a developer gets
    running the same condition by hand.  Service completions must equal
    this bit for bit (the serving layer adds routing, never
    arithmetic); CI's serve smoke job fails on any mismatch.
    """
    trace = traces[submission.trace]
    if submission.kind == "app":
        apps = {app.name: app for app in all_applications()}
        config = Sidewinder(catalog=HUB_CATALOGS[submission.hub])
        return config.run(apps[submission.app or ""], trace, profile)
    _, graph, _ = validate_condition(
        submission.il or "", HUB_CATALOGS[submission.hub]
    )
    return tuple(
        run_wakeup_condition(graph, trace, submission.chunk_seconds)
    )


def response_digest(responses: Iterable[Response]) -> str:
    """Order-insensitive SHA-256 digest over terminal responses.

    Each response is pickled on its own (so shared result objects
    serialize identically regardless of which responses accompany
    them), the pickles are sorted, and the digest runs over the
    concatenation.  Two drives whose responses are bit-identical as a
    *set* — the recovery guarantee — digest equal even though recovery
    reorders re-answered, re-executed and re-driven work.  Callers
    supply one response per ticket (the natural shape of a drive).
    """
    blobs = sorted(
        pickle.dumps(response, protocol=4) for response in responses
    )
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def submission_content_key(submission: Submission) -> Tuple[object, ...]:
    """What a submission *asks for*, independent of how it is served.

    The routing-free identity of a request: who asked, which condition,
    over which trace, with which feed/hub parameters.  Two topologies
    serving the same workload agree on these keys even though their
    tickets (per-shard id counters), latencies (per-shard clocks) and
    dedup payer structure all differ.
    """
    return (
        submission.tenant,
        submission.trace,
        submission.app,
        submission.il,
        submission.chunk_seconds,
        submission.hub,
        submission.lane.value,
    )


def completion_digest(
    pairs: Iterable[Tuple[Submission, Response]],
) -> str:
    """Topology-independent digest over terminal work outcomes.

    :func:`response_digest` pickles whole responses — ticket ids,
    latencies, dedup flags included — which is the right identity for
    crash recovery (same shard, before vs after) but can never match
    across shard *topologies*: a 4-shard cluster hands out four
    independent id sequences and elects one dedup payer per shard.
    This digest instead hashes what must be invariant: for every
    terminal response, the submission's :func:`submission_content_key`
    plus the pickled **result content** (the simulation result or
    wake-event tuple for completions; the error type and message for
    failures; the reason for cancellations).  Blobs are sorted, so the
    digest is order-insensitive like :func:`response_digest`.

    N-shard completions digest-equal the 1-shard reference iff every
    submission produced bit-identical result content — the cluster
    acceptance gate.  Admission outcomes (rejections) are *not*
    covered: quotas and queue bounds are enforced per shard, so under
    overload they are genuinely topology-dependent.

    The key and the payload are pickled *separately* per blob: a
    single combined pickle would memoize strings shared between the
    submission key and a fresh engine result, while a journal-replayed
    result (already pickle round-tripped) holds equal-but-distinct
    strings — same content, different bytes.  Separate pickles hash
    content only, so recovered runs digest-equal uninterrupted ones.
    """
    blobs = []
    for submission, response in pairs:
        key = pickle.dumps(submission_content_key(submission), protocol=4)
        if isinstance(response, Completed):
            kind = b"completed"
            payload: object = response.result
        elif isinstance(response, Failed):
            kind = b"failed"
            payload = (response.error_type, response.message)
        else:
            kind = b"cancelled"
            payload = response.reason
        blobs.append(kind + key + pickle.dumps(payload, protocol=4))
    digest = hashlib.sha256()
    for blob in sorted(blobs):
        digest.update(blob)
    return digest.hexdigest()


@dataclass
class LoadReport:
    """Outcome of driving one workload through a shard cluster.

    Submission ids are per-shard counters, so every ticket is keyed by
    ``(shard, submission_id)``.

    Attributes:
        submitted: Submissions offered to the cluster.
        rejections: ``(shard, rejection)`` admission refusals, in
            arrival order.
        responses: ``(shard, response)`` terminal responses, one per
            accepted ticket, in ``(shard, submission_id)`` order.
        by_ticket: Accepted submissions keyed by ``(shard,
            submission_id)`` — what :func:`reference_result` verifies
            completions against.
        recoveries: Each fault-killed shard's last
            :class:`~repro.serve.journal.RecoveryStats`.
        wall_s: Wall-clock seconds the drive took (submission,
            scheduling and recovery, engine included).
        metrics: The cluster's final merged + per-shard snapshot.
    """

    submitted: int = 0
    rejections: List[Tuple[int, Rejected]] = field(default_factory=list)
    responses: List[Tuple[int, Response]] = field(default_factory=list)
    by_ticket: Dict[Tuple[int, int], Submission] = field(default_factory=dict)
    recoveries: Dict[int, RecoveryStats] = field(default_factory=dict)
    wall_s: float = 0.0
    metrics: Optional[ClusterMetricsSnapshot] = None

    @property
    def tickets(self) -> int:
        """Submissions some shard accepted."""
        return len(self.by_ticket)

    @property
    def completed(self) -> List[Completed]:
        """Responses that carry a result, across shards."""
        return [r for _, r in self.responses if isinstance(r, Completed)]

    @property
    def failed(self) -> List[Failed]:
        """Responses that carry a structured per-request error."""
        return [r for _, r in self.responses if isinstance(r, Failed)]

    @property
    def pairs(self) -> List[Tuple[Submission, Response]]:
        """(submission, response) pairs for :func:`completion_digest`."""
        return [
            (self.by_ticket[(shard, response.ticket.submission_id)], response)
            for shard, response in self.responses
        ]

    @property
    def submissions_per_second(self) -> float:
        """Sustained submission throughput over the drive."""
        return self.submitted / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Benchmark-artifact form."""
        return {
            "submitted": self.submitted,
            "accepted": self.tickets,
            "rejected": len(self.rejections),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "wall_s": self.wall_s,
            "submissions_per_sec": self.submissions_per_second,
            "metrics": self.metrics.as_dict() if self.metrics else None,
        }


def run_fleet(
    cluster: ShardCluster,
    submissions: Sequence[Submission],
    pump_every: int = 32,
) -> LoadReport:
    """Drive a workload through a cluster, recovering any killed shard.

    Closed loop: submit ``pump_every`` submissions, run one scheduling
    round on every shard (:meth:`ShardCluster.pump`), repeat, then pump
    until every queue is empty, so every accepted submission reaches a
    terminal response.  Per-shard pump cadence therefore scales with
    the shard count — N shards consume up to ``N × batch_size``
    submissions per boundary.

    When a submit or a pump kills a shard (its
    :class:`~repro.serve.faults.ServiceFaultPlan` fired), the driver
    rebuilds that shard from its own journal
    (:meth:`ShardCluster.recover_shard`) and replays *its* schedule —
    its routed submissions in order and a pump at every boundary — from
    its resume point: the later of the submission after its last
    durable accept and the boundary after its last durable round.  The
    restored ticket counter, clock and quota state re-decide everything
    the crash forgot identically, so tickets, rejections and responses
    equal the uninterrupted run's on the same topology, and no other
    shard is touched.
    """
    every = max(1, pump_every)
    report = LoadReport(submitted=len(submissions))
    started = time.perf_counter()
    # Stream index -> (shard, submission id or rejection); a recovery
    # re-drives one shard's entries from its resume point on.
    outcomes: Dict[int, Tuple[int, Union[int, Rejected]]] = {}
    index_of: Dict[Tuple[int, int], int] = {}
    responses: Dict[Tuple[int, int], Response] = {}
    # Per shard, the stream indices of the boundaries at which its
    # queue was non-empty.  Queue occupancy is deterministic, so the
    # shard journal's r-th round record is the r-th index here.
    busy: Dict[int, List[int]] = {shard: [] for shard in range(cluster.shards)}

    def record(shard: int, batch: Iterable[Response]) -> None:
        for response in batch:
            responses[(shard, response.ticket.submission_id)] = response

    def admit(index: int, routed: Routed) -> None:
        outcome = routed.response
        if routed.accepted:
            outcome = outcome.submission_id
            index_of[(routed.shard, outcome)] = index
        outcomes[index] = (routed.shard, outcome)

    def mark(index: int, shard: int) -> None:
        if cluster.shard(shard).queue_depth:
            busy[shard].append(index)

    def recover(shard: int, stop: int) -> None:
        # Rebuild the shard, then replay its schedule from its resume
        # point through submission ``stop`` (the boundary after it is
        # the caller's): everything the crash forgot is re-driven, while
        # rounds that already ran are never re-fired.  No boundary in
        # that range ran a round on the shard (it would be durable), so
        # ``busy`` needs no rewind, and re-driving a submission
        # overwrites its recorded outcome with the identical one.
        stats = cluster.recover_shard(shard)
        report.recoveries[shard] = stats
        record(shard, stats.replayed)
        record(shard, stats.reexecuted)
        marks = busy[shard]
        if stats.rounds > len(marks):
            return  # The extra rounds ran while draining, past the stream.
        last = stats.next_id - 1
        if last and (shard, last) not in index_of:
            # Only the killing accept can be durable yet unrecorded: the
            # torn tail spared its whole record, so its ticket stands.
            index_of[(shard, last)] = stop
            outcomes[stop] = (shard, last)
        resume = index_of.get((shard, last), -1) + 1
        if stats.rounds:
            resume = max(resume, marks[stats.rounds - 1] + 1)
        for index in range(resume, stop + 1):
            submission = submissions[index]
            if cluster.router.route_submission(submission) == shard:
                admit(index, cluster.submit(submission))
            if (index + 1) % every == 0 and index < stop:
                mark(index, shard)
                record(shard, cluster.pump_shard(shard))

    def pump(stop: int) -> None:
        for shard, batch in cluster.pump().items():
            record(shard, batch)
        # A pump-time kill fires after its round is durable, so the
        # killed shard resumes past this boundary.
        for shard in cluster.dead_shards:
            recover(shard, stop)

    for index, submission in enumerate(submissions):
        routed = cluster.submit(submission)
        if routed.shard in cluster.dead_shards:
            recover(routed.shard, index)  # An accept-time kill.
        else:
            admit(index, routed)
        if (index + 1) % every == 0:
            for shard in range(cluster.shards):
                mark(index, shard)
            pump(index)
    while any(
        cluster.shard(shard).queue_depth for shard in range(cluster.shards)
    ):
        pump(len(submissions) - 1)

    for index in sorted(outcomes):
        shard, outcome = outcomes[index]
        if isinstance(outcome, Rejected):
            report.rejections.append((shard, outcome))
        else:
            report.by_ticket[(shard, outcome)] = submissions[index]
    report.responses = [(key[0], responses[key]) for key in sorted(responses)]
    report.wall_s = time.perf_counter() - started
    report.metrics = cluster.metrics()
    return report
