"""The multi-tenant condition service.

A :class:`ConditionService` models one Sidewinder backend shard: many
device-resident sensor managers push wake-up conditions at it, and it
schedules them onto the single-machine simulation engine (PRs 2–4)
through a bounded queue, per-tenant admission control, and the
fingerprint-deduplicating scheduler.

The service is deliberately synchronous and single-threaded: `submit`
enqueues, `pump` runs one scheduling round, `drain` runs rounds until
the queue is empty.  That keeps every run bit-for-bit deterministic
(the async transport is a ROADMAP follow-on); parallelism lives below,
in the engine's persistent process pool (``jobs > 1``).

Everything that can go wrong for one tenant is a structured value —
:class:`~repro.serve.submission.Rejected` at admission,
:class:`~repro.serve.submission.Failed` per request after acceptance —
so no tenant's input can poison another tenant's batch, and quota
rejections interleave freely with accepted work.

With a ``journal`` path the shard is also **crash-recoverable**: every
acceptance is journaled before its ticket escapes, every scheduling
round and terminal response is journaled behind it, and
:meth:`ConditionService.recover` rebuilds an equivalent service from
the journal — completed work re-answered bit-identically, the
interrupted round re-executed at its original logical time, the rest
re-enqueued, and tenant quota state reconstructed so a restart cannot
be used to reset budgets.  A :class:`~repro.serve.health.HealthMonitor`
supervises the shard's own pump cadence and sheds new batch work while
the shard is degraded.
"""

from __future__ import annotations

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

import numpy as np

from repro.errors import JournalError, ServiceError, ServiceKilled, SidewinderError
from repro.hub.runtime import WakeEvent
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.serve.faults import ServiceFaultInjector, ServiceFaultPlan
from repro.serve.health import HealthMonitor, HealthPolicy
from repro.serve.ingest import StreamIngest
from repro.serve.journal import (
    JournalWriter,
    RecoveryStats,
    read_journal,
    truncate_journal,
)
from repro.serve.metrics import LogicalClock, MetricsRecorder, MetricsSnapshot
from repro.serve.queue import LaneQueue
from repro.serve.quotas import AdmissionController, TenantQuota
from repro.serve.scheduler import Scheduler
from repro.serve.store import ResultStore
from repro.serve.submission import (
    Cancelled,
    Completed,
    Lane,
    Rejected,
    Response,
    ServeResult,
    Submission,
    Ticket,
)
from repro.sim.engine import RunContext
from repro.traces.base import Trace

#: Default total queue capacity.
DEFAULT_CAPACITY = 256

#: Default queue slots reserved for the interactive lane.
DEFAULT_INTERACTIVE_RESERVE = 32

#: Default submissions consumed per scheduling round.
DEFAULT_BATCH_SIZE = 64

#: Default result TTL in service-clock units (scheduling rounds under
#: the logical clock).
DEFAULT_RESULT_TTL = 512.0

#: Bound on the journal's result-reference map: completed results kept
#: strongly referenced so later coalesced completions journal a small
#: ``cref`` record instead of re-pickling a shared payload.
DEFAULT_CREF_ENTRIES = 1024


class ConditionService:
    """A fleet-facing condition service over the simulation engine.

    Args:
        traces: Trace registry — the sensor recordings tenants may name.
        quota: Per-tenant admission limits.
        capacity: Bounded queue size across both lanes.
        interactive_reserve: Queue slots only interactive submissions
            may claim.
        batch_size: Submissions consumed per scheduling round.
        jobs: Engine worker processes (``N > 1`` uses the persistent
            pool; it is shut down — idempotently — by :meth:`shutdown`).
        result_ttl: Clock units a completed response stays fetchable.
        clock: Injectable time source; defaults to a deterministic
            :class:`~repro.serve.metrics.LogicalClock`.
        profile: Phone power profile for every run.
        context: Optional externally owned engine context (share one
            across services to share its caches).
        journal: Optional write-ahead journal path.  When set, every
            acceptance is made durable before its ticket escapes and
            :meth:`recover` can rebuild the shard after a crash.
        faults: Optional deterministic
            :class:`~repro.serve.faults.ServiceFaultPlan` — kills the
            process at planned submission/pump boundaries and injects
            journal I/O errors (robustness tests only).
        health: Liveness policy for the shard's
            :class:`~repro.serve.health.HealthMonitor`; a degraded
            shard rejects new bulk work (``reason="degraded"``) while
            it keeps draining accepted work.
        spill_dir: Optional directory for the result store's disk tier.
        memory_budget: With ``spill_dir``, how many responses stay
            resident in memory before older ones spill.

    Raises:
        ServiceError: on inconsistent construction parameters.
    """

    def __init__(
        self,
        traces: Mapping[str, Trace],
        quota: Optional[TenantQuota] = None,
        capacity: int = DEFAULT_CAPACITY,
        interactive_reserve: int = DEFAULT_INTERACTIVE_RESERVE,
        batch_size: int = DEFAULT_BATCH_SIZE,
        jobs: int = 1,
        result_ttl: float = DEFAULT_RESULT_TTL,
        clock: Optional[Callable[[], float]] = None,
        profile: PhonePowerProfile = NEXUS4,
        context: Optional[RunContext] = None,
        journal: Optional[Union[str, Path]] = None,
        faults: Optional[ServiceFaultPlan] = None,
        health: Optional[HealthPolicy] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        memory_budget: Optional[int] = None,
    ):
        self._clock = clock if clock is not None else LogicalClock()
        self._queue: LaneQueue = LaneQueue(capacity, interactive_reserve)
        self._admission = AdmissionController(quota or TenantQuota())
        self._context = context if context is not None else RunContext()
        self._scheduler = Scheduler(
            traces, context=self._context, jobs=jobs, profile=profile
        )
        self._store = ResultStore(
            result_ttl, spill_dir=spill_dir, memory_budget=memory_budget
        )
        self._metrics = MetricsRecorder()
        self._jobs = jobs
        self._batch_size = max(1, int(batch_size))
        self._next_id = 1
        self._closed = False
        self._faults = (
            ServiceFaultInjector(faults) if faults is not None else None
        )
        self._journal = (
            JournalWriter(journal, faults=self._faults)
            if journal is not None
            else None
        )
        self._health = HealthMonitor(
            health if health is not None else HealthPolicy(),
            start=self._now(),
        )
        self._pump_index = 0
        self._ingest = StreamIngest(
            now=self._now,
            journal_append=(
                self._journal_stream_record
                if self._journal is not None
                else None
            ),
        )
        # id(result) -> (result, submission_id): strong refs, so a live
        # id can never be recycled while its map entry exists.
        self._journaled_results: Dict[int, Tuple[ServeResult, int]] = {}

    # -- clock plumbing -------------------------------------------------

    def _now(self) -> float:
        return self._clock()

    def _tick(self) -> None:
        tick = getattr(self._clock, "tick", None)
        if callable(tick):
            tick()

    # -- the tenant-facing API ------------------------------------------

    def submit(self, submission: Submission) -> Union[Ticket, Rejected]:
        """Admit one submission: a :class:`Ticket`, or why not.

        Admission checks run in order: service liveness, shard health
        (a degraded shard sheds new bulk work), structural validity,
        registry membership (app/trace/hub names), tenant quota and
        budget, then queue capacity (with the interactive reserve).
        With a journal, the acceptance is made durable *before* the
        ticket is returned; a journal failure retracts the queue entry
        and comes back as ``Rejected(reason="journal_unavailable")``.
        All refusals are values — nothing here raises for a bad
        request.
        """
        self._metrics.submitted += 1
        tenant = submission.tenant
        if self._closed:
            return self._reject(tenant, "shutdown", "service is shut down")
        self._health.on_submit(self._now())
        if self._health.degraded and submission.lane is Lane.BULK:
            return self._reject(
                tenant, "degraded",
                "shard is degraded and sheds new bulk work while draining",
            )
        if (submission.app is None) == (submission.il is None):
            return self._reject(
                tenant, "malformed",
                "exactly one of app / il must be set",
            )
        if submission.chunk_seconds <= 0:
            return self._reject(
                tenant, "malformed",
                f"chunk_seconds must be positive, got {submission.chunk_seconds}",
            )
        if submission.hub not in self._scheduler.hub_names:
            return self._reject(
                tenant, "unknown_hub",
                f"hub {submission.hub!r} not in {self._scheduler.hub_names}",
            )
        if submission.trace not in self._scheduler.trace_names:
            return self._reject(
                tenant, "unknown_trace",
                f"trace {submission.trace!r} is not in this service's registry",
            )
        if submission.app is not None and (
            submission.app not in self._scheduler.app_names
        ):
            return self._reject(
                tenant, "unknown_app",
                f"application {submission.app!r} is not registered",
            )
        quota_reason = self._admission.admit(tenant)
        if quota_reason is not None:
            return self._reject(
                tenant, quota_reason,
                f"tenant {tenant!r} exceeded its {quota_reason.split('_')[1]}",
            )
        self._tick()
        ticket = Ticket(self._next_id, tenant, submitted_at=self._now())
        if not self._queue.offer((ticket, submission), submission.lane):
            reason = (
                "bulk_backpressure"
                if submission.lane is Lane.BULK
                and len(self._queue) < self._queue.capacity
                else "queue_full"
            )
            return self._reject(
                tenant, reason,
                f"queue depth {len(self._queue)}/{self._queue.capacity}",
            )
        if self._journal is not None:
            try:
                self._journal.append(
                    ("accept", ticket.submission_id, ticket.submitted_at,
                     submission)
                )
            except JournalError as error:
                # The ticket must not escape un-journaled: take the
                # entry back out and refuse the submission instead.
                self._queue.retract(submission.lane)
                self._health.on_journal_error(self._now())
                return self._reject(tenant, "journal_unavailable", str(error))
        self._next_id += 1
        self._metrics.accepted += 1
        self._admission.on_accepted(tenant)
        if self._faults is not None and self._faults.kill_on_accept():
            self._kill()
        return ticket

    def _reject(self, tenant: str, reason: str, detail: str) -> Rejected:
        self._metrics.on_rejected(reason)
        return Rejected(tenant, reason, detail)

    def _kill(self) -> None:
        """Simulate abrupt process death at a planned fault point."""
        plan = self._faults.plan
        if self._journal is not None:
            self._journal.crash(plan.torn_tail_bytes or None)
        self._closed = True
        if self._jobs > 1:
            self._context.shutdown_pool()
        raise ServiceKilled(
            f"service killed by fault plan (seed {plan.seed})"
        )

    # -- journal plumbing -----------------------------------------------

    def _journal_round(
        self, now: float, entries: Sequence[Tuple[Ticket, Submission]]
    ) -> None:
        """Make this round — and every buffered accept — durable."""
        if self._journal is None:
            return
        member_ids = tuple(ticket.submission_id for ticket, _ in entries)
        try:
            self._journal.append(("round", now, member_ids))
            self._journal.flush()
        except JournalError:
            self._health.on_journal_error(now)

    def _remember_result(self, result: ServeResult, sid: int) -> None:
        key = id(result)
        if key in self._journaled_results:
            return
        while len(self._journaled_results) >= DEFAULT_CREF_ENTRIES:
            self._journaled_results.pop(next(iter(self._journaled_results)))
        self._journaled_results[key] = (result, sid)

    def _journal_responses(
        self,
        now: float,
        responses: Sequence[Response],
        memo_keys: Mapping[int, tuple],
    ) -> None:
        """Buffer completion records, sharing payloads via ``cref``.

        A payer's record, ``complete`` or ``cref``, carries the memo key
        its round filed the result under (``memo_keys``, from
        :meth:`Scheduler.run_batch`); every other record carries
        ``None``.
        """
        if self._journal is None:
            return
        try:
            for response in responses:
                sid = response.ticket.submission_id
                key = memo_keys.get(sid)
                if isinstance(response, Completed):
                    ref = self._journaled_results.get(id(response.result))
                    if ref is not None:
                        self._journal.append(
                            ("cref", sid, now, ref[1], response.dedup,
                             response.latency, key)
                        )
                        continue
                    self._journal.append(("complete", sid, now, response, key))
                    self._remember_result(response.result, sid)
                else:
                    self._journal.append(("complete", sid, now, response, key))
        except JournalError:
            self._health.on_journal_error(now)

    def _journal_flush(self) -> None:
        if self._journal is None:
            return
        try:
            self._journal.flush()
        except JournalError:
            self._health.on_journal_error(self._now())

    def _journal_stream_record(self, record: tuple) -> None:
        """Buffer a stream record (chunk/sub) for the next round flush.

        Stream records are apply-then-journal: a journal failure counts
        on shard health but does not refuse the chunk — the device's
        resync protocol (:meth:`stream_cursor` after recovery, then
        idempotent re-push) recovers anything the journal lost.
        """
        try:
            self._journal.append(record)
        except JournalError:
            self._health.on_journal_error(self._now())

    # -- streaming ingestion --------------------------------------------

    def push_chunk(
        self,
        tenant: str,
        stream: str,
        seq: int,
        samples: Mapping[str, np.ndarray],
        rate_hz: Optional[Mapping[str, float]] = None,
    ) -> bool:
        """Apply one device chunk to a stream; True when it advanced.

        The first chunk of a new stream must carry ``rate_hz``.  A
        duplicate ``seq`` (reconnect retry) is an idempotent no-op.
        Chunks become durable at the next pump's journal flush; the
        device's resync point after a shard crash is
        :meth:`stream_cursor`.

        Raises:
            ServiceError: when the service is shut down, or on an
                unknown stream with no ``rate_hz``.
            TraceError: on a sequence gap or unknown channel.
        """
        if self._closed:
            raise ServiceError("service is shut down")
        self._health.on_submit(self._now())
        return self._ingest.push(tenant, stream, seq, samples, rate_hz=rate_hz)

    def subscribe_stream(
        self, submission: Submission
    ) -> Union[int, Rejected]:
        """Register a streaming subscription; its id, or why not.

        ``submission.trace`` names an already-started stream of the
        same tenant and ``submission.il`` carries the condition (app
        submissions replay finished recordings; streams have none).
        Validation failures come back as structured
        :class:`~repro.serve.submission.Rejected` values, mirroring
        :meth:`submit`.
        """
        tenant = submission.tenant
        if self._closed:
            return self._reject(tenant, "shutdown", "service is shut down")
        self._health.on_submit(self._now())
        try:
            return self._ingest.subscribe(
                submission, journal=self._journal is not None
            )
        except SidewinderError as error:
            return self._reject(tenant, "invalid_subscription", str(error))

    def close_stream(
        self, tenant: str, stream: str
    ) -> Dict[int, Tuple[WakeEvent, ...]]:
        """End one stream: final catch-up round, then complete event
        logs per subscription id.

        Pending stream records are flushed first, so everything the
        final results derive from is durable before they escape.
        """
        self._journal_flush()
        return self._ingest.close_stream(tenant, stream)

    def stream_results(self, sub_id: int) -> Tuple[WakeEvent, ...]:
        """Wake events a streaming subscription has emitted so far."""
        return self._ingest.results(sub_id)

    def stream_cursor(self, tenant: str, stream: str) -> int:
        """The next chunk ``seq`` a stream expects (0 when unknown) —
        the device resync point after shard recovery."""
        return self._ingest.next_seq(tenant, stream)

    # -- scheduling -----------------------------------------------------

    def pump(self) -> List[Response]:
        """Run one scheduling round over up to ``batch_size`` submissions.

        Returns the round's terminal responses (also fetchable via
        :meth:`result` until their TTL lapses).  A no-op on an empty
        queue with no new stream arrivals.  With a journal, the round's
        membership is flushed before execution and its completions are
        flushed at round end, so a crash anywhere inside the round is
        recoverable with the round's original batch and logical time.

        Streams ride the same cadence: chunks and subscriptions that
        arrived since the last round are made durable by the round
        flush, then every subscription advances incrementally over its
        newly arrived span (one stacked batched-tier dispatch per
        ``batch_key`` group) before the batch executes.  Rounds with
        only stream work run the advance and return no responses —
        streamed wake events are read through :meth:`stream_results` /
        :meth:`close_stream`.
        """
        self._store.evict_expired(self._now())
        entries = self._queue.take(self._batch_size)
        stream_work = self._ingest.dirty
        if not entries and not stream_work:
            self._health.on_pump(self._now())
            return []
        round_index = self._pump_index
        self._pump_index += 1
        for ticket, _ in entries:
            self._admission.on_scheduled(ticket.tenant)
        self._tick()
        round_now = self._now()
        if entries:
            # The round flush also makes buffered stream records durable.
            self._journal_round(round_now, entries)
        else:
            # Stream-only round: chunks/subscriptions become durable
            # before they are evaluated.
            self._journal_flush()
        if self._faults is not None and self._faults.kill_on_pump(
            round_index, "begin"
        ):
            self._kill()
        if stream_work:
            self._ingest.advance()
        if not entries:
            self._health.on_pump(round_now)
            return []
        responses, engine_runs, memo_keys = self._scheduler.run_batch(
            entries, now=round_now
        )
        self._metrics.engine_runs += engine_runs
        for response in responses:
            if isinstance(response, Completed):
                self._metrics.on_completed(response.latency, response.dedup)
            else:
                self._metrics.failed += 1
            self._store.put(response.ticket.submission_id, response, round_now)
        if self._faults is not None and self._faults.kill_on_pump(
            round_index, "store"
        ):
            self._kill()
        self._journal_responses(round_now, responses, memo_keys)
        if self._faults is not None and self._faults.kill_on_pump(
            round_index, "end"
        ):
            self._kill()
        self._journal_flush()
        self._health.on_pump(round_now)
        return responses

    def drain(self) -> List[Response]:
        """Pump until the queue is empty; all responses, in round order."""
        responses: List[Response] = []
        while len(self._queue):
            responses.extend(self.pump())
        return responses

    def result(self, submission_id: int) -> Optional[Response]:
        """A ticket's terminal response, or ``None`` if pending/expired."""
        return self._store.get(submission_id, self._now())

    def metrics(self) -> MetricsSnapshot:
        """Current counters, dedup hit-rate, latency percentiles, and
        durability/health state."""
        return self._metrics.snapshot(
            queue_depth=len(self._queue),
            store_size=len(self._store),
            store_spilled=self._store.spilled_count,
            journal_errors=self._health.journal_errors,
            health_state=self._health.state.value,
            health_transitions=self._health.transitions,
            batch_rounds=self._scheduler.batch_rounds,
            batched_cells=self._scheduler.batched_cells,
            shape_rounds=self._scheduler.shape_rounds,
            shape_cells=self._scheduler.shape_cells,
            batch_padded_cells=self._scheduler.batch_padded_cells,
            batch_valid_cells=self._scheduler.batch_valid_cells,
            merge_rounds=self._scheduler.merge_rounds,
            merged_cells=self._scheduler.merged_cells,
            merge_shared_nodes=self._scheduler.merge_shared_nodes,
            shared_reads=self._scheduler.shared_reads,
            shared_entries=self._scheduler.shared_entries,
            shared_bytes=self._scheduler.shared_bytes,
            stream_chunks=self._ingest.chunks,
            stream_subscriptions=self._ingest.subscriptions,
            stream_backlog=self._ingest.backlog,
            stream_lag_s=self._ingest.lag_s,
            stream_rounds=self._ingest.rounds,
            stream_cells=self._ingest.cells,
        )

    def latency_samples(self) -> Tuple[float, ...]:
        """Every completion latency recorded so far, in completion order.

        Cross-shard aggregation needs the raw samples: merged
        percentiles must be computed over the union of shard samples,
        not averaged from per-shard percentiles (which has no meaning).
        """
        return tuple(self._metrics.latencies)

    @property
    def queue_depth(self) -> int:
        """Submissions currently queued."""
        return len(self._queue)

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has run."""
        return self._closed

    @property
    def health(self) -> HealthMonitor:
        """The shard's liveness supervisor."""
        return self._health

    @property
    def journal_path(self) -> Optional[Path]:
        """Where this shard journals, or ``None`` when not durable."""
        return self._journal.path if self._journal is not None else None

    # -- lifecycle ------------------------------------------------------

    def shutdown(self, drain: bool = True) -> List[Response]:
        """Stop the service; idempotent (a second call is a no-op).

        Args:
            drain: When True (default) every queued submission runs to
                a terminal response before the service closes.  When
                False, queued submissions become structured
                :class:`Cancelled` responses without running.

        The journal is flushed and closed (cancellations included, so a
        restart re-answers them instead of re-running them), spill
        files are removed, and this service's own worker pool is torn
        down through :meth:`repro.sim.engine.RunContext.shutdown_pool`
        (itself idempotent), so no worker futures outlive the service.
        Other services' pools are untouched — pool lifetime is
        per-context, not module-global.
        """
        if self._closed:
            return []
        responses: List[Response] = []
        if drain:
            responses = self.drain()
        else:
            now = self._now()
            for ticket, _ in self._queue.drain():
                self._admission.on_scheduled(ticket.tenant)
                cancelled = Cancelled(ticket)
                self._metrics.cancelled += 1
                self._store.put(ticket.submission_id, cancelled, now)
                responses.append(cancelled)
            self._journal_responses(now, responses, {})
        self._closed = True
        if self._journal is not None:
            try:
                self._journal.close()
            except JournalError:
                pass
        self._store.close()
        if self._jobs > 1:
            self._context.shutdown_pool()
        return responses

    # -- crash recovery -------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal: Union[str, Path],
        traces: Mapping[str, Trace],
        quota: Optional[TenantQuota] = None,
        capacity: int = DEFAULT_CAPACITY,
        interactive_reserve: int = DEFAULT_INTERACTIVE_RESERVE,
        batch_size: int = DEFAULT_BATCH_SIZE,
        jobs: int = 1,
        result_ttl: float = DEFAULT_RESULT_TTL,
        profile: PhonePowerProfile = NEXUS4,
        context: Optional[RunContext] = None,
        faults: Optional[ServiceFaultPlan] = None,
        health: Optional[HealthPolicy] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        memory_budget: Optional[int] = None,
    ) -> Tuple["ConditionService", RecoveryStats]:
        """Rebuild a crashed shard from its write-ahead journal.

        The recovery invariants:

        * a damaged journal (torn tail, bad-CRC record) is truncated to
          its longest valid prefix — reported, never raised;
        * every durable completion is re-answered **bit-identically**
          (same ids, same payloads, same dedup flags and latencies) and
          re-stored under its original completion time;
        * the coalescing memo is seeded from the memo keys journaled
          with durable payers, so no condition is re-validated; the
          interrupted round, if any, is re-executed through the engine
          at its journaled logical time on that memo, so payer/dedup
          structure is preserved;
        * streams are rebuilt in bulk from their chunk records and
          subscriptions re-registered, then one catch-up advance
          re-derives every streamed event;
        * accepts that never reached a round are re-enqueued;
        * the ticket counter, logical clock, and per-tenant quota state
          (pending and lifetime budgets) are restored, so a restart
          cannot be used to reset budgets and the resumed submission
          stream reproduces the uninterrupted run exactly.

        Returns:
            ``(service, stats)`` — the rebuilt service (journaling to
            the same file) and a :class:`RecoveryStats` describing what
            was replayed, re-executed, re-enqueued and truncated.

        Raises:
            JournalError: when the journal file itself cannot be read
                or truncated.
        """
        journal = Path(journal)
        scan = read_journal(journal)
        if scan.truncated_bytes:
            truncate_journal(journal, scan.valid_bytes)

        accepts: Dict[int, Tuple[float, Submission]] = {}
        # sid -> (completed at, response, payer's memo key or None)
        completions: Dict[int, Tuple[float, Response, Optional[tuple]]] = {}
        rounds: List[Tuple[float, Tuple[int, ...]]] = []
        chunk_records: List[tuple] = []
        sub_records: List[tuple] = []
        clock = 0.0
        for record in scan.records:
            kind = record[0]
            if kind == "accept":
                _, sid, now, submission = record
                accepts[sid] = (now, submission)
            elif kind == "round":
                _, now, member_ids = record
                rounds.append((now, tuple(member_ids)))
            elif kind == "complete":
                _, sid, now, response, key = record
                completions[sid] = (now, response, key)
            elif kind == "cref":
                # A completion sharing an earlier payload.
                _, sid, now, ref_sid, dedup, latency, key = record
                base = completions.get(ref_sid)
                accepted = accepts.get(sid)
                if (
                    accepted is not None
                    and base is not None
                    and isinstance(base[1], Completed)
                ):
                    ticket = Ticket(sid, accepted[1].tenant, accepted[0])
                    completions[sid] = (
                        now,
                        Completed(
                            ticket, base[1].result,
                            dedup=dedup, latency=latency,
                        ),
                        key,
                    )
            elif kind == "chunk":
                now = record[4]
                chunk_records.append(record)
            else:  # sub
                now = record[2]
                sub_records.append(record)
            clock = max(clock, now)

        service = cls(
            traces,
            quota=quota,
            capacity=capacity,
            interactive_reserve=interactive_reserve,
            batch_size=batch_size,
            jobs=jobs,
            result_ttl=result_ttl,
            clock=LogicalClock(start=clock),
            profile=profile,
            context=context,
            journal=journal,
            faults=faults,
            health=health,
            spill_dir=spill_dir,
            memory_budget=memory_budget,
        )
        try:
            if accepts:
                service._next_id = max(accepts) + 1
            service._pump_index = len(rounds)

            # Streams rebuild in bulk from their durable chunk records,
            # then subscriptions re-register in journal order (ids reattach
            # from the records; a cursor starts at zero, so when it
            # subscribed does not change its results).  One catch-up
            # advance then re-derives every streamed wake event —
            # bit-identical to the pre-crash run, because streamed
            # evaluation is invariant to how arrivals were chunked into
            # rounds.
            streams, chunks = service._ingest.restore(chunk_records)
            for _, sub_id, _, submission in sub_records:
                service._ingest.subscribe(
                    submission, journal=False, sub_id=sub_id
                )
            if service._ingest.dirty:
                service._ingest.advance()

            # Quota state: every durable accept charged the tenant's
            # lifetime budget and took a pending slot ...
            for _, (_, submission) in accepts.items():
                service._admission.on_accepted(submission.tenant)
                service._metrics.submitted += 1
                service._metrics.accepted += 1

            # ... and every durable completion had already left the queue.
            replayed: List[Response] = []
            seeded = 0
            for sid, (completed_at, response, key) in completions.items():
                accepted = accepts.get(sid)
                if accepted is not None:
                    service._admission.on_scheduled(accepted[1].tenant)
                if isinstance(response, Completed):
                    service._metrics.on_completed(
                        response.latency, response.dedup
                    )
                    # Seed the coalescing memo (payers only — their records
                    # carry the key their result was filed under) and the
                    # journal's result-reference map, so post-recovery
                    # coalescing and journaling behave exactly as before
                    # the crash.
                    if key is not None:
                        seeded += service._scheduler.seed_memo(
                            key, response.result
                        )
                    service._remember_result(response.result, sid)
                elif isinstance(response, Cancelled):
                    service._metrics.cancelled += 1
                else:
                    service._metrics.failed += 1
                service._store.put(sid, response, completed_at)
                replayed.append(response)

            # Re-execute interrupted rounds at their original logical time.
            # Normally only the last round can be incomplete (completions
            # flush at round end), but injected journal errors can lose an
            # earlier round's completions too — handle all of them.
            reexecuted: List[Response] = []
            in_rounds = set()
            for round_now, member_ids in rounds:
                in_rounds.update(member_ids)
                missing = [
                    sid
                    for sid in member_ids
                    if sid not in completions and sid in accepts
                ]
                if not missing:
                    continue
                entries = [
                    (
                        Ticket(sid, accepts[sid][1].tenant, accepts[sid][0]),
                        accepts[sid][1],
                    )
                    for sid in missing
                ]
                for ticket, _ in entries:
                    service._admission.on_scheduled(ticket.tenant)
                responses, engine_runs, memo_keys = (
                    service._scheduler.run_batch(entries, now=round_now)
                )
                service._metrics.engine_runs += engine_runs
                for response in responses:
                    if isinstance(response, Completed):
                        service._metrics.on_completed(
                            response.latency, response.dedup
                        )
                    else:
                        service._metrics.failed += 1
                    service._store.put(
                        response.ticket.submission_id, response, round_now
                    )
                service._journal_responses(round_now, responses, memo_keys)
                service._journal_flush()
                reexecuted.extend(responses)

            # Accepts that never reached a round go back in the queue,
            # bypassing capacity checks — they were admitted pre-crash.
            requeued: List[int] = []
            for sid, (accepted_at, submission) in accepts.items():
                if sid in completions or sid in in_rounds:
                    continue
                ticket = Ticket(sid, submission.tenant, accepted_at)
                service._queue.restore((ticket, submission), submission.lane)
                requeued.append(sid)

            stats = RecoveryStats(
                journal_bytes=scan.total_bytes,
                valid_bytes=scan.valid_bytes,
                truncated_bytes=scan.truncated_bytes,
                truncation_reason=scan.reason,
                records=len(scan.records),
                accepts=len(accepts),
                rounds=len(rounds),
                completions=len(completions),
                seeded=seeded,
                streams=streams,
                chunks=chunks,
                replayed=tuple(replayed),
                reexecuted=tuple(reexecuted),
                requeued=tuple(requeued),
                next_id=service._next_id,
                clock=clock,
            )
            return service, stats
        except BaseException:
            # A failed rebuild must not leak the new service's
            # journal file: close it, writing nothing further.
            service._journal.crash()
            raise
