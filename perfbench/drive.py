"""One pass of one workload: set up, drive both phases, recover, verify.

A pass runs in its own process (``run.py`` starts it), so its peak
resident memory is the workload's own.  The driver is single-threaded,
seeded and open-loop: arrivals are sent on a precomputed schedule
whether or not the shard keeps up, and every latency counts from the
scheduled send time.  It calls only the public serving API —
``submit``, ``pump``, ``push_chunk``, ``subscribe_stream``,
``close_stream``, ``metrics`` and ``ShardCluster.recover``.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from bisect import bisect_right
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional, Tuple

from repro.errors import SidewinderError
from repro.hub.costmodel import CostModel
from repro.serve import Completed, Failed, ShardCluster, shard_journal_path
from repro.sim.engine import RunContext

from perfbench import oracle
from perfbench.hostspeed import BRACKET, REFERENCE_S, HostSpeed
from perfbench.spans import Installed, Tracer
from perfbench.stats import percentile, tail_percentile
from perfbench.workloads import (
    BATCH,
    WORKLOADS,
    FleetPlan,
    StreamPlan,
    Workload,
    submission,
)

#: Cluster builds (with warm-up) per pass; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Recoveries from the pass's journal; ``recover_s`` is their mean.  A
#: run's recoveries fall into a fast and a slow mode (0.3 and 0.5 s on
#: ``fleet_audio``) in a mix that changes from run to run; the median
#: jumps between the modes, the mean follows the mix.
RECOVER_REPEATS = 9
#: Queued submissions the saturated phase keeps topped up (two rounds).
SATURATED_BACKLOG = 2 * BATCH
#: Phases whose spans the per-layer metrics sum over.
MEASURED = ("open", "saturated")
TIERS = ("compiled", "fused", "rounds")
#: Share of executed rows a path needs to count in a run's tier mix.
MIX_SHARE = 0.2


class Contexts:
    """The benchmark-owned ``context_factory``: one fresh
    :class:`RunContext` per shard, remembered so the driver can read
    its public counters (``stats``, ``cost_model``).  ``cost_table``
    pins tiers the way a deployment's calibrated table does."""

    def __init__(self, cost_table: Optional[Dict[str, str]] = None) -> None:
        self.cost_table = dict(cost_table or {})
        self.made: List[RunContext] = []

    def __call__(self) -> RunContext:
        context = RunContext(cost_model=CostModel(table=self.cost_table))
        self.made.append(context)
        return context


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tier_runs(context: RunContext) -> Dict[str, int]:
    """Hub executions per tier the cost model has observed (per-row
    runs and stacked dispatches alike), fingerprint keys only."""
    runs = {tier: 0 for tier in TIERS}
    for key, tiers in context.cost_model.as_dict().items():
        if key.startswith("shape:"):
            continue
        for tier, entry in tiers.items():
            runs[tier] = runs.get(tier, 0) + int(entry["runs"])
    return runs


def shape_tiers(context: RunContext) -> str:
    """The tier each same-shape group has settled on, in shape order —
    the choice a wall-clock near-tie can flip from run to run."""
    model = context.cost_model
    settled = []
    for key, tiers in sorted(model.as_dict().items()):
        if key.startswith("shape:"):
            settled.append(model.selection(
                key, [tier for tier in TIERS if tier in tiers]) or "probing")
    return "/".join(settled)


def counters(cluster: ShardCluster, context: RunContext) -> Dict[str, float]:
    """The program's public counters the per-layer metrics difference."""
    snap = cluster.metrics().merged
    stats = context.stats
    out = {
        "completed": snap.completed,
        "failed": snap.failed,
        "dedup_hits": snap.dedup_hits,
        "engine_runs": snap.engine_runs,
        "batch_rounds": snap.batch_rounds,
        "batched_cells": snap.batched_cells,
        "shape_rounds": snap.shape_rounds,
        "shape_cells": snap.shape_cells,
        "batch_padded_cells": snap.batch_padded_cells,
        "batch_valid_cells": snap.batch_valid_cells,
        "stream_rounds": snap.stream_rounds,
        "stream_cells": snap.stream_cells,
        "hub_hits": stats.hub_hits,
        "hub_misses": stats.hub_misses,
    }
    out.update({f"tier.{tier}": runs
                for tier, runs in tier_runs(context).items()})
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Driver:
    """Bookkeeping shared by the fleet and stream drives."""

    def __init__(self, plan, tracer: Optional[Tracer], journal_dir: Path,
                 speed: HostSpeed):
        self.plan = plan
        self.tracer = tracer
        self.journal_dir = journal_dir
        self.speed = speed
        self.contexts = Contexts(getattr(plan, "cost_table", None))
        self.cluster: Optional[ShardCluster] = None
        self.rounds = 0
        #: (phase, start, end, responses) per pump call.
        self.pumps: List[Tuple[str, float, float, int]] = []
        #: Latencies of each block's open-loop window.
        self.latencies: List[List[float]] = []
        #: Wall seconds of each block's saturated run.
        self.saturated_s: List[float] = []
        #: ``(start, end)`` of each block's open window and saturated run.
        self.open_spans: List[Tuple[float, float]] = []
        self.saturated_spans: List[Tuple[float, float]] = []
        self.lateness: List[float] = []
        self.backlog_max = 0
        self.lag_max_s = 0.0

    def measure(self, blocks: int) -> None:
        """The measured phases: ``blocks`` times an open-loop window
        followed by a saturated run, so each metric's samples spread
        over the whole run and one slow stretch of the host moves their
        median little.  The host's speed is sampled around every phase
        and in the open-loop windows' idle waits
        (:mod:`perfbench.hostspeed`)."""
        speed = self.speed
        for block in range(blocks):
            self.latencies.append([])
            self.set_phase("open")
            speed.sample(BRACKET)
            start = time.perf_counter()
            self.open_window(block, blocks)
            self.open_spans.append((start, time.perf_counter()))
            self.set_phase("saturated")
            speed.sample(BRACKET)
            start = time.perf_counter()
            self.saturated(block, blocks)
            end = time.perf_counter()
            self.saturated_spans.append((start, end))
            self.saturated_s.append(end - start)
        speed.sample(BRACKET)
        self.set_phase(None)

    def build(self, traces) -> None:
        self.cluster = ShardCluster(
            traces, shards=1, jobs=1, journal_dir=self.journal_dir,
            context_factory=self.contexts,
        )

    @property
    def context(self) -> RunContext:
        return self.contexts.made[0]

    def set_phase(self, phase: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def pump(self, phase: str) -> Tuple[list, float, float]:
        """One round; its responses and its start and end times."""
        if self.tracer is not None:
            self.tracer.request = ("round", self.rounds)
            if phase in MEASURED and isinstance(self.plan, StreamPlan):
                # The ingest backlog a round faces: everything pushed
                # since the previous round (a round always ends at 0).
                snap = self.cluster.metrics().merged
                self.backlog_max = max(self.backlog_max, snap.stream_backlog)
                self.lag_max_s = max(self.lag_max_s, snap.stream_lag_s)
        start = time.perf_counter()
        responses = self.cluster.pump().get(0, [])
        end = time.perf_counter()
        self.rounds += 1
        self.pumps.append((phase, start, end, len(responses)))
        return responses, start, end


class FleetDriver(Driver):
    """Open-loop and saturated submission traffic.

    Answers are kept as compact tuples (plus one reference per distinct
    result object) rather than response objects, so the driver's own
    bookkeeping stays out of the collector's way.
    """

    def __init__(self, plan: FleetPlan, tracer, journal_dir, speed):
        super().__init__(plan, tracer, journal_dir, speed)
        #: The request tuple and phase of each submission offered.
        self.requests: List[tuple] = []
        self.phases: List[str] = []
        #: op index -> (sid, submitted_at, kind, dedup, latency, payload);
        #: ``payload`` indexes :attr:`payloads` for completions and is
        #: ``(error_type, message)`` for failures.
        self.answers: Dict[int, tuple] = {}
        self.payloads: List[object] = []
        self._payload_ids: Dict[int, int] = {}
        self.refused: List[int] = []
        self.pending: Dict[int, Tuple[int, Optional[float], float]] = {}
        self.waits: List[float] = []
        #: Saturated op index -> its block.
        self.block_of: Dict[int, int] = {}

    def submit(self, req: tuple, phase: str,
               scheduled: Optional[float] = None) -> None:
        index = len(self.requests)
        self.requests.append(req)
        self.phases.append(phase)
        wire = submission(req)
        sent = time.perf_counter()
        routed = self.cluster.submit(wire)
        accepted = time.perf_counter()
        if scheduled is not None:
            self.lateness.append(sent - scheduled)
        if routed.accepted:
            self.pending[routed.response.submission_id] = (
                index, scheduled, accepted
            )
        else:
            self.refused.append(index)

    def record(self, response) -> tuple:
        """The compact form of one terminal response."""
        ticket = response.ticket
        if isinstance(response, Completed):
            ref = self._payload_ids.get(id(response.result))
            if ref is None:
                ref = self._payload_ids[id(response.result)] = len(
                    self.payloads)
                self.payloads.append(response.result)
            return (ticket.submission_id, ticket.submitted_at, "completed",
                    response.dedup, response.latency, ref)
        if isinstance(response, Failed):
            return (ticket.submission_id, ticket.submitted_at, "failed",
                    None, response.latency,
                    (response.error_type, response.message))
        return (ticket.submission_id, ticket.submitted_at, "cancelled",
                None, None, None)

    def pump(self, phase: str) -> int:
        responses, start, end = super().pump(phase)
        for response in responses:
            sid = response.ticket.submission_id
            index, scheduled, accepted = self.pending.pop(sid)
            self.answers[index] = self.record(response)
            if scheduled is not None:
                self.latencies[-1].append(end - scheduled)
            if phase in MEASURED:
                self.waits.append(start - accepted)
        return len(responses)

    def drain(self, phase: str) -> None:
        while self.pending:
            self.pump(phase)

    def setup(self) -> None:
        self.build(self.plan.traces)
        warmup = self.plan.warmup
        for start in range(0, len(warmup), BATCH):
            for submission in warmup[start:start + BATCH]:
                self.submit(submission, "setup")
            self.pump("setup")
        self.drain("setup")

    def open_window(self, block: int, blocks: int) -> None:
        ops, times = self.plan.open_ops, self.plan.open_times
        lo, hi = share(len(ops), block, blocks)
        base = times[lo - 1] if lo else 0.0
        origin = time.perf_counter()
        i = lo
        while i < hi or self.pending:
            now = time.perf_counter() - origin
            sent = 0
            # At most one round's worth between pumps keeps the shard
            # inside its logical-tick health deadline.
            while i < hi and times[i] - base <= now and sent < BATCH:
                self.submit(ops[i], "open", origin + times[i] - base)
                i += 1
                sent += 1
            if self.pending:
                self.pump("open")
            elif i < hi:
                self.speed.idle_until(origin + times[i] - base)

    def saturated(self, block: int, blocks: int) -> None:
        ops = self.plan.saturated_ops
        j, hi = share(len(ops), block, blocks)
        while j < hi or self.pending:
            while len(self.pending) < SATURATED_BACKLOG and j < hi:
                self.block_of[len(self.requests)] = block
                self.submit(ops[j], "saturated")
                j += 1
            self.pump("saturated")

    def finish(self) -> None:
        self.cluster.shutdown()


class StreamDriver(Driver):
    """Devices pushing chunks on a wall-clock schedule, then flat out."""

    def __init__(self, plan: StreamPlan, tracer, journal_dir, speed):
        super().__init__(plan, tracer, journal_dir, speed)
        self.next_seq = [0] * len(plan.devices)
        self.sub_ids: Dict[Tuple[int, int], int] = {}
        #: (phase, ok) per chunk push.
        self.pushes: List[Tuple[str, bool]] = []
        #: Chunks each block's saturated run advanced.
        self.advanced: List[int] = []
        self.waiting: List[Optional[float]] = []
        self.logs: Dict[Tuple[int, int], tuple] = {}
        self.setup_errors = 0

    def push(self, d: int, phase: str,
             scheduled: Optional[float] = None) -> None:
        device = self.plan.devices[d]
        seq = self.next_seq[d]
        samples = device.chunk(seq, self.plan.per_chunk)
        sent = time.perf_counter()
        try:
            _, applied = self.cluster.push_chunk(
                device.tenant, device.stream, seq, samples,
                rate_hz=self.plan.rate_hz if seq == 0 else None,
            )
        except SidewinderError:
            applied = None
        if scheduled is not None:
            self.lateness.append(sent - scheduled)
        ok = applied is True
        self.pushes.append((phase, ok))
        if ok:
            self.next_seq[d] = seq + 1
            self.waiting.append(scheduled)

    def pump(self, phase: str) -> int:
        _, _, end = super().pump(phase)
        for scheduled in self.waiting:
            if scheduled is not None:
                self.latencies[-1].append(end - scheduled)
        done = len(self.waiting)
        if phase == "saturated":
            self.advanced[-1] += done
        self.waiting = []
        return done

    def setup(self) -> None:
        self.build({})
        for d, device in enumerate(self.plan.devices):
            self.push(d, "setup")
            for s, submission in enumerate(device.subscriptions):
                _, sub_id = self.cluster.subscribe_stream(submission)
                if isinstance(sub_id, int):
                    self.sub_ids[(d, s)] = sub_id
                else:
                    self.setup_errors += 1
        self.pump("setup")
        for _ in range(1, self.plan.warmup_chunks):
            for d in range(len(self.plan.devices)):
                self.push(d, "setup")
            self.pump("setup")
        self.setup_errors += sum(1 for _, ok in self.pushes if not ok)

    def open_window(self, block: int, blocks: int) -> None:
        deliveries = self.plan.deliveries[block]
        origin = time.perf_counter()
        i = 0
        while i < len(deliveries) or self.waiting:
            now = time.perf_counter() - origin
            while i < len(deliveries) and deliveries[i][0] <= now:
                at, d, count = deliveries[i]
                for _ in range(count):
                    self.push(d, "open", origin + at)
                i += 1
            if self.waiting:
                self.pump("open")
            elif i < len(deliveries):
                self.speed.idle_until(origin + deliveries[i][0])

    def saturated(self, block: int, blocks: int) -> None:
        self.advanced.append(0)
        lo, hi = share(self.plan.saturated_rounds, block, blocks)
        for _ in range(lo, hi):
            for d in range(len(self.plan.devices)):
                self.push(d, "saturated")
            self.pump("saturated")

    def finish(self) -> None:
        self.set_phase("close")
        self.logs = close_all(self.cluster, self.plan, self.sub_ids)
        self.set_phase(None)
        self.cluster.shutdown()


def close_all(cluster: ShardCluster, plan: StreamPlan,
              sub_ids: Dict[Tuple[int, int], int]) -> Dict[Tuple[int, int], tuple]:
    """Close every device's stream; closed logs by (device, sub index)."""
    logs: Dict[Tuple[int, int], tuple] = {}
    for d, device in enumerate(plan.devices):
        closed = cluster.close_stream(device.tenant, device.stream)
        for s in range(len(device.subscriptions)):
            sub_id = sub_ids.get((d, s))
            if sub_id in closed:
                logs[(d, s)] = closed[sub_id]
    return logs


def run_pass(name: str, seed: int, seconds: float, traced: bool,
             work_dir: Path) -> Dict[str, object]:
    """Run one pass of workload ``name``; its full result record."""
    workload: Workload = WORKLOADS[name]
    plan = workload.build(seed, seconds)
    tracer = Tracer() if traced else None
    installed = Installed(tracer) if traced else None
    try:
        return _run(workload, plan, seed, seconds, tracer, work_dir)
    finally:
        if installed is not None:
            installed.remove()
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload: Workload, plan, seed: int, seconds: float,
         tracer: Optional[Tracer], work_dir: Path) -> Dict[str, object]:
    driver_cls = FleetDriver if workload.kind == "fleet" else StreamDriver
    speed = HostSpeed()
    #: (wall seconds, (start, end)) per attempt.
    setups: List[Tuple[float, Tuple[float, float]]] = []
    for attempt in range(SETUP_REPEATS):
        driver = driver_cls(plan, tracer, work_dir / f"journal-{attempt}",
                            speed)
        _, wall_s, span = speed.bracketed(driver.setup)
        setups.append((wall_s, span))
        if attempt + 1 < SETUP_REPEATS:
            driver.cluster.shutdown()
            del driver
            # Free the discarded shard now, not at some collection
            # inside a timed phase.
            gc.collect()
    before = counters(driver.cluster, driver.context)
    gc.collect()
    driver.measure(workload.sizing.blocks)
    after = counters(driver.cluster, driver.context)
    shapes = shape_tiers(driver.context)
    driver.finish()
    # Before the recoveries, so the peak is the set-ups' and the run's.
    rss = peak_rss_mb()

    journal = shard_journal_path(driver.journal_dir, 0)
    journal_bytes = os.path.getsize(journal)
    recoveries: List[Tuple[float, Tuple[float, float]]] = []
    recovered = None
    traces = plan.traces if workload.kind == "fleet" else {}
    for attempt in range(RECOVER_REPEATS):
        if recovered is not None:
            recovered.shutdown()
            recovered = None
        # Recovery runs in a fresh process in production; freezing the
        # pass's own heap keeps collections during it from walking
        # objects a fresh process would not hold.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.phase = "recover"
            tracer.request = ("recover", attempt)
        (recovered, by_shard), wall_s, span = speed.bracketed(
            lambda: ShardCluster.recover(
                driver.journal_dir, traces, shards=1, jobs=1,
                context_factory=Contexts(driver.contexts.cost_table),
            ))
        recoveries.append((wall_s, span))
        if tracer is not None:
            tracer.phase = None
    gc.unfreeze()
    recovery_stats = by_shard[0]

    if workload.kind == "fleet":
        checks = verify_fleet(driver, workload, plan, seed, recovery_stats)
    else:
        checks = verify_stream(driver, workload, plan, seed, recovered)
    recovered.shutdown()

    tail_q = tail_percentile(min(window_arrivals(workload, plan)))
    # Host factor of each stretch: how much slower than the reference
    # host the reference job ran around it (hostspeed.py).
    open_f = [speed.factor(*span) for span in driver.open_spans]
    saturated_f = [speed.factor(*span) for span in driver.saturated_spans]
    setup_times = [(wall_s, wall_s / speed.factor(*span))
                   for wall_s, span in setups]
    recover_times = [(wall_s, wall_s / speed.factor(*span))
                     for wall_s, span in recoveries]
    p50s = [percentile(part, 50) for part in driver.latencies]
    tails = [percentile(part, tail_q) for part in driver.latencies]
    answered = sum(len(part) for part in driver.latencies)
    done = sum(checks["saturated_ok"])
    wall = {
        "setup_s": median(wall_s for wall_s, _ in setup_times),
        "goodput_per_s": done / sum(driver.saturated_s),
        "latency_p50_ms": median(p50s) * 1e3,
        "latency_tail_ms": median(tails) * 1e3,
        "recover_s": mean(wall_s for wall_s, _ in recover_times),
    }
    e2e = {
        "setup_s": (median(scaled for _, scaled in setup_times), "s",
                    len(setup_times)),
        "goodput_per_s": (
            done / sum(s / f for s, f in zip(driver.saturated_s,
                                            saturated_f)),
            "ops/s", done),
        "latency_p50_ms": (
            median(p / f for p, f in zip(p50s, open_f)) * 1e3,
            "ms", answered),
        "latency_tail_ms": (
            median(t / f for t, f in zip(tails, open_f)) * 1e3,
            "ms", answered),
        "peak_rss_mb": (rss, "MB", 1),
        "recover_s": (mean(scaled for _, scaled in recover_times), "s",
                      len(recover_times)),
    }
    errors = checks["errors"]
    error_count = sum(errors.values())
    result: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": tracer is not None,
        "e2e": {key: {"value": value, "unit": unit, "samples": samples}
                for key, (value, unit, samples) in e2e.items()},
        "error_rate": ratio(error_count, checks["attempted"]),
        "tail_percentile": tail_q,
        "blocks": len(driver.saturated_s),
        "attempted": checks["attempted"],
        "failed": error_count,
        "errors": errors,
        "correct": error_count == 0 and checks["setup_ok"],
        "checks": {key: checks[key] for key in
                   ("oracle_checked", "oracle_distinct", "recovered")},
        "path": path_record(before, after, shapes),
        "wall": wall,
        "block_factors": {"open": open_f, "saturated": saturated_f},
        "host_factor": median(speed.seconds) / REFERENCE_S,
        "host_samples": len(speed.seconds),
        "setup_times": setup_times,
        "recover_times": recover_times,
        "journal_bytes": journal_bytes,
        "journal_records": recovery_stats.records,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, driver, before, after, journal_bytes,
            recovery_stats.records,
        )
        result["anomaly"] = anomaly_readout(tracer, driver)
        result["tracer"] = tracer
    return result


def window_arrivals(workload: Workload, plan) -> List[int]:
    """Arrivals in each block's open-loop window — fixed by the
    workload, so the tail percentile they support is too."""
    blocks = workload.sizing.blocks
    if workload.kind == "fleet":
        return [hi - lo for lo, hi in
                (share(len(plan.open_ops), b, blocks) for b in range(blocks))]
    return [sum(count for _, _, count in window)
            for window in plan.deliveries]


def share(total: int, block: int, blocks: int) -> Tuple[int, int]:
    """The ``[lo, hi)`` index range of ``block`` when ``total`` items
    split into ``blocks`` nearly equal consecutive parts."""
    return total * block // blocks, total * (block + 1) // blocks


def verify_fleet(driver: FleetDriver, workload: Workload, plan: FleetPlan,
                 seed: int, recovery_stats) -> Dict[str, object]:
    fleet = oracle.check_fleet(driver.requests, driver.answers,
                               driver.payloads, plan.traces,
                               workload.oracle_budget, seed)
    bad = fleet["wrong"] | fleet["failed_valid"]
    measured = [i for i, phase in enumerate(driver.phases)
                if phase in MEASURED]
    refused = set(driver.refused)
    mismatched = oracle.check_recovered(
        driver.requests, driver.answers, driver.payloads,
        tuple(recovery_stats.replayed) + tuple(recovery_stats.reexecuted),
    )
    setup = [i for i, phase in enumerate(driver.phases) if phase == "setup"]
    return {
        "attempted": len(measured),
        "saturated_ok": [
            sum(1 for i, b in driver.block_of.items()
                if b == block and i in driver.answers and i not in bad)
            for block in range(len(driver.saturated_s))],
        "errors": {
            "refused": sum(1 for i in measured if i in refused),
            "failed_valid": sum(
                1 for i in measured if i in fleet["failed_valid"]),
            "wrong": sum(1 for i in measured if i in fleet["wrong"]),
            "unanswered": sum(1 for i in measured
                              if i not in driver.answers
                              and i not in refused),
            "recovery_mismatch": len(mismatched),
        },
        "setup_ok": not any(i in bad or i in refused
                            or i not in driver.answers for i in setup),
        "oracle_checked": fleet["checked"],
        "oracle_distinct": fleet["distinct"],
        "recovered": len(driver.answers) - len(mismatched),
    }


def verify_stream(driver: StreamDriver, workload: Workload,
                  plan: StreamPlan, seed: int,
                  recovered: ShardCluster) -> Dict[str, object]:
    streams = oracle.check_streams(
        plan.devices, driver.logs, driver.next_seq, plan.per_chunk,
        plan.rate_hz, workload.oracle_budget, seed,
    )
    rebuilt = close_all(recovered, plan, driver.sub_ids)
    mismatched = [key for key, log in driver.logs.items()
                  if key not in rebuilt
                  or not oracle.same_bytes(log, rebuilt[key])]
    measured = [(phase, ok) for phase, ok in driver.pushes
                if phase in MEASURED]
    # A wrong or missing log spoils every chunk its device pushed, and
    # the saturated phase's goodput with it.
    wrong_devices = set(streams["wrong"]) | {d for d, _ in mismatched}
    pushed = [seq - plan.warmup_chunks for seq in driver.next_seq]
    return {
        "attempted": len(measured),
        "saturated_ok": ([0] * len(driver.advanced) if wrong_devices
                         else driver.advanced),
        "errors": {
            "refused": sum(1 for _, ok in measured if not ok),
            "failed_valid": 0,
            "wrong": sum(pushed[d] for d in wrong_devices),
            "unanswered": 0,
            "recovery_mismatch": len(mismatched),
        },
        "setup_ok": driver.setup_errors == 0,
        "oracle_checked": streams["checked"],
        "oracle_distinct": streams["distinct"],
        "recovered": len(driver.logs) - len(mismatched),
    }


def path_record(before: Dict[str, float], after: Dict[str, float],
                shapes: str) -> Dict[str, object]:
    """The measured phases' tier mix: hub executions per tier plus the
    stacked dispatches and cells from ``metrics()``."""
    delta = {key: after[key] - before[key] for key in after}
    runs = {tier: delta[f"tier.{tier}"] for tier in TIERS}
    # A path counts in the mix when it carries at least MIX_SHARE of the
    # rows executed, so run-to-run jitter in small counts does not flip
    # the label.
    rows = sum(runs.values()) + delta["shape_cells"] + delta["batched_cells"]
    mix = [tier for tier in TIERS if runs[tier] >= MIX_SHARE * rows > 0]
    if delta["shape_cells"] >= MIX_SHARE * rows > 0:
        mix.append("shape")
    if delta["batched_cells"] >= MIX_SHARE * rows > 0:
        mix.append("batch")
    if delta["stream_rounds"]:
        mix.append("stream")
    if not mix:
        mix.append("memo")
    return {
        "mix": "+".join(mix) + (f" shapes={shapes}" if shapes else ""),
        "tier_runs": runs,
        "batch_rounds": delta["batch_rounds"],
        "batched_cells": delta["batched_cells"],
        "shape_rounds": delta["shape_rounds"],
        "shape_cells": delta["shape_cells"],
        "stream_rounds": delta["stream_rounds"],
        "stream_cells": delta["stream_cells"],
    }


def layer_metrics(tracer: Tracer, driver: Driver, before, after,
                  journal_bytes: int, journal_records: int) -> Dict[str, float]:
    """Every per-layer metric of a traced pass (see README.md)."""
    totals = tracer.layer_totals(MEASURED)
    closing = tracer.layer_totals(("close",))
    recovery = tracer.layer_totals(("recover",))
    delta = {key: after[key] - before[key] for key in after}

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def self_s(name: str, source=totals) -> float:
        return float(source.get(name, {}).get("self_s", 0.0))

    waits = getattr(driver, "waits", [])
    batches = [n for phase, _, _, n in driver.pumps
               if phase in MEASURED and n]
    saturated = [end - start for phase, start, end, _ in driver.pumps
                 if phase == "saturated"]
    quarter = max(1, len(saturated) // 4)
    refused = [i for i in getattr(driver, "refused", [])
               if driver.phases[i] in MEASURED]
    read_s = recovery.get("serve.recover.read", {}).get("total_s", 0.0)
    recover_total = recovery.get("serve.recover", {}).get("total_s", 0.0)
    repeats = max(1, recovery.get("serve.recover", {}).get("calls", 1))
    return {
        "serve.submit.calls": calls("serve.submit"),
        "serve.submit.self_s": self_s("serve.submit"),
        "serve.submit.refused": len(refused),
        "serve.queue.wait_p50_ms": (
            percentile(waits, 50) * 1e3 if waits else 0.0),
        "serve.queue.wait_p99_ms": (
            percentile(waits, 99) * 1e3 if waits else 0.0),
        "serve.pump.batch_mean": ratio(sum(batches), len(batches)),
        "serve.pump.calls": calls("serve.pump"),
        "serve.pump.self_s": self_s("serve.pump"),
        "serve.pump.q1_mean_ms": (
            sum(saturated[:quarter]) / quarter * 1e3 if saturated else 0.0),
        "serve.pump.q4_mean_ms": (
            sum(saturated[-quarter:]) / quarter * 1e3 if saturated else 0.0),
        "serve.scheduler.self_s": self_s("serve.scheduler"),
        "serve.scheduler.dedup_hit_rate": ratio(
            delta["dedup_hits"], delta["completed"]),
        "serve.scheduler.engine_runs": delta["engine_runs"],
        "serve.scheduler.failed": delta["failed"],
        "api.validate.calls": calls("api.validate"),
        "api.validate.self_s": self_s("api.validate"),
        "sim.engine.wake_events_batch.self_s": self_s(
            "sim.engine.wake_events_batch"),
        "sim.engine.wake_events.self_s": self_s("sim.engine.wake_events"),
        "sim.engine.execute_plan.self_s": self_s("sim.engine.execute_plan"),
        "sim.engine.hub_hit_rate": ratio(
            delta["hub_hits"], delta["hub_hits"] + delta["hub_misses"]),
        "sim.engine.cached_conditions": after["hub_misses"],
        "hub.compile.execute.calls": calls("hub.compile.execute"),
        "hub.compile.execute.self_s": self_s("hub.compile.execute"),
        "hub.compile.execute_batch.calls": calls("hub.compile.execute_batch"),
        "hub.compile.execute_batch.self_s": self_s(
            "hub.compile.execute_batch"),
        "hub.compile.execute_shape_batch.calls": calls(
            "hub.compile.execute_shape_batch"),
        "hub.compile.execute_shape_batch.self_s": self_s(
            "hub.compile.execute_shape_batch"),
        "hub.compile.occupancy": ratio(
            delta["batched_cells"] + delta["shape_cells"],
            delta["batch_rounds"] + delta["shape_rounds"]),
        "hub.compile.padding_ratio": ratio(
            delta["batch_padded_cells"], delta["batch_valid_cells"]),
        "hub.runtime.run.calls": calls("hub.runtime.run"),
        "hub.runtime.run.self_s": self_s("hub.runtime.run"),
        "hub.runtime.run_fused.calls": calls("hub.runtime.run_fused"),
        "hub.runtime.run_fused.self_s": self_s("hub.runtime.run_fused"),
        "hub.costmodel.choice.compiled": choices(tracer, "compiled"),
        "hub.costmodel.choice.fused": choices(tracer, "fused"),
        "hub.costmodel.choice.rounds": choices(tracer, "rounds"),
        "serve.journal.append.self_s": self_s("serve.journal.append"),
        "serve.journal.flush.calls": calls("serve.journal.flush"),
        "serve.journal.flush.self_s": self_s("serve.journal.flush"),
        "serve.journal.records": journal_records,
        "serve.journal.bytes": journal_bytes,
        "serve.store.self_s": self_s("serve.store"),
        "serve.ingest.push.calls": calls("serve.ingest.push"),
        "serve.ingest.push.self_s": self_s("serve.ingest.push"),
        "serve.ingest.advance.self_s": self_s("serve.ingest.advance"),
        "serve.ingest.close.self_s": self_s("serve.ingest.close", closing),
        "serve.ingest.backlog_max": driver.backlog_max,
        "serve.ingest.lag_max_s": driver.lag_max_s,
        "hub.incremental.rows.self_s": self_s("hub.incremental.rows"),
        "hub.incremental.occupancy": ratio(
            delta["stream_cells"], delta["stream_rounds"]),
        "hub.incremental.replay.self_s": self_s("hub.incremental.replay"),
        "traces.stream.spans_since.self_s": self_s(
            "traces.stream.spans_since"),
        "serve.recover.read_s": read_s / repeats,
        "serve.recover.rebuild_s": (recover_total - read_s) / repeats,
        "loadgen.lateness_p99_ms": (
            percentile(driver.lateness, 99) * 1e3
            if driver.lateness else 0.0),
    }


def choices(tracer: Tracer, tier: str) -> int:
    """Cost-model choices of ``tier`` during the measured phases."""
    return int(tracer.counts.get(f"hub.costmodel.choice.{tier}", 0))


#: Layers whose per-round self time the anomaly readout splits by
#: quarter of the saturated phase.
ANOMALY_LAYERS = (
    "serve.pump", "serve.ingest.advance", "hub.incremental.rows",
    "traces.stream.spans_since", "hub.incremental.replay",
    "serve.ingest.push", "serve.journal.append", "serve.journal.flush",
    "hub.runtime.run", "hub.compile.execute",
    "hub.compile.execute_shape_batch", "serve.scheduler",
)


def anomaly_readout(tracer: Tracer, driver: Driver) -> Dict[str, object]:
    """Per-round self milliseconds of the layers in ``ANOMALY_LAYERS``,
    by quarter of the saturated phase's rounds (how cost grows with
    history), plus the whole measured phases' totals."""
    pumps = [(start, end) for phase, start, end, _ in driver.pumps
             if phase == "saturated"]
    if not pumps:
        return {}
    quarter = max(1, len(pumps) // 4)
    bounds = [pumps[q * quarter][0] for q in range(1, 4)
              if q * quarter < len(pumps)]
    per_quarter = [dict.fromkeys(ANOMALY_LAYERS, 0.0) for _ in range(4)]
    rounds = [0] * 4
    for index in range(len(pumps)):
        rounds[min(3, index // quarter)] += 1
    own = tracer.self_times()
    for record, self_s in zip(tracer.spans, own):
        if record[5] != "saturated" or record[0] not in per_quarter[0]:
            continue
        per_quarter[bisect_right(bounds, record[1])][record[0]] += self_s
    return {
        "rounds_per_quarter": rounds,
        "self_ms_per_round": [
            {name: 1e3 * value / max(1, rounds[q])
             for name, value in per_quarter[q].items()}
            for q in range(4)
        ],
    }
