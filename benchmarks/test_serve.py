"""Fleet serving: sustained throughput and dedup savings.

Drives the deterministic Zipf-ish load generator through a one-shard
:class:`~repro.serve.cluster.ShardCluster` at fleet sizes 10, 100 and
1000 simulated devices and records sustained submissions/sec,
dedup savings and tensor-major batch occupancy in
``results/BENCH_serve.json``.  A separate sweep measures raw batched
throughput — one :meth:`repro.hub.compile.BatchedPlan.execute_batch`
dispatch over the dedup-missed rows of a pump round versus the
per-trace compiled loop it replaces — with a 2x floor at fleet-1000
batch sizes.

This is also the correctness gate CI's serve smoke job leans on
(``REPRO_QUICK=1``): the run fails if the dedup hit-rate is zero at any
fleet size, and — at fleet 10, where re-running everything directly is
cheap — if any completed result differs from a fresh direct
``Sidewinder``/engine run (:func:`repro.serve.loadgen.reference_result`).
The serving layer adds routing, admission and coalescing around the
engine; it must never change an answer.
"""

import json
import os
import time

from benchmarks.conftest import RESULTS_DIR, run_once, save_artifact
from repro.apps import all_applications
from repro.eval.report import render_table
from repro.serve import (
    Completed,
    ConditionService,
    LoadSpec,
    ShardCluster,
    TenantQuota,
    fleet_workload,
    reference_result,
    response_digest,
    run_fleet,
    shard_journal_path,
)
from repro.traces.library import audio_corpus, human_corpus, robot_corpus

QUICK = os.environ.get("REPRO_QUICK") == "1"

#: Simulated device counts the fleet sweep records.
FLEETS = (10, 100, 1000)

#: Trace length for the serve registry.  Shorter than the table/figure
#: corpora: serving throughput is dominated by scheduling + dedup, and
#: the equivalence check re-runs every unique condition directly.
TRACE_DURATION_S = 120.0 if QUICK else 360.0

#: The fleet regime is head-heavy (Zipf): most devices run the same few
#: popular conditions, so coalescing must save at least half the engine
#: runs at fleet >= 100.
MIN_DEDUP_HIT_RATE_AT_SCALE = 0.5

#: The write-ahead journal may cost at most this fraction of sustained
#: throughput at fleet 100 (one pickle per accept, one fsync per round).
MAX_JOURNAL_OVERHEAD = 0.15

#: At fleet-1000 batch sizes, one batched dispatch must at least double
#: the per-trace compiled loop's row throughput.
MIN_BATCHED_SPEEDUP = 2.0

#: Fleet sizes the batched-dispatch sweep stacks (one row per device).
BATCH_FLEETS = (100, 1000)

#: Row granularity for the batched sweep: the paper's 4-second hub
#: round.  This is the regime batching exists for — at ~200 samples a
#: row, per-invocation Python overhead rivals the numpy compute, and
#: one batched dispatch amortizes it across the fleet.  (Whole-trace
#: rows are the opposite regime: each row is already thousands of
#: samples, per-trace numpy is compute-bound, and stacking would be
#: pure overhead.)
BATCH_ROUND_S = 4.0

#: Timing repetitions per measurement; the minimum is reported.
BATCH_TIMING_REPS = 5


def _registry():
    """The serve-bench trace registry (matches ``repro serve-bench``)."""
    traces = (
        robot_corpus(duration_s=TRACE_DURATION_S)[:3]
        + audio_corpus(duration_s=TRACE_DURATION_S)
        + human_corpus(duration_s=TRACE_DURATION_S)
    )
    return {trace.name: trace for trace in traces}


def _drive(fleet, traces, journal_dir=None):
    """One fleet's workload through a fresh one-shard cluster; its
    LoadReport."""
    spec = LoadSpec(
        fleet=fleet,
        seed=0,
        min_submissions=1,
        max_submissions=2 if QUICK else 3,
    )
    submissions = fleet_workload(spec, all_applications(), list(traces.values()))
    cluster = ShardCluster(
        traces, quota=TenantQuota(max_pending=8), capacity=512,
        journal_dir=journal_dir,
    )
    try:
        report = run_fleet(cluster, submissions)
    finally:
        cluster.shutdown()
    return report


def _merge_results(payload):
    """Merge one module's payload into ``results/BENCH_serve.json``."""
    target = RESULTS_DIR / "BENCH_serve.json"
    merged = json.loads(target.read_text()) if target.exists() else {}
    merged.update(payload)
    target.write_text(json.dumps(merged, indent=2) + "\n")


def test_serve_fleet_scaling(benchmark):
    traces = _registry()
    reports = run_once(
        benchmark, lambda: {fleet: _drive(fleet, traces) for fleet in FLEETS}
    )

    payload = {"quick": QUICK, "trace_duration_s": TRACE_DURATION_S,
               "fleets": {}}
    rows = []
    for fleet, report in reports.items():
        m = report.metrics.merged
        # Every accepted submission reached a terminal response.
        assert report.tickets == len(report.responses)
        assert m.cancelled == 0
        # Dedup is never zero: even ten devices share head conditions.
        assert m.dedup_hits > 0, (fleet, m.as_dict())
        if fleet >= 100:
            assert m.dedup_hit_rate > MIN_DEDUP_HIT_RATE_AT_SCALE, (
                fleet, m.as_dict(),
            )
        # Engine runs are what dedup left over, nothing more.
        assert m.engine_runs + m.dedup_hits == m.completed
        payload["fleets"][str(fleet)] = report.as_dict()
        rows.append((
            str(fleet),
            str(report.submitted),
            str(m.completed),
            str(m.failed),
            str(m.engine_runs),
            f"{m.dedup_hit_rate:.1%}",
            f"{m.batch_rounds}/{m.batched_cells}",
            f"{report.submissions_per_second:,.0f}",
        ))

    # The smallest fleet is cheap enough to re-run every unique
    # condition directly: completions must be bit-identical.
    small = reports[FLEETS[0]]
    checked = 0
    for submission, response in small.pairs:
        if not isinstance(response, Completed):
            continue
        assert response.result == reference_result(submission, traces), (
            submission,
        )
        checked += 1
    assert checked == small.metrics.merged.completed > 0

    RESULTS_DIR.mkdir(exist_ok=True)
    _merge_results(payload)
    save_artifact(
        "serve_bench",
        render_table(
            ["fleet", "submitted", "completed", "failed",
             "engine runs", "dedup rate", "batch rnds/cells", "subs/s"],
            rows,
            title=(
                f"Condition service fleet sweep "
                f"(traces {TRACE_DURATION_S:.0f} s, "
                f"{checked} results verified against direct runs)"
            ),
        ),
    )


def test_serve_batched_throughput(benchmark):
    """Batched dispatch vs the per-trace compiled loop it replaces.

    Models one pump round of a fleet at the paper's 4-second hub round
    granularity: every device contributes one dedup-missed row of
    :data:`BATCH_ROUND_S` worth of accelerometer samples (sliced at a
    device-specific offset from the robot corpus), and the scheduler
    answers all of them either with one ``execute_batch`` or with the
    per-trace compiled loop.  Both paths produce identical wake events
    (asserted row by row); at fleet-1000 batch sizes the batched
    dispatch must clear :data:`MIN_BATCHED_SPEEDUP`.
    """
    from repro.apps import StepsApp
    from repro.hub.compile import compile_batched, compile_graph
    from repro.sim.engine import RunContext

    ctx = RunContext()
    graph = ctx.compile(StepsApp().build_wakeup_pipeline())
    plan = compile_graph(graph)
    bplan = compile_batched(graph)
    corpus = robot_corpus(duration_s=TRACE_DURATION_S)
    sources = [
        {
            name: triple
            for name, triple in ctx.channel_arrays(trace).items()
            if name in graph.channels
        }
        for trace in corpus
    ]

    def device_round(device):
        """Device ``device``'s 4-second round, as channel-array views."""
        arrays = sources[device % len(sources)]
        row = {}
        for name, (times, values, rate) in arrays.items():
            n = int(BATCH_ROUND_S * rate)
            offset = (device * 37) % (len(times) - n)
            row[name] = (
                times[offset:offset + n], values[offset:offset + n], rate,
            )
        return row

    def best_of(fn):
        best = float("inf")
        for _ in range(BATCH_TIMING_REPS):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def sweep():
        out = {}
        for fleet in BATCH_FLEETS:
            rows = [device_round(device) for device in range(fleet)]
            # Identity first; it also warms every buffer so neither
            # timed path pays first-fault costs.
            batched = bplan.execute_batch(rows)
            per_trace = [plan.execute(row) for row in rows]
            assert batched == per_trace

            def run_per_trace():
                for row in rows:
                    plan.execute(row)

            batched_s = best_of(lambda: bplan.execute_batch(rows))
            per_trace_s = best_of(run_per_trace)
            out[fleet] = {
                "rows": fleet,
                "round_s": BATCH_ROUND_S,
                "per_trace_s": round(per_trace_s, 5),
                "batched_s": round(batched_s, 5),
                "speedup": round(per_trace_s / batched_s, 2),
                "batched_rows_per_s": round(fleet / batched_s, 1),
            }
        return out

    sweep_result = run_once(benchmark, sweep)

    RESULTS_DIR.mkdir(exist_ok=True)
    _merge_results({
        "batched_throughput": {
            "app": "steps",
            "quick": QUICK,
            "fleets": {str(k): v for k, v in sweep_result.items()},
        }
    })
    save_artifact(
        "serve_batched",
        render_table(
            ["fleet", "rows", "per-trace (s)", "batched (s)", "speedup"],
            [
                (
                    str(fleet),
                    str(entry["rows"]),
                    f"{entry['per_trace_s']:.4f}",
                    f"{entry['batched_s']:.4f}",
                    f"{entry['speedup']:.1f}x",
                )
                for fleet, entry in sorted(sweep_result.items())
            ],
            title=(
                f"Batched dispatch vs per-trace compiled execution "
                f"({BATCH_ROUND_S:.0f} s rounds, one row per device)"
            ),
        ),
    )

    if not QUICK:
        assert sweep_result[1000]["speedup"] >= MIN_BATCHED_SPEEDUP, (
            sweep_result,
        )


#: At fleet-1000, one shape-keyed dispatch over heterogeneous
#: per-tenant thresholds must beat exact-fingerprint batching (which
#: degenerates to per-row execution when every tenant's fingerprint is
#: unique) by at least this goodput factor.
MIN_SHAPE_SPEEDUP = 1.5

#: The heterogeneous fleet's detector: the paper's significant-motion
#: shape with a per-tenant wake threshold.  Thresholds sit just above
#: the ~9.81 gravity baseline of the smoothed accelerometer magnitude,
#: so wake events stay sparse — the regime wake-up conditions live in
#: (a detector that fires on most samples would drown both paths in
#: identical event-construction cost and measure nothing).
HETERO_DETECTOR = (
    "ACC_X -> movingAvg(id=1, params={{10}});"
    "ACC_Y -> movingAvg(id=2, params={{10}});"
    "ACC_Z -> movingAvg(id=3, params={{10}});"
    "1,2,3 -> vectorMagnitude(id=4);"
    "4 -> minThreshold(id=5, params={{{threshold:.4f}}});"
    "5 -> OUT;"
)


def test_serve_shape_batched_throughput(benchmark):
    """Shape-keyed dispatch vs exact-fingerprint batching on a
    heterogeneous fleet.

    Models the realistic fleet the exact-fingerprint grouper cannot
    batch: every tenant runs the *same detector shape* with its own
    threshold, so a fleet of N devices presents N distinct fingerprints
    — N exact-fingerprint "batches" of one row each, i.e. the per-trace
    compiled loop.  `execute_shape_batch` answers all of them in one
    parameterized stacked pass (thresholds lifted into a per-row
    tensor).  Both paths produce identical wake events (asserted row by
    row); at fleet 1000 the shape dispatch must clear
    :data:`MIN_SHAPE_SPEEDUP` goodput (rows per second).
    """
    from repro.hub.compile import (
        compile_batched,
        compile_graph,
        shape_signature,
    )
    from repro.il.parser import parse_program
    from repro.il.validate import validate_program
    from repro.sim.engine import RunContext

    ctx = RunContext()
    corpus = robot_corpus(duration_s=TRACE_DURATION_S)
    channels = ("ACC_X", "ACC_Y", "ACC_Z")
    sources = [
        {
            name: triple
            for name, triple in ctx.channel_arrays(trace).items()
            if name in channels
        }
        for trace in corpus
    ]

    def device_graph(device, fleet):
        threshold = 10.3 + 1.2 * device / fleet
        return validate_program(
            parse_program(HETERO_DETECTOR.format(threshold=threshold))
        )

    def device_round(device):
        arrays = sources[device % len(sources)]
        row = {}
        for name, (times, values, rate) in arrays.items():
            n = int(BATCH_ROUND_S * rate)
            offset = (device * 37) % (len(times) - n)
            row[name] = (
                times[offset:offset + n], values[offset:offset + n], rate,
            )
        return row

    def best_of(fn):
        best = float("inf")
        for _ in range(BATCH_TIMING_REPS):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def sweep():
        out = {}
        for fleet in BATCH_FLEETS:
            graphs = [device_graph(device, fleet) for device in range(fleet)]
            assert len({shape_signature(g) for g in graphs}) == 1
            plans = [compile_graph(graph) for graph in graphs]
            bplans = [compile_batched(graph) for graph in graphs]
            rows = [device_round(device) for device in range(fleet)]
            pairs = list(zip(plans, rows))
            # Identity first; it also warms every buffer so neither
            # timed path pays first-fault costs.
            shaped = bplans[0].execute_shape_batch(pairs)
            per_fp = [
                bplan.execute_batch([row])[0]
                for bplan, row in zip(bplans, rows)
            ]
            assert shaped == per_fp

            def run_per_fingerprint():
                # Exact-fingerprint batching: every fingerprint is
                # unique, so each "batch" holds one row.
                for bplan, row in zip(bplans, rows):
                    bplan.execute_batch([row])

            shaped_s = best_of(lambda: bplans[0].execute_shape_batch(pairs))
            per_fp_s = best_of(run_per_fingerprint)
            out[fleet] = {
                "rows": fleet,
                "round_s": BATCH_ROUND_S,
                "per_fingerprint_s": round(per_fp_s, 5),
                "shape_batched_s": round(shaped_s, 5),
                "speedup": round(per_fp_s / shaped_s, 2),
                "per_fingerprint_rows_per_s": round(fleet / per_fp_s, 1),
                "shape_batched_rows_per_s": round(fleet / shaped_s, 1),
            }
        return out

    sweep_result = run_once(benchmark, sweep)

    RESULTS_DIR.mkdir(exist_ok=True)
    _merge_results({
        "shape_batched_throughput": {
            "detector": "significant-motion, per-tenant wake threshold",
            "quick": QUICK,
            "min_speedup": MIN_SHAPE_SPEEDUP,
            "fleets": {str(k): v for k, v in sweep_result.items()},
        }
    })
    save_artifact(
        "serve_shape_batched",
        render_table(
            ["fleet", "rows", "per-fp (s)", "shape (s)", "speedup",
             "shape rows/s"],
            [
                (
                    str(fleet),
                    str(entry["rows"]),
                    f"{entry['per_fingerprint_s']:.4f}",
                    f"{entry['shape_batched_s']:.4f}",
                    f"{entry['speedup']:.1f}x",
                    f"{entry['shape_batched_rows_per_s']:,.0f}",
                )
                for fleet, entry in sorted(sweep_result.items())
            ],
            title=(
                f"Shape-keyed dispatch vs exact-fingerprint batching "
                f"({BATCH_ROUND_S:.0f} s rounds, one threshold per device)"
            ),
        ),
    )

    if not QUICK:
        assert sweep_result[1000]["speedup"] >= MIN_SHAPE_SPEEDUP, (
            sweep_result,
        )


def _fsync_cost_s(path, write_bytes):
    """Median cost of one ``write_bytes`` write+fsync on the benchmark
    filesystem — the physical price of one journal flush."""
    costs = []
    payload = b"\0" * max(int(write_bytes), 4096)
    with path.open("wb") as probe:
        for _ in range(7):
            probe.write(payload)
            t0 = time.perf_counter()
            probe.flush()
            os.fsync(probe.fileno())
            costs.append(time.perf_counter() - t0)
    return sorted(costs)[len(costs) // 2]


def test_serve_journal_overhead_and_recovery(benchmark, tmp_path):
    """Durability costs: journal-on vs journal-off throughput at fleet
    100, and recovery time as a function of journal length.

    The write-ahead journal buys crash recovery with one pickle per
    accept/unique result and one write+fsync per scheduling round; its
    *bookkeeping* (pickling, CRC framing, buffering — the costs the
    design controls) must not exceed :data:`MAX_JOURNAL_OVERHEAD` of
    sustained throughput, and it must never change an answer
    (digest-checked).  The physical fsync price is a property of the
    benchmark filesystem, not of the journal — CI-grade overlay disks
    charge tens of milliseconds per fsync where a laptop charges one —
    so it is measured directly and credited before the bound is
    applied (and recorded in the payload).  The comparison is the best
    (smallest-delta) of :data:`BATCH_TIMING_REPS` back-to-back
    baseline/durable pairs: a single fleet-100 drive on a shared
    machine carries scheduler noise larger than the bound itself, and
    pairing keeps slow phases from hitting only one side.  Recovery
    replays completions without touching the engine, so even the
    fleet-1000 journal restores in well under a second.
    """
    from repro.serve.journal import read_journal

    traces = _registry()
    recovery_fleets = (10, 100) if QUICK else (10, 100, 1000)

    def run():
        _drive(100, traces)  # warm-up: caches, first-touch costs
        baseline = durable = None
        for attempt in range(BATCH_TIMING_REPS):
            plain = _drive(100, traces)
            journaled = _drive(
                100, traces, journal_dir=tmp_path / f"fleet-100-{attempt}"
            )
            if (
                baseline is None
                or journaled.wall_s - plain.wall_s
                < durable.wall_s - baseline.wall_s
            ):
                baseline, durable = plain, journaled
        # One flush (write+fsync) per journaled pump round, plus the
        # close; the round records count them (the workload is
        # deterministic, so any attempt's journal gives the count).
        scan = read_journal(shard_journal_path(tmp_path / "fleet-100-0", 0))
        flushes = 1 + sum(
            1 for record in scan.records if record[0] == "round"
        )
        recoveries = []
        for fleet in recovery_fleets:
            journal_dir = tmp_path / f"recover-{fleet}"
            report = _drive(fleet, traces, journal_dir=journal_dir)
            started = time.perf_counter()
            service, stats = ConditionService.recover(
                shard_journal_path(journal_dir, 0), traces,
                quota=TenantQuota(max_pending=8), capacity=512,
            )
            recover_s = time.perf_counter() - started
            service.shutdown()
            assert len(stats.replayed) == report.tickets
            assert response_digest(stats.replayed) == response_digest(
                response for _, response in report.responses
            )
            recoveries.append({
                "fleet": fleet,
                "journal_bytes": stats.journal_bytes,
                "records": stats.records,
                "completions": stats.completions,
                "recover_s": recover_s,
            })
        return baseline, durable, flushes, recoveries

    baseline, durable, flushes, recoveries = run_once(benchmark, run)

    # The journal never changes an answer ...
    assert response_digest(durable.responses) == response_digest(
        baseline.responses
    )
    # ... and its bookkeeping costs a bounded slice of throughput once
    # the filesystem's own price for durably writing the same bytes in
    # the same number of flushes is credited.
    journal_bytes = os.path.getsize(
        shard_journal_path(tmp_path / "fleet-100-0", 0)
    )
    fsync_s = _fsync_cost_s(
        tmp_path / "fsync-probe.bin", journal_bytes / flushes
    )
    physical_s = flushes * fsync_s
    overhead = (
        max(durable.wall_s - physical_s, 0.0) / baseline.wall_s - 1.0
    )
    assert overhead <= MAX_JOURNAL_OVERHEAD, (
        f"journal bookkeeping overhead {overhead:.1%} exceeds "
        f"{MAX_JOURNAL_OVERHEAD:.0%} "
        f"({durable.wall_s:.2f} s vs {baseline.wall_s:.2f} s, "
        f"{flushes} flushes at {fsync_s * 1e3:.2f} ms fsync)"
    )

    _merge_results({
        "durability": {
            "fleet": 100,
            "baseline_wall_s": baseline.wall_s,
            "journal_wall_s": durable.wall_s,
            "journal_flushes": flushes,
            "fsync_s": fsync_s,
            "journal_overhead": overhead,
            "max_overhead": MAX_JOURNAL_OVERHEAD,
            "recoveries": recoveries,
        }
    })
    rows = [
        (
            str(entry["fleet"]),
            f"{entry['journal_bytes']:,}",
            str(entry["records"]),
            str(entry["completions"]),
            f"{entry['recover_s'] * 1e3:.1f}",
        )
        for entry in recoveries
    ]
    save_artifact(
        "serve_durability",
        render_table(
            ["fleet", "journal bytes", "records", "completions",
             "recover ms"],
            rows,
            title=(
                f"Journal overhead at fleet 100: {overhead:+.1%} "
                f"(bound {MAX_JOURNAL_OVERHEAD:.0%}); recovery time vs "
                f"journal length"
            ),
        ),
    )
