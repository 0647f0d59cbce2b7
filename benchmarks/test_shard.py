"""Sharded serving: partition scaling, digest identity, tail latency.

Drives the fleet-1000 workload through :class:`ShardCluster` at 1 and
4 shards and records ``results/BENCH_shard.json``:

* **Open-loop goodput scaling** — Poisson arrivals on a simulated
  clock swept across offered rates that cross single-shard capacity
  (``batch_size / pump_interval``).  A shard drains one batch per pump
  boundary, so an N-shard cluster's capacity is N× a single shard's —
  the partitioned-scheduler speedup, measured in *simulated-time*
  goodput so the result is a property of the architecture, not of how
  many host cores the benchmark machine has (wall time is recorded
  honestly alongside).  Gate: ≥2× fleet-1000 goodput at 4 shards vs 1
  at the over-capacity offered rate.
* **Digest identity** — the topology-independent
  :func:`~repro.serve.loadgen.completion_digest` of the 4-shard
  closed-loop drive must equal the 1-shard reference: sharding
  repartitions work, it never changes an answer.
* **Tail latency** — p50/p90/p99/p99.9 vs offered load per topology,
  the hockey-stick curve the open-loop generator exists to expose.
"""

import json
import os

from benchmarks.conftest import RESULTS_DIR, run_once, save_artifact
from repro.apps import all_applications
from repro.eval.report import render_table
from repro.serve import (
    LoadSpec,
    OpenLoopSpec,
    ShardCluster,
    TenantQuota,
    completion_digest,
    fleet_workload,
    overload_sweep,
    run_fleet,
)
from repro.traces.library import audio_corpus, human_corpus, robot_corpus

QUICK = os.environ.get("REPRO_QUICK") == "1"

#: The acceptance fleet size: 1000 simulated devices.
FLEET = 1000

#: Trace length for the serve registry (matches ``benchmarks/test_serve``).
TRACE_DURATION_S = 120.0 if QUICK else 360.0

#: Per-shard scheduling batch and pump cadence; together they set a
#: single shard's capacity in submissions per simulated second.
BATCH_SIZE = 64
PUMP_INTERVAL_S = 1.0
SHARD_CAPACITY_PER_S = BATCH_SIZE / PUMP_INTERVAL_S

#: Offered rates as multiples of single-shard capacity: from half a
#: shard to past four shards, so both topologies saturate in-sweep.
RATE_MULTIPLIERS = (0.5, 1.0, 2.0, 3.0, 4.0)

#: The multiplier the ≥2× scaling gate reads (3× one shard's capacity:
#: far past a single shard, comfortably under four).
GATE_MULTIPLIER = 3.0

#: Simulated seconds of arrivals per sweep point.
OPEN_LOOP_DURATION_S = 10.0 if QUICK else 30.0

#: 4 shards must at least double 1-shard goodput at the gate rate.
MIN_SHARD_SPEEDUP = 2.0


def _registry():
    """The serve-bench trace registry (matches ``repro serve-bench``)."""
    traces = (
        robot_corpus(duration_s=TRACE_DURATION_S)[:3]
        + audio_corpus(duration_s=TRACE_DURATION_S)
        + human_corpus(duration_s=TRACE_DURATION_S)
    )
    return {trace.name: trace for trace in traces}


def _load_spec():
    return LoadSpec(
        fleet=FLEET, seed=0, min_submissions=1, max_submissions=2
    )


def _merge_results(payload):
    """Merge one module's payload into ``results/BENCH_shard.json``."""
    target = RESULTS_DIR / "BENCH_shard.json"
    merged = json.loads(target.read_text()) if target.exists() else {}
    merged.update(payload)
    target.write_text(json.dumps(merged, indent=2) + "\n")


def test_shard_goodput_scaling(benchmark):
    traces = _registry()
    rates = [m * SHARD_CAPACITY_PER_S for m in RATE_MULTIPLIERS]
    spec = OpenLoopSpec(
        rate=rates[0],
        duration_s=OPEN_LOOP_DURATION_S,
        seed=0,
        pump_interval_s=PUMP_INTERVAL_S,
        load=_load_spec(),
    )

    def sweep():
        out = {}
        for shards in (1, 4):
            def make_cluster(clock, shards=shards):
                return ShardCluster(
                    traces,
                    shards=shards,
                    batch_size=BATCH_SIZE,
                    quota=TenantQuota(
                        max_pending=1_000_000, max_submissions=10_000_000
                    ),
                    clock_factory=lambda: clock,
                )

            out[shards] = overload_sweep(make_cluster, spec, rates)
        return out

    sweeps = run_once(benchmark, sweep)

    gate_rate = GATE_MULTIPLIER * SHARD_CAPACITY_PER_S
    by_rate = {
        shards: {r.offered_rate: r for r in reports}
        for shards, reports in sweeps.items()
    }
    one = by_rate[1][gate_rate]
    four = by_rate[4][gate_rate]
    speedup = four.goodput / one.goodput

    rows = []
    for shards, reports in sorted(sweeps.items()):
        for report in reports:
            # Arrival accounting balances at every point.
            assert report.arrivals == report.accepted + report.shed_total
            rows.append((
                str(shards),
                f"{report.offered_rate:.0f}",
                str(report.arrivals),
                str(report.shed_total),
                f"{report.goodput:.1f}",
                f"{report.latency_p50:.2f}",
                f"{report.latency_p99:.2f}",
                f"{report.latency_p999:.2f}",
                f"{report.wall_s:.2f}",
            ))
    # Under capacity nothing sheds; past it the single shard saturates
    # near its capacity while four shards keep absorbing the rate.
    assert by_rate[1][rates[0]].shed_total == 0
    assert by_rate[4][rates[0]].shed_total == 0
    assert one.shed_total > 0
    # Tails grow monotonically into overload on the single shard.
    assert (
        by_rate[1][rates[-1]].latency_p99
        >= by_rate[1][rates[0]].latency_p99
    )

    _merge_results({
        "quick": QUICK,
        "fleet": FLEET,
        "trace_duration_s": TRACE_DURATION_S,
        "open_loop": {
            "duration_s": OPEN_LOOP_DURATION_S,
            "pump_interval_s": PUMP_INTERVAL_S,
            "batch_size": BATCH_SIZE,
            "shard_capacity_per_s": SHARD_CAPACITY_PER_S,
            "gate_rate": gate_rate,
            "goodput_1_shard": one.goodput,
            "goodput_4_shards": four.goodput,
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SHARD_SPEEDUP,
            "sweeps": {
                str(shards): [r.as_dict() for r in reports]
                for shards, reports in sweeps.items()
            },
        },
    })
    save_artifact(
        "shard_scaling",
        render_table(
            ["shards", "rate/s", "arrivals", "shed", "goodput/s",
             "p50", "p99", "p99.9", "wall s"],
            rows,
            title=(
                f"Open-loop shard scaling at fleet {FLEET} "
                f"({OPEN_LOOP_DURATION_S:.0f} simulated s per point; "
                f"4-shard speedup {speedup:.2f}x at "
                f"{gate_rate:.0f}/s offered)"
            ),
        ),
    )

    assert speedup >= MIN_SHARD_SPEEDUP, (
        f"4-shard goodput {four.goodput:.1f}/s is only {speedup:.2f}x "
        f"the 1-shard {one.goodput:.1f}/s at {gate_rate:.0f}/s offered"
    )


def test_shard_digest_identity(benchmark):
    traces = _registry()
    submissions = fleet_workload(
        _load_spec(), all_applications(), list(traces.values())
    )

    def drive_both():
        reports = {}
        for shards in (1, 4):
            cluster = ShardCluster(
                traces, shards=shards, quota=TenantQuota(max_pending=8)
            )
            try:
                reports[shards] = run_fleet(
                    cluster, submissions, pump_every=32
                )
            finally:
                cluster.shutdown()
        return reports

    reports = run_once(benchmark, drive_both)

    digests = {
        shards: completion_digest(report.pairs)
        for shards, report in reports.items()
    }
    for shards, report in reports.items():
        assert report.tickets == len(report.responses), shards
    # The acceptance gate: sharding never changes an answer.
    assert digests[4] == digests[1], digests

    merged = reports[4].metrics.merged
    _merge_results({
        "digest_identity": {
            "fleet": FLEET,
            "submissions": len(submissions),
            "digest": digests[1],
            "digests_match": True,
            "wall_s_1_shard": reports[1].wall_s,
            "wall_s_4_shards": reports[4].wall_s,
            "dedup_hit_rate_4_shards": merged.dedup_hit_rate,
        },
    })
    save_artifact(
        "shard_digest",
        render_table(
            ["shards", "tickets", "completed", "dedup rate", "wall s",
             "digest"],
            [
                (
                    str(shards),
                    str(report.tickets),
                    str(report.metrics.merged.completed),
                    f"{report.metrics.merged.dedup_hit_rate:.1%}",
                    f"{report.wall_s:.2f}",
                    digests[shards][:16],
                )
                for shards, report in sorted(reports.items())
            ],
            title=(
                f"Completion-digest identity at fleet {FLEET}: "
                f"1-shard == 4-shard ({digests[1][:16]}…)"
            ),
        ),
    )
