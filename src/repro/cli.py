"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``inventory`` — list sensors and platform algorithms;
* ``compile`` — print an application's wake-up condition as IL and its
  hub placement;
* ``simulate`` — run one (application, configuration, trace) simulation
  and print the result summary;
* ``trace`` — generate a synthetic trace and save it to disk;
* ``table1`` / ``table2`` / ``figure5`` / ``figure6`` / ``figure7`` —
  regenerate a table or figure of the paper;
* ``merge`` — show pipeline-merging savings for a set of applications.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence,
)

from repro.algorithms.base import available_opcodes
from repro.api.compile import compile_pipeline
from repro.apps import all_applications
from repro.apps.base import SensingApplication
from repro.errors import SidewinderError
from repro.hub.feasibility import analyze, select_mcu
from repro.hub.mcu import DEFAULT_CATALOG
from repro.il.text import format_program
from repro.il.validate import validate_program
from repro.sensors.channels import all_channels
from repro.sim import (
    AlwaysAwake,
    Batching,
    DutyCycling,
    Oracle,
    PredefinedActivity,
    Sidewinder,
)
from repro.traces.base import Trace

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.engine import RunContext


def _apps_by_name() -> Dict[str, SensingApplication]:
    return {app.name: app for app in all_applications()}


def _make_config(name: str, sleep_interval: float):
    factories = {
        "always_awake": lambda: AlwaysAwake(),
        "duty_cycling": lambda: DutyCycling(sleep_interval),
        "batching": lambda: Batching(sleep_interval),
        "predefined_activity": lambda: PredefinedActivity(),
        "sidewinder": lambda: Sidewinder(),
        "oracle": lambda: Oracle(),
    }
    if name not in factories:
        raise SidewinderError(
            f"unknown configuration {name!r}; choose from {sorted(factories)}"
        )
    return factories[name]()


def _make_trace(spec: str, duration: float, seed: int) -> Trace:
    """Build a trace from a spec like ``robot:2``, ``human:commute`` or
    ``audio:office``."""
    kind, _, variant = spec.partition(":")
    if kind == "robot":
        from repro.traces.robot import RobotRunConfig, generate_robot_run
        group = int(variant or 1)
        return generate_robot_run(
            RobotRunConfig(group=group, duration_s=duration, seed=seed)
        )
    if kind == "human":
        from repro.traces.human import (
            HumanScenario,
            HumanTraceConfig,
            generate_human_trace,
        )
        scenario = HumanScenario(variant or "commute")
        return generate_human_trace(
            HumanTraceConfig(scenario=scenario, duration_s=duration, seed=seed)
        )
    if kind == "audio":
        from repro.traces.audio import (
            AudioEnvironment,
            AudioTraceConfig,
            generate_audio_trace,
        )
        environment = AudioEnvironment(variant or "office")
        return generate_audio_trace(
            AudioTraceConfig(environment=environment, duration_s=duration, seed=seed)
        )
    raise SidewinderError(
        f"unknown trace kind {kind!r}; use robot[:group], human[:scenario] "
        "or audio[:environment]"
    )


def cmd_inventory(_: argparse.Namespace) -> int:
    """List sensors, platform algorithms and applications."""
    print("sensor channels:")
    for channel in all_channels():
        print(f"  {channel.name:<8s} {channel.kind.value:<14s} "
              f"{channel.rate_hz:g} Hz ({channel.unit})")
    print()
    print("platform algorithms:")
    for opcode in available_opcodes():
        print(f"  {opcode}")
    print()
    print("applications:")
    for name in sorted(_apps_by_name()):
        print(f"  {name}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Print an application's wake-up condition IL and placement."""
    apps = _apps_by_name()
    if args.app not in apps:
        print(f"unknown application {args.app!r}; choose from {sorted(apps)}",
              file=sys.stderr)
        return 2
    app = apps[args.app]
    program = compile_pipeline(app.build_wakeup_pipeline())
    graph = validate_program(program)
    if args.diagram:
        from repro.il.draw import render_condition_tree
        print(render_condition_tree(program))
        print()
    print(format_program(program))
    mcu = select_mcu(graph, DEFAULT_CATALOG)
    print(f"# placed on {mcu.name} "
          f"({analyze(graph, mcu).utilization:.1%} of its cycle budget)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one (app, configuration, trace) simulation."""
    apps = _apps_by_name()
    if args.app not in apps:
        print(f"unknown application {args.app!r}; choose from {sorted(apps)}",
              file=sys.stderr)
        return 2
    trace = _make_trace(args.trace, args.duration, args.seed)
    config = _make_config(args.config, args.sleep_interval)
    result = config.run(apps[args.app], trace)
    print(result.summary())
    breakdown = result.power
    print(
        f"  awake {breakdown.awake_fraction:6.1%} of trace | phone "
        f"{breakdown.phone_mw:6.1f} mW + hub {breakdown.hub_mw:4.1f} mW | "
        f"energy {breakdown.total_energy_mj / 1000:7.1f} J"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate a synthetic trace and save it to disk."""
    from repro.traces.io import save_trace
    trace = _make_trace(args.kind, args.duration, args.seed)
    path = save_trace(trace, args.out)
    labels: Dict[str, int] = {}
    for event in trace.events:
        labels[event.label] = labels.get(event.label, 0) + 1
    print(f"wrote {path} ({trace.duration:g}s, events: {labels})")
    return 0


def cmd_table1(_: argparse.Namespace) -> int:
    """Print the paper's Table 1 (Nexus 4 power profile)."""
    from repro.eval.report import render_table1
    from repro.eval.tables import build_table1
    print(render_table1(build_table1()))
    return 0


def _print_skipped(matrix) -> None:
    from repro.eval.report import render_skipped
    text = render_skipped(matrix.skipped)
    if text:
        print(text, file=sys.stderr)


def _print_execution(matrix, verbose: bool) -> None:
    """With ``--verbose``, show how the engine ran the sweep.

    Prints the serial/pool decision and — for serial runs, where one
    context served every cell — the RunContext cache counters, making
    dedup behaviour observable outside the serve path.
    """
    if not verbose:
        return
    info = matrix.execution
    if info is None:
        return
    print(f"# engine: {info.mode} ({info.reason})", file=sys.stderr)
    stats = info.cache_stats
    if stats is None:
        print(
            "# engine cache: per-worker counters live in the pool "
            "workers (rerun with --jobs 1 to see them)",
            file=sys.stderr,
        )
        return
    print(
        "# engine cache hits/misses: "
        f"compile {stats['compile_hits']}/{stats['compile_misses']} | "
        f"plan {stats['plan_hits']}/{stats['plan_misses']} | "
        f"hub {stats['hub_hits']}/{stats['hub_misses']} | "
        f"trace {stats['trace_hits']}/{stats['trace_misses']} | "
        f"detect {stats['detect_hits']}/{stats['detect_misses']} | "
        f"batch {stats['batch_rounds']} rounds/"
        f"{stats['batched_cells']} cells | "
        f"shape {stats['shape_rounds']} rounds/"
        f"{stats['shape_cells']} cells | "
        f"merge {stats['merge_rounds']} rounds/"
        f"{stats['merged_cells']} cells",
        file=sys.stderr,
    )
    valid = stats["batch_valid_cells"]
    if valid:
        print(
            "# engine batch padding: "
            f"{stats['batch_padded_cells']}/{valid} cells "
            f"(ratio {stats['batch_padded_cells'] / valid:.2f})",
            file=sys.stderr,
        )


@contextmanager
def _sweep_context(args: argparse.Namespace) -> Iterator["RunContext"]:
    """The sweep commands' engine context, built from their ``--no-*``
    switches.  The command owns the context's pool, so it is shut down
    when the command ends: that releases a ``--jobs N`` run's workers
    and its shared-memory trace export."""
    from repro.sim.engine import RunContext

    context = RunContext(
        cache=not args.no_cache,
        compiled=not args.no_compile,
        batch=not args.no_batch,
        shape_batch=not args.no_shape_batch,
    )
    try:
        yield context
    finally:
        context.shutdown_pool()


def cmd_table2(args: argparse.Namespace) -> int:
    """Regenerate the paper's Table 2 over the audio corpus."""
    from repro.eval.report import render_table2
    from repro.eval.tables import PAPER_TABLE2, build_table2
    from repro.traces.library import audio_corpus
    with _sweep_context(args) as context:
        table, matrix = build_table2(
            traces=audio_corpus(duration_s=args.duration),
            jobs=args.jobs,
            context=context,
        )
    print(render_table2(table, paper=PAPER_TABLE2))
    _print_skipped(matrix)
    _print_execution(matrix, args.verbose)
    return 0


def cmd_figure5(args: argparse.Namespace) -> int:
    """Regenerate Figure 5 over the robot corpus."""
    from repro.eval.figures import figure5_series
    from repro.eval.report import render_figure5
    from repro.traces.library import robot_corpus
    with _sweep_context(args) as context:
        series, matrix = figure5_series(
            traces=robot_corpus(duration_s=args.duration),
            jobs=args.jobs,
            context=context,
        )
    print(render_figure5(series))
    _print_skipped(matrix)
    _print_execution(matrix, args.verbose)
    return 0


def cmd_figure6(args: argparse.Namespace) -> int:
    """Regenerate Figure 6 (duty-cycling recall curves)."""
    from repro.eval.figures import figure6_series
    from repro.eval.report import render_figure6
    from repro.traces.library import robot_corpus
    group1 = [
        t for t in robot_corpus(duration_s=args.duration)
        if t.metadata.get("group") == 1
    ]
    with _sweep_context(args) as context:
        series, matrix = figure6_series(
            traces=group1, jobs=args.jobs, context=context
        )
    print(render_figure6(series))
    _print_execution(matrix, args.verbose)
    return 0


def cmd_figure7(args: argparse.Namespace) -> int:
    """Regenerate Figure 7 over the human corpus."""
    from repro.eval.figures import figure7_series
    from repro.eval.report import render_figure7
    from repro.traces.library import human_corpus
    with _sweep_context(args) as context:
        series, matrix = figure7_series(
            traces=human_corpus(duration_s=args.duration),
            jobs=args.jobs,
            context=context,
        )
    print(render_figure7(series))
    _print_skipped(matrix)
    _print_execution(matrix, args.verbose)
    return 0


def _serve_traces(duration_s: float) -> Dict[str, Trace]:
    """The serve-bench trace registry over the standard corpora."""
    from repro.traces.library import audio_corpus, human_corpus, robot_corpus
    traces = (
        robot_corpus(duration_s=duration_s)[:3]
        + audio_corpus(duration_s=duration_s)
        + human_corpus(duration_s=duration_s)
    )
    return {trace.name: trace for trace in traces}


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Run the deterministic fleet load generator against a shard cluster.

    Closed-loop by default over ``ShardCluster(shards=--shards or 1)``;
    ``--open-loop RATE`` switches to the Poisson-arrival overload sweep
    on simulated time and ``--stream`` to the streamed-ingestion
    benchmark.  A journaled run recovers any shard a fault plan kills.
    ``--digest`` prints the topology-independent **completion digest**
    (equal across shard counts) and then the **response digest** (ticket
    ids, latencies and dedup flags included: equal across a kill and
    recovery on one topology).
    """
    from repro.apps import all_applications
    from repro.serve import (
        LoadSpec,
        ServiceFaultPlan,
        ShardCluster,
        TenantQuota,
        completion_digest,
        fleet_workload,
        response_digest,
        run_fleet,
    )
    # One engine-context factory for every cluster a run builds, so
    # --no-batch / --no-shape-batch reach the closed-loop, open-loop
    # and streamed clusters alike.
    context_factory = None
    if args.no_batch or args.no_shape_batch:
        from repro.sim.engine import RunContext

        context_factory = partial(
            RunContext,
            batch=not args.no_batch,
            shape_batch=not args.no_shape_batch,
        )
    if args.stream:
        return _serve_bench_stream(args, context_factory)
    shards = args.shards if args.shards is not None else 1
    if args.kill_shard is not None and not (0 <= args.kill_shard < shards):
        print(f"--kill-shard must be in [0, {shards})", file=sys.stderr)
        return 2
    if (args.kill_after or args.kill_shard is not None) and not args.journal:
        print("--kill-after / --kill-shard require --journal (a directory "
              "of per-shard journals)", file=sys.stderr)
        return 2
    duration = 120.0 if args.quick else args.duration
    traces = _serve_traces(duration)
    spec = LoadSpec(
        fleet=args.fleet,
        seed=args.seed,
        min_submissions=1,
        max_submissions=2 if args.quick else 3,
    )
    if args.open_loop is not None:
        return _serve_bench_open_loop(
            args, shards, traces, spec, context_factory
        )
    submissions = fleet_workload(spec, all_applications(), list(traces.values()))
    faults = None
    if args.kill_shard is not None:
        faults = {
            args.kill_shard: ServiceFaultPlan(
                kill_at_pump=args.kill_after or 1,
                kill_pump_phase="store",
            )
        }
    elif args.kill_after:
        faults = {0: ServiceFaultPlan(kill_after_accepts=args.kill_after)}
    cluster = ShardCluster(
        traces,
        quota=TenantQuota(max_pending=args.max_pending),
        capacity=args.capacity,
        jobs=args.jobs,
        shards=shards,
        journal_dir=args.journal,
        faults=faults,
        context_factory=context_factory,
    )
    try:
        report = run_fleet(cluster, submissions, pump_every=args.pump_every)
    finally:
        cluster.shutdown()
    print(
        f"fleet {args.fleet} devices | {shards} shard(s) | workload "
        f"{len(submissions)} submissions (seed {args.seed})"
    )
    print(report.metrics.describe())
    for shard, stats in sorted(report.recoveries.items()):
        print(f"shard {shard} recovery: {stats.describe()}")
    print(
        f"wall {report.wall_s:.2f} s | sustained "
        f"{report.submissions_per_second:,.0f} submissions/s"
    )
    if args.digest:
        print(f"digest {completion_digest(report.pairs)}")
        print(
            "responses "
            f"{response_digest(response for _, response in report.responses)}"
        )
    return 0


def _serve_bench_stream(
    args: argparse.Namespace, context_factory: Optional[Callable]
) -> int:
    """The ``--stream`` benchmark: streamed ingestion vs whole-trace replay.

    Drives one seeded streamed fleet (devices pushing chunks round by
    round through intermittent connectivity, subscriptions evaluating
    incrementally) and then the replay reference (the same fleet's
    chunks assembled into whole traces, the same conditions submitted
    as ordinary raw-IL work) through fresh clusters of the same shard
    count.  The two drives must produce **digest-identical** wake
    events — the exit code reflects it — and the report compares
    goodput and batched-tier occupancy between the paths.  With
    ``--kill-shard`` the named shard is fault-killed mid-stream and
    rebuilt from its journal; the digest must still match.  ``--out``
    merges the comparison into a JSON artifact (``stream`` key).
    """
    from repro.serve import (
        ServiceFaultPlan,
        ShardCluster,
        StreamLoadSpec,
        completion_digest,
        run_fleet,
        run_stream_fleet,
        stream_fleet_plan,
        stream_replay_workload,
    )
    shards = args.shards if args.shards is not None else 1
    if args.kill_shard is not None and not (0 <= args.kill_shard < shards):
        print(f"--kill-shard must be in [0, {shards})", file=sys.stderr)
        return 2
    if args.kill_shard is not None and not args.journal:
        print("--kill-shard requires --journal (a directory of "
              "per-shard journals)", file=sys.stderr)
        return 2
    spec = StreamLoadSpec(
        fleet=args.fleet,
        seed=args.seed,
        duration_s=16.0 if args.quick else args.stream_duration,
    )
    plans = stream_fleet_plan(spec)

    faults = None
    if args.kill_shard is not None:
        # Stream-only pump rounds run no submissions, so only the
        # "begin" fault hook (right after the round's journal flush)
        # is reached — the "store" phase used by the submission-path
        # kill benchmark would never fire here.
        faults = {
            args.kill_shard: ServiceFaultPlan(
                kill_at_pump=args.kill_after or 1,
                kill_pump_phase="begin",
            )
        }
    cluster = ShardCluster(
        traces={},
        shards=shards,
        jobs=args.jobs,
        journal_dir=args.journal,
        faults=faults,
        context_factory=context_factory,
    )
    try:
        streamed = run_stream_fleet(
            cluster, plans, spec, recover=args.kill_shard is not None
        )
    finally:
        cluster.shutdown()
    stream_digest = streamed.digest()
    stream_metrics = streamed.metrics.merged

    traces, submissions = stream_replay_workload(plans)
    replay_cluster = ShardCluster(
        traces, shards=shards, jobs=args.jobs, context_factory=context_factory
    )
    try:
        replay = run_fleet(
            replay_cluster, submissions, pump_every=args.pump_every
        )
    finally:
        replay_cluster.shutdown()
    replay_digest = completion_digest(replay.pairs)
    replay_metrics = replay.metrics.merged

    identical = stream_digest == replay_digest
    stream_goodput = (
        streamed.wake_events / streamed.wall_s if streamed.wall_s else 0.0
    )
    replay_events = sum(
        len(response.result) for response in replay.completed
    )
    replay_goodput = replay_events / replay.wall_s if replay.wall_s else 0.0
    print(
        f"stream fleet {spec.fleet} devices | {shards} shard(s) | "
        f"{spec.rounds} rounds of {spec.chunk_interval_s:g} s chunks "
        f"(seed {args.seed})"
    )
    print(
        f"streamed: {streamed.subscriptions} subs | "
        f"{streamed.chunks_pushed} chunks ({streamed.deferred_chunks} "
        f"deferred) | {streamed.wake_events} events | "
        f"wall {streamed.wall_s:.2f} s | {stream_goodput:,.0f} events/s | "
        f"occupancy {stream_metrics.stream_occupancy:.1f}"
    )
    print(
        f"replay:   {len(replay.completed)} completions | "
        f"{replay_events} events | wall {replay.wall_s:.2f} s | "
        f"{replay_goodput:,.0f} events/s | "
        f"occupancy {replay_metrics.batch_occupancy:.1f}"
    )
    for shard, times in sorted(streamed.recoveries.items()):
        print(f"shard {shard}: killed and recovered x{times} mid-stream")
    print(f"streamed vs replay: {'IDENTICAL' if identical else 'MISMATCH'}")
    if args.digest:
        print(f"digest {stream_digest}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {}
        if out.exists():
            payload = json.loads(out.read_text())
        payload["stream"] = {
            "fleet": spec.fleet,
            "shards": shards,
            "seed": args.seed,
            "duration_s": spec.duration_s,
            "chunk_interval_s": spec.chunk_interval_s,
            "rounds": spec.rounds,
            "identical": identical,
            "stream_digest": stream_digest,
            "replay_digest": replay_digest,
            "streamed": {
                **streamed.as_dict(),
                "goodput_events_per_s": stream_goodput,
                "occupancy": stream_metrics.stream_occupancy,
            },
            "replay": {
                **replay.as_dict(),
                "wake_events": replay_events,
                "goodput_events_per_s": replay_goodput,
                "occupancy": replay_metrics.batch_occupancy,
            },
            "occupancy_streamed_ge_replay": (
                stream_metrics.stream_occupancy
                >= replay_metrics.batch_occupancy
            ),
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote stream benchmark to {out}")
    return 0 if identical else 1


def _serve_bench_open_loop(
    args: argparse.Namespace,
    shards: int,
    traces: Dict[str, Trace],
    spec,
    context_factory: Optional[Callable],
) -> int:
    """The ``--open-loop RATE`` overload sweep (simulated time).

    Sweeps offered load across fixed multipliers of RATE, one fresh
    cluster per point, and prints goodput plus p50/p90/p99/p99.9
    latency (simulated seconds) per point.  ``--out`` merges the sweep
    into a JSON artifact (``open_loop`` key).
    """
    from repro.serve import (
        OpenLoopSpec,
        ShardCluster,
        TenantQuota,
        overload_sweep,
    )
    rate = args.open_loop
    if rate <= 0:
        print("--open-loop RATE must be positive", file=sys.stderr)
        return 2
    multipliers = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
    rates = [rate * m for m in multipliers]
    # Quotas out of the way: the bounded queue is the overload
    # mechanism under study, not per-tenant budgets.
    quota = TenantQuota(max_pending=1_000_000, max_submissions=10_000_000)

    def make_cluster(clock):
        return ShardCluster(
            traces,
            quota=quota,
            capacity=args.capacity,
            jobs=args.jobs,
            shards=shards,
            clock_factory=lambda: clock,
            context_factory=context_factory,
        )

    ospec = OpenLoopSpec(
        rate=rate,
        duration_s=args.open_loop_duration,
        seed=args.seed,
        pump_interval_s=1.0,
        load=spec,
    )
    reports = overload_sweep(make_cluster, ospec, rates)
    print(
        f"open-loop sweep | {shards} shard(s) | fleet {spec.fleet} | "
        f"{args.open_loop_duration:g} simulated s per point"
    )
    header = (
        f"{'rate':>8} {'arrived':>8} {'accepted':>8} {'shed':>6} "
        f"{'goodput':>8} {'p50':>7} {'p90':>7} {'p99':>7} {'p99.9':>7}"
    )
    print(header)
    for report in reports:
        print(
            f"{report.offered_rate:8.1f} {report.arrivals:8d} "
            f"{report.accepted:8d} {report.shed_total:6d} "
            f"{report.goodput:8.1f} {report.latency_p50:7.2f} "
            f"{report.latency_p90:7.2f} {report.latency_p99:7.2f} "
            f"{report.latency_p999:7.2f}"
        )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {}
        if out.exists():
            payload = json.loads(out.read_text())
        payload["open_loop"] = {
            "shards": shards,
            "fleet": spec.fleet,
            "seed": args.seed,
            "duration_s": args.open_loop_duration,
            "pump_interval_s": 1.0,
            "sweep": [report.as_dict() for report in reports],
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote open-loop sweep to {out}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """Merge several apps' conditions and report the sharing."""
    from repro.hub.merge import merge_programs, merged_cycles_per_second
    apps = _apps_by_name()
    names = [name.strip() for name in args.apps.split(",")]
    unknown = [n for n in names if n not in apps]
    if unknown:
        print(f"unknown applications {unknown}; choose from {sorted(apps)}",
              file=sys.stderr)
        return 2
    programs = [
        compile_pipeline(apps[name].build_wakeup_pipeline()) for name in names
    ]
    separate = sum(validate_program(p).total_cycles_per_second for p in programs)
    merged = merge_programs(programs)
    merged_load = merged_cycles_per_second(merged)
    print(format_program(merged.program))
    print(f"# taps: {dict(zip(names, merged.taps))}")
    print(f"# nodes {merged.original_node_count} -> {merged.node_count} "
          f"(shared {merged.shared_nodes})")
    if separate > 0:
        print(f"# hub load {separate / 1e6:.2f}M -> {merged_load / 1e6:.2f}M "
              f"cycles/s ({1 - merged_load / separate:.0%} saved)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sidewinder (ASPLOS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inventory", help="list sensors, algorithms and apps")

    p = sub.add_parser("compile", help="show an app's wake-up condition IL")
    p.add_argument("--app", required=True)
    p.add_argument("--diagram", action="store_true",
                   help="also draw the Figure 2b-style conceptual tree")

    p = sub.add_parser("simulate", help="run one simulation")
    p.add_argument("--app", required=True)
    p.add_argument("--config", default="sidewinder")
    p.add_argument("--trace", default="robot:1",
                   help="robot[:group] | human[:scenario] | audio[:environment]")
    p.add_argument("--duration", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sleep-interval", type=float, default=10.0)

    p = sub.add_parser("trace", help="generate and save a synthetic trace")
    p.add_argument("--kind", required=True,
                   help="robot[:group] | human[:scenario] | audio[:environment]")
    p.add_argument("--duration", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    sub.add_parser("table1", help="print Table 1")
    for name, default in (("table2", 600.0), ("figure5", 600.0),
                          ("figure6", 600.0), ("figure7", 1200.0)):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--duration", type=float, default=default)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the engine's run caching")
        p.add_argument("--no-compile", action="store_true",
                       help="disable the compiled whole-trace hub path, "
                            "running every condition on the round "
                            "interpreter (results are identical; this "
                            "is an escape hatch)")
        p.add_argument("--no-batch", action="store_true",
                       help="disable tensor-major batching of "
                            "same-condition cells (results are "
                            "identical; this is an escape hatch)")
        p.add_argument("--no-shape-batch", action="store_true",
                       help="disable shape-keyed batching across "
                            "conditions that share a graph shape "
                            "(results are identical; this is an "
                            "escape hatch)")
        p.add_argument("--verbose", action="store_true",
                       help="also report the engine's serial/pool "
                            "decision and RunContext cache counters")

    p = sub.add_parser(
        "serve-bench",
        help="drive the fleet condition service with a seeded workload",
    )
    p.add_argument("--fleet", type=int, default=100,
                   help="number of simulated devices (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default 0)")
    p.add_argument("--duration", type=float, default=600.0,
                   help="registry trace length in seconds (default 600)")
    p.add_argument("--quick", action="store_true",
                   help="short traces and fewer submissions per device")
    p.add_argument("--jobs", type=int, default=1,
                   help="engine worker processes (default 1)")
    p.add_argument("--capacity", type=int, default=512,
                   help="service queue capacity (default 512)")
    p.add_argument("--max-pending", type=int, default=8,
                   help="per-tenant pending quota (default 8)")
    p.add_argument("--pump-every", type=int, default=32,
                   help="run a scheduling round every N submissions")
    p.add_argument("--no-batch", action="store_true",
                   help="disable tensor-major batching across "
                        "tenants/traces (results are identical; this "
                        "is an escape hatch)")
    p.add_argument("--no-shape-batch", action="store_true",
                   help="disable shape-keyed batching across "
                        "differently parameterized conditions that "
                        "share a graph shape (results are identical; "
                        "this is an escape hatch)")
    p.add_argument("--journal", metavar="DIR",
                   help="directory of per-shard write-ahead journals "
                        "(shard-00.wal, ...); enables durability, and "
                        "any shard a fault plan kills is recovered from "
                        "its own journal")
    p.add_argument("--kill-after", type=int, metavar="N",
                   help="fault-inject: kill shard 0 after N accepted "
                        "submissions (requires --journal); with "
                        "--kill-shard, the pump round the shard dies in")
    p.add_argument("--digest", action="store_true",
                   help="print the topology-independent completion "
                        "digest (equal across shard counts), then the "
                        "order-insensitive response digest (equal "
                        "across kill/recover on one topology); with "
                        "--stream, the streamed wake-event digest")
    p.add_argument("--shards", type=int, metavar="N",
                   help="serve through a cluster of N rendezvous-routed "
                        "shards, each with its own scheduler, engine "
                        "context, pool and journal (default 1)")
    p.add_argument("--kill-shard", type=int, metavar="I",
                   help="fault-inject: kill shard I at pump round "
                        "--kill-after (default 1) and recover it from "
                        "its own journal while the rest keep serving "
                        "(requires --journal)")
    p.add_argument("--open-loop", type=float, metavar="RATE",
                   help="open-loop mode: sweep Poisson arrivals on "
                        "simulated time at multiples of RATE "
                        "(arrivals/simulated second), reporting "
                        "goodput and p50/p90/p99/p99.9 tail latency "
                        "per offered load")
    p.add_argument("--open-loop-duration", type=float, default=64.0,
                   metavar="S",
                   help="simulated seconds of arrivals per sweep point "
                        "(default 64)")
    p.add_argument("--stream", action="store_true",
                   help="streaming mode: devices push sensor chunks "
                        "round by round and subscriptions evaluate "
                        "incrementally; compares goodput, batched-tier "
                        "occupancy and wake-event digests against the "
                        "whole-trace replay of the same fleet (exit 1 "
                        "on digest mismatch)")
    p.add_argument("--stream-duration", type=float, default=64.0,
                   metavar="S",
                   help="with --stream, seconds of sensor data each "
                        "device produces (default 64; --quick uses 16)")
    p.add_argument("--out", metavar="PATH",
                   help="with --open-loop or --stream, merge the report "
                        "into this JSON artifact (open_loop / stream "
                        "key)")

    p = sub.add_parser("merge", help="merge several apps' conditions")
    p.add_argument("--apps", required=True,
                   help="comma-separated application names")

    return parser


_COMMANDS = {
    "inventory": cmd_inventory,
    "compile": cmd_compile,
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "figure5": cmd_figure5,
    "figure6": cmd_figure6,
    "figure7": cmd_figure7,
    "merge": cmd_merge,
    "serve-bench": cmd_serve_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SidewinderError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
