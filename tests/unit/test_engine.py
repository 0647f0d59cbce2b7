"""Unit tests for the simulation engine (RunContext and the planner)."""

import pytest

from repro.apps import HeadbuttApp, SirenDetectorApp, StepsApp
from repro.errors import HubExecutionError
from repro.serve.submission import Completed
from repro.sim import AlwaysAwake, Oracle, Sidewinder
from repro.sim.engine import (
    RunContext,
    execute_plan,
    plan_matrix,
    program_fingerprint,
)
from repro.sim.configs.predefined import significant_motion_pipeline
from repro.sim.simulator import run_wakeup_condition


class TestFingerprint:
    def test_stable_across_compiles(self):
        from repro.api.compile import compile_pipeline
        a = compile_pipeline(StepsApp().build_wakeup_pipeline())
        b = compile_pipeline(StepsApp().build_wakeup_pipeline())
        assert a is not b
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_sensitive_to_parameters(self):
        from repro.api.compile import compile_pipeline
        a = compile_pipeline(significant_motion_pipeline(0.8))
        b = compile_pipeline(significant_motion_pipeline(0.9))
        assert program_fingerprint(a) != program_fingerprint(b)

    def test_sensitive_to_structure(self):
        from repro.api.compile import compile_pipeline
        a = compile_pipeline(StepsApp().build_wakeup_pipeline())
        b = compile_pipeline(HeadbuttApp().build_wakeup_pipeline())
        assert program_fingerprint(a) != program_fingerprint(b)


class TestRunContextCaches:
    def test_compile_shares_graphs(self):
        ctx = RunContext()
        g1 = ctx.compile(StepsApp().build_wakeup_pipeline())
        g2 = ctx.compile(StepsApp().build_wakeup_pipeline())
        assert g1 is g2
        assert ctx.stats.compile_hits == 1
        assert ctx.stats.compile_misses == 1

    def test_wake_events_match_fresh_run(self, robot_trace):
        ctx = RunContext()
        graph = ctx.compile(StepsApp().build_wakeup_pipeline())
        cached = ctx.wake_events(graph, robot_trace)
        fresh = run_wakeup_condition(
            ctx.compile(StepsApp().build_wakeup_pipeline()), robot_trace
        )
        assert [(e.time, e.value) for e in cached] == [
            (e.time, e.value) for e in fresh
        ]

    def test_wake_events_served_from_cache(self, robot_trace):
        ctx = RunContext()
        graph = ctx.compile(StepsApp().build_wakeup_pipeline())
        first = ctx.wake_events(graph, robot_trace)
        second = ctx.wake_events(graph, robot_trace)
        assert first is second
        assert ctx.stats.hub_hits == 1
        assert ctx.stats.hub_misses == 1

    def test_cached_graph_reuse_stays_cold(self, robot_trace):
        # Two different traces through one cached graph: the second run
        # must not see algorithm state left over from the first.
        ctx = RunContext()
        graph = ctx.compile(StepsApp().build_wakeup_pipeline())
        ctx.wake_events(graph, robot_trace)
        again = ctx.wake_events(graph, robot_trace, chunk_seconds=2.0)
        cold = run_wakeup_condition(
            ctx.compile(StepsApp().build_wakeup_pipeline()),
            robot_trace,
            chunk_seconds=2.0,
        )
        assert [(e.time, e.value) for e in again] == [
            (e.time, e.value) for e in cold
        ]

    def test_missing_channel_raises(self, robot_trace):
        ctx = RunContext()
        graph = ctx.compile(SirenDetectorApp().build_wakeup_pipeline())
        with pytest.raises(HubExecutionError, match="MIC"):
            ctx.wake_events(graph, robot_trace)

    def test_channel_arrays_computed_once(self, robot_trace):
        ctx = RunContext()
        a = ctx.channel_arrays(robot_trace)
        b = ctx.channel_arrays(robot_trace)
        assert a is b
        assert ctx.stats.trace_hits == 1

    def test_detections_cached_and_faithful(self, robot_trace):
        ctx = RunContext()
        app = StepsApp()
        windows = [(0.0, 30.0), (60.0, 90.0)]
        cached = ctx.detections(app, robot_trace, windows)
        direct = app.detect(robot_trace, windows)
        assert list(cached) == list(direct)
        again = ctx.detections(app, robot_trace, windows)
        assert again is cached
        assert ctx.stats.detect_hits == 1

    def test_distinct_windows_are_distinct_entries(self, robot_trace):
        ctx = RunContext()
        app = StepsApp()
        ctx.detections(app, robot_trace, [(0.0, 30.0)])
        ctx.detections(app, robot_trace, [(0.0, 31.0)])
        assert ctx.stats.detect_misses == 2

    def test_cache_disabled_computes_fresh(self, robot_trace):
        ctx = RunContext(cache=False)
        g1 = ctx.compile(StepsApp().build_wakeup_pipeline())
        g2 = ctx.compile(StepsApp().build_wakeup_pipeline())
        assert g1 is not g2
        e1 = ctx.wake_events(g1, robot_trace)
        e2 = ctx.wake_events(g2, robot_trace)
        assert [(e.time, e.value) for e in e1] == [
            (e.time, e.value) for e in e2
        ]
        assert ctx.stats.total_hits == 0


class TestPlanner:
    def test_plan_matrix_shape_and_order(self, robot_trace, quiet_robot_trace):
        configs = [AlwaysAwake(), Oracle()]
        apps = [StepsApp(), HeadbuttApp()]
        plan = plan_matrix(configs, apps, [robot_trace, quiet_robot_trace])
        assert len(plan) == 2 * 2 * 2
        assert [c.index for c in plan.cells] == list(range(len(plan)))
        # Trace-major order: the first half of the plan is trace 1.
        assert all(
            c.trace is robot_trace for c in plan.cells[: len(plan) // 2]
        )

    def test_plan_matrix_records_skips(self, robot_trace):
        plan = plan_matrix(
            [AlwaysAwake()], [StepsApp(), SirenDetectorApp()], [robot_trace]
        )
        assert len(plan) == 1
        assert len(plan.skipped) == 1
        skip = plan.skipped[0]
        assert skip.app_name == "sirens"
        assert skip.missing_channels == ("MIC",)
        assert "MIC" in skip.describe()

    def test_execute_plan_returns_in_plan_order(self, robot_trace):
        configs = [Oracle(), AlwaysAwake()]
        plan = plan_matrix(configs, [StepsApp()], [robot_trace])
        results = execute_plan(plan)
        assert [r.config_name for r in results] == ["oracle", "always_awake"]

    def test_execute_plan_reuses_external_context(self, robot_trace):
        plan = plan_matrix([Sidewinder()], [StepsApp()], [robot_trace])
        ctx = RunContext()
        execute_plan(plan, context=ctx)
        assert ctx.stats.hub_misses == 1
        execute_plan(plan, context=ctx)
        assert ctx.stats.hub_misses == 1
        assert ctx.stats.hub_hits >= 1


class TestPlanFromCells:
    def test_trace_major_order_with_input_indices(
        self, robot_trace, quiet_robot_trace
    ):
        from repro.sim.engine import plan_from_cells

        # Interleave traces on purpose: the plan groups trace-major for
        # locality, but cell indices keep pointing at input positions.
        triples = [
            (AlwaysAwake(), StepsApp(), robot_trace),
            (AlwaysAwake(), StepsApp(), quiet_robot_trace),
            (Oracle(), HeadbuttApp(), robot_trace),
        ]
        plan = plan_from_cells(triples)
        assert [c.trace.name for c in plan.cells] == [
            robot_trace.name, robot_trace.name, quiet_robot_trace.name
        ]
        assert [c.index for c in plan.cells] == [0, 2, 1]

    def test_results_come_back_in_input_order(
        self, robot_trace, quiet_robot_trace
    ):
        from repro.sim.engine import plan_from_cells

        triples = [
            (AlwaysAwake(), StepsApp(), robot_trace),
            (AlwaysAwake(), StepsApp(), quiet_robot_trace),
            (Oracle(), StepsApp(), robot_trace),
        ]
        results = execute_plan(plan_from_cells(triples))
        assert [(r.config_name, r.trace_name) for r in results] == [
            ("always_awake", robot_trace.name),
            ("always_awake", quiet_robot_trace.name),
            ("oracle", robot_trace.name),
        ]

    def test_missing_channels_are_skipped(self, robot_trace):
        from repro.sim.engine import plan_from_cells

        plan = plan_from_cells(
            [
                (AlwaysAwake(), StepsApp(), robot_trace),
                (AlwaysAwake(), SirenDetectorApp(), robot_trace),
            ]
        )
        assert len(plan) == 1
        assert [s.app_name for s in plan.skipped] == ["sirens"]
        assert plan.skipped[0].missing_channels == ("MIC",)

    def test_serial_info_reports_cache_stats(self, robot_trace):
        from repro.sim.engine import execute_plan_with_info, plan_from_cells

        ctx = RunContext()
        plan = plan_from_cells([(Sidewinder(), StepsApp(), robot_trace)])
        _, info = execute_plan_with_info(plan, context=ctx)
        assert info.mode == "serial"
        assert info.cache_stats == ctx.stats.as_dict()
        assert info.cache_stats["hub_misses"] == 1


class TestShutdownPool:
    def test_shutdown_is_idempotent(self, robot_trace, quiet_robot_trace):
        from repro.sim.engine import execute_plan_with_info, shutdown_pool

        # Cold: shutting down with no pool is a no-op …
        shutdown_pool()
        shutdown_pool()
        # … and after a pool run, repeated shutdowns stay safe.
        configs = [AlwaysAwake(), Oracle(), Sidewinder()] * 5
        plan = plan_matrix(configs, [StepsApp()], [robot_trace, quiet_robot_trace])
        _, info = execute_plan_with_info(plan, jobs=2)
        assert info.mode == "pool"
        shutdown_pool()
        shutdown_pool()
        # The engine recovers: the next pool run forks a fresh pool.
        _, again = execute_plan_with_info(plan, jobs=2)
        assert again.mode == "pool"
        assert not again.pool_reused
        shutdown_pool()


class TestMergedWindowKeying:
    def test_split_windows_share_one_entry(self, robot_trace):
        # Two window lists covering the same signal — one split at 30 s,
        # one contiguous — merge to the same spans and must share a
        # cache entry: the detector only ever sees the merged spans.
        ctx = RunContext()
        app = StepsApp()
        first = ctx.detections(app, robot_trace, [(0.0, 30.0), (30.0, 60.0)])
        second = ctx.detections(app, robot_trace, [(0.0, 60.0)])
        assert second is first
        assert ctx.stats.detect_misses == 1
        assert ctx.stats.detect_hits == 1

    def test_merged_result_is_faithful(self, robot_trace):
        ctx = RunContext()
        app = StepsApp()
        cached = ctx.detections(app, robot_trace, [(0.0, 30.0), (30.0, 60.0)])
        direct = app.detect(robot_trace, [(0.0, 60.0)])
        assert list(cached) == list(direct)

    def test_equal_app_instances_share_entries(self, robot_trace):
        # Content-keyed apps: a re-pickled copy (as in a pool worker
        # dispatch) must hit the same entries as the original.
        ctx = RunContext()
        ctx.detections(StepsApp(), robot_trace, [(0.0, 30.0)])
        ctx.detections(StepsApp(), robot_trace, [(0.0, 30.0)])
        assert ctx.stats.detect_misses == 1
        assert ctx.stats.detect_hits == 1


class TestCompiledContext:
    def test_compiled_and_round_events_identical(self, robot_trace):
        program = StepsApp().build_wakeup_pipeline()
        compiled_ctx = RunContext(compiled=True)
        round_ctx = RunContext(compiled=False)
        compiled = compiled_ctx.wake_events(
            compiled_ctx.compile(program), robot_trace
        )
        by_rounds = round_ctx.wake_events(
            round_ctx.compile(StepsApp().build_wakeup_pipeline()), robot_trace
        )
        assert compiled
        assert compiled == by_rounds

    def test_no_compile_runs_the_round_interpreter(self, robot_trace):
        # --no-compile means the round interpreter, the oracle, even for
        # a chunk-invariant condition that would compile: no other tier
        # is filed in the ledger.
        from repro.hub.compile import compile_eligibility

        ctx = RunContext(compiled=False)
        graph = ctx.compile(StepsApp().build_wakeup_pipeline())
        assert compile_eligibility(graph) is None
        ctx.wake_events(graph, robot_trace)
        ctx.wake_events_batch([(graph, robot_trace)], chunk_seconds=2.0)
        ledger = ctx.cost_model.as_dict()
        fingerprint = ctx.fingerprint(graph.program)
        assert list(ledger) == [fingerprint]
        assert list(ledger[fingerprint]) == ["rounds"]
        assert ledger[fingerprint]["rounds"]["runs"] == 2

    def test_plan_cached_by_fingerprint(self, robot_trace, quiet_robot_trace):
        ctx = RunContext(compiled=True)
        graph = ctx.compile(StepsApp().build_wakeup_pipeline())
        ctx.wake_events(graph, robot_trace)
        assert ctx.stats.plan_misses == 1
        # A second trace through the same condition reuses the plan …
        ctx.wake_events(graph, quiet_robot_trace)
        assert ctx.stats.plan_hits == 1
        # … and so does an equal program compiled separately.
        again = ctx.compile(StepsApp().build_wakeup_pipeline())
        ctx.wake_events(again, robot_trace, chunk_seconds=2.0)
        assert ctx.stats.plan_hits == 2
        assert ctx.stats.plan_misses == 1

    def test_ineligible_condition_falls_back(self, robot_trace):
        from repro.il.parser import parse_program

        # expMovingAvg is not chunk-invariant, so the condition cannot
        # compile and must interpret round by round — with the
        # ineligibility memoized, not re-derived per trace.
        program = parse_program(
            "ACC_X -> expMovingAvg(id=1, params={0.2});"
            "1 -> minThreshold(id=2, params={2.0});"
            "2 -> OUT;"
        )
        ctx = RunContext(compiled=True)
        graph = ctx.validated(program)
        events = ctx.wake_events(graph, robot_trace)
        round_ctx = RunContext(compiled=False)
        expected = round_ctx.wake_events(
            round_ctx.validated(parse_program(
                "ACC_X -> expMovingAvg(id=1, params={0.2});"
                "1 -> minThreshold(id=2, params={2.0});"
                "2 -> OUT;"
            )),
            robot_trace,
        )
        assert events == expected
        assert ctx.compiled_plan(graph) is None
        assert ctx.stats.plan_hits >= 1


class TestExecutor:
    def test_small_plan_falls_back_to_serial(self, robot_trace):
        from repro.sim.engine import MIN_POOL_CELLS, execute_plan_with_info, shutdown_pool

        shutdown_pool()
        plan = plan_matrix([AlwaysAwake(), Oracle()], [StepsApp()], [robot_trace])
        assert len(plan) < MIN_POOL_CELLS
        results, info = execute_plan_with_info(plan, jobs=4)
        assert len(results) == len(plan)
        assert info.mode == "serial"
        assert info.requested_jobs == 4
        assert "below the pool threshold" in info.reason

    def test_pool_persists_and_is_reused(self, robot_trace, quiet_robot_trace):
        from repro.sim.engine import execute_plan_with_info, shutdown_pool

        shutdown_pool()
        configs = [AlwaysAwake(), Oracle(), Sidewinder()] * 5
        plan = plan_matrix(configs, [StepsApp()], [robot_trace, quiet_robot_trace])
        serial = execute_plan(plan)
        first, info1 = execute_plan_with_info(plan, jobs=2)
        assert info1.mode == "pool"
        assert not info1.pool_reused
        assert info1.batches == 2
        second, info2 = execute_plan_with_info(plan, jobs=2)
        assert info2.mode == "pool"
        assert info2.pool_reused

        def rows(results):
            return [
                (r.config_name, r.app_name, r.trace_name,
                 r.average_power_mw, r.recall, r.precision)
                for r in results
            ]

        assert rows(first) == rows(serial)
        assert rows(second) == rows(serial)
        shutdown_pool()

    def test_pool_workers_take_the_context_switches(self):
        # A serving context that turns batching off must get unbatched
        # pool workers: the scheduler hands the engine its context, and
        # the pool builds (and keys) its workers from the context's
        # switches alone.
        from repro.serve.scheduler import HUB_CATALOGS, Scheduler
        from repro.serve.submission import Submission, Ticket
        from repro.sim.engine import MIN_POOL_CELLS
        from repro.traces.robot import RobotRunConfig, generate_robot_run

        traces = {
            trace.name: trace
            for trace in (
                generate_robot_run(
                    RobotRunConfig(group=g, duration_s=60.0, seed=90 + k)
                )
                for k, g in enumerate((1, 2, 3, 1))
            )
        }
        apps = ("steps", "transitions", "headbutts")
        submissions = [
            Submission(f"t{k}", name, app=app, hub=hub)
            for k, (name, app, hub) in enumerate(
                (name, app, hub)
                for name in traces
                for app in apps
                for hub in sorted(HUB_CATALOGS)
            )
        ]
        assert len(submissions) >= MIN_POOL_CELLS
        context = RunContext(batch=False, shape_batch=False)
        scheduler = Scheduler(traces, context, jobs=2)
        entries = [
            (Ticket(k, sub.tenant, 0.0), sub)
            for k, sub in enumerate(submissions)
        ]
        try:
            responses, engine_runs, _ = scheduler.run_batch(entries, now=1.0)
            assert engine_runs == len(submissions)
            assert all(isinstance(r, Completed) for r in responses)
            assert context.pool.active
            probes = [
                context.pool._pool.submit(_worker_switches) for _ in range(4)
            ]
            assert {probe.result() for probe in probes} == {
                (True, True, False, False)
            }
        finally:
            context.shutdown_pool()


def _worker_switches():
    """Run in a pool worker: the switches its context was built with."""
    from repro.sim import engine

    worker = engine._WORKER_CONTEXT
    return (worker.cache, worker.compiled, worker.batch, worker.shape_batch)
