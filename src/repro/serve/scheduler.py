"""The scheduler: validate, fingerprint-dedup, and batch onto the engine.

The serving layer's analogue of an inference server's request
coalescing.  Every scheduling round:

1. each submission is resolved — registry applications are compiled
   once per (app, hub) and raw IL goes through the *same* validation
   and placement path a phone-side manager uses
   (:func:`repro.api.manager.validate_condition`); a submission that
   fails validation becomes a structured :class:`Failed` response and
   never touches the rest of the batch;
2. resolved work is deduplicated by **content**: the IL program's
   fingerprint (:func:`repro.sim.engine.program_fingerprint`) plus the
   trace key and execution knobs.  N tenants pushing the same condition
   over the same trace pay for one engine run;
3. surviving application work is ordered trace-major and handed to the
   engine as one plan (:func:`repro.sim.engine.plan_from_cells` →
   :func:`execute_plan`), sharing the persistent process pool when
   ``jobs > 1``; raw-IL work runs hub-only through the shared
   :class:`~repro.sim.engine.RunContext`, with dedup-missed work across
   tenants and traces stacked into tensor-major batched plans
   (:meth:`~repro.sim.engine.RunContext.wake_events_batch`) per pump
   round, and the round's round-interpreter conditions over one
   recording run as one merged graph (the paper's §7 pipeline
   merging); a failed batched or merged run falls back to per-key
   execution, so each request gets its own answer or its own
   :class:`Failed`;
4. results fan back out to every coalesced subscriber, and land in a
   bounded cross-round memo so later identical submissions coalesce
   without re-entering the engine at all.

Results are bit-identical to direct ``Sidewinder``/engine runs: the
scheduler adds routing around the engine, never arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.compile import compile_pipeline
from repro.api.manager import validate_condition
from repro.apps import all_applications
from repro.apps.base import SensingApplication
from repro.errors import HubExecutionError, ServiceError, SidewinderError
from repro.hub.fpga import ARTIX_CLASS, HubProcessor
from repro.hub.mcu import DEFAULT_CATALOG
from repro.il.graph import DataflowGraph
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sim.configs.sidewinder import Sidewinder
from repro.sim.engine import (
    RunContext,
    execute_plan,
    plan_from_cells,
    program_fingerprint,
)
from repro.serve.submission import (
    Completed,
    Failed,
    Response,
    ServeResult,
    Submission,
    Ticket,
)
from repro.traces.base import Trace

#: Hub hardware choices a submission may name.  ``default`` is the
#: paper's MSP430 + LM4F120 pair; ``fpga`` adds the Artix-class FPGA
#: for conditions too heavy for either MCU.
HUB_CATALOGS: Dict[str, Tuple[HubProcessor, ...]] = {
    "default": tuple(DEFAULT_CATALOG),
    "fpga": tuple(DEFAULT_CATALOG) + (ARTIX_CLASS,),
}

#: Cross-round coalescing memo bound: completed work items kept for
#: future submissions to coalesce onto.  Oldest entries fall out first.
DEFAULT_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class _Work:
    """One resolved, deduplicatable unit of engine work.

    Attributes:
        key: Content identity — everything that determines the result.
        trace: The resolved trace object.
        config: Sidewinder configuration (application work only).
        app: Application instance (application work only).
        graph: Validated condition graph (raw-IL work only).
        chunk_seconds: Hub feed chunking (raw-IL work only).
    """

    key: tuple
    trace: Trace
    config: Optional[Sidewinder] = None
    app: Optional[SensingApplication] = None
    graph: Optional[DataflowGraph] = None
    chunk_seconds: float = 4.0


class Scheduler:
    """Turns batches of submissions into deduplicated engine work.

    Args:
        traces: The service's trace registry (name → trace).  Traces
            are pinned for the scheduler's lifetime so engine and pool
            caches stay valid.
        context: Shared :class:`~repro.sim.engine.RunContext` for
            serial execution and raw-IL runs; pooled application
            batches use its pool, whose workers take its switches.
        jobs: Worker processes for application batches; ``N > 1``
            shares the context's persistent pool.
        profile: Phone power profile for every run.
        memo_entries: Bound on the cross-round coalescing memo.
    """

    def __init__(
        self,
        traces: Mapping[str, Trace],
        context: RunContext,
        jobs: int = 1,
        profile: PhonePowerProfile = NEXUS4,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
    ):
        if memo_entries < 0:
            raise ServiceError(
                f"memo_entries must be non-negative, got {memo_entries}"
            )
        self._traces = dict(traces)
        self._context = context
        self._jobs = jobs
        self._profile = profile
        self._memo_entries = memo_entries
        self._apps: Dict[str, SensingApplication] = {
            app.name: app for app in all_applications()
        }
        self._configs: Dict[str, Sidewinder] = {}
        #: app name -> (program fingerprint,) memo — compiling a registry
        #: app's pipeline is pure, so once is enough.
        self._app_fingerprints: Dict[str, str] = {}
        #: IL text -> validated graph (validation reuses the manager's
        #: push path; memoized so repeat submissions skip re-validation).
        self._il_graphs: Dict[Tuple[str, str], DataflowGraph] = {}
        self._memo: Dict[tuple, ServeResult] = {}

    @property
    def batch_rounds(self) -> int:
        """Tensor-major hub dispatches the shared context has run."""
        return self._context.stats.batch_rounds

    @property
    def batched_cells(self) -> int:
        """Per-trace hub runs those batched dispatches covered."""
        return self._context.stats.batched_cells

    @property
    def shape_rounds(self) -> int:
        """Shape-keyed heterogeneous dispatches the context has run."""
        return self._context.stats.shape_rounds

    @property
    def shape_cells(self) -> int:
        """Per-trace hub runs those shape dispatches covered."""
        return self._context.stats.shape_cells

    @property
    def batch_padded_cells(self) -> int:
        """Allocated channel-tensor cells across stacked dispatches."""
        return self._context.stats.batch_padded_cells

    @property
    def batch_valid_cells(self) -> int:
        """Valid (non-padding) cells across stacked dispatches."""
        return self._context.stats.batch_valid_cells

    @property
    def merge_rounds(self) -> int:
        """Merged-graph interpreter runs the context has run."""
        return self._context.stats.merge_rounds

    @property
    def merged_cells(self) -> int:
        """Per-trace hub runs those merged runs answered."""
        return self._context.stats.merged_cells

    @property
    def merge_shared_nodes(self) -> int:
        """Node instances the merged runs did not run twice."""
        return self._context.stats.merge_shared_nodes

    # -- registry views the service validates against -------------------

    @property
    def app_names(self) -> Tuple[str, ...]:
        """Registry applications submissions may name."""
        return tuple(sorted(self._apps))

    @property
    def trace_names(self) -> Tuple[str, ...]:
        """Registry traces submissions may name."""
        return tuple(sorted(self._traces))

    @property
    def hub_names(self) -> Tuple[str, ...]:
        """Hub catalog choices submissions may name."""
        return tuple(sorted(HUB_CATALOGS))

    # -- resolution -----------------------------------------------------

    def _config_for(self, hub: str) -> Sidewinder:
        config = self._configs.get(hub)
        if config is None:
            config = Sidewinder(catalog=HUB_CATALOGS[hub])
            self._configs[hub] = config
        return config

    def _resolve(self, submission: Submission) -> _Work:
        """Validate one submission into a deduplicatable work item.

        Raises:
            SidewinderError: any library validation/placement failure —
                the caller turns it into a per-request ``Failed``.
        """
        trace = self._traces.get(submission.trace)
        if trace is None:
            raise ServiceError(f"unknown trace {submission.trace!r}")
        if submission.kind == "app":
            app = self._apps.get(submission.app or "")
            if app is None:
                raise ServiceError(f"unknown application {submission.app!r}")
            missing = sorted(c for c in app.channels if c not in trace.data)
            if missing:
                raise HubExecutionError(
                    f"trace {trace.name!r} lacks channels {missing} "
                    "needed by the wake-up condition"
                )
            fingerprint = self._app_fingerprints.get(app.name)
            if fingerprint is None:
                program = compile_pipeline(app.build_wakeup_pipeline())
                fingerprint = program_fingerprint(program)
                self._app_fingerprints[app.name] = fingerprint
            key = ("app", app.name, fingerprint, trace.name, submission.hub)
            return _Work(
                key=key,
                trace=trace,
                config=self._config_for(submission.hub),
                app=app,
            )
        graph = self._il_graphs.get((submission.il or "", submission.hub))
        if graph is None:
            # The same validation + placement a phone-side manager runs
            # before pushing to its hub; raises the library's own error
            # types on bad IL.
            program, graph, _ = validate_condition(
                submission.il or "", HUB_CATALOGS[submission.hub]
            )
            self._il_graphs[(submission.il or "", submission.hub)] = graph
        missing = sorted(c for c in graph.channels if c not in trace.data)
        if missing:
            raise HubExecutionError(
                f"trace {trace.name!r} lacks channels {missing} "
                "needed by the wake-up condition"
            )
        key = (
            "il",
            self._context.fingerprint(graph.program),
            trace.name,
            float(submission.chunk_seconds),
            submission.hub,
        )
        return _Work(
            key=key,
            trace=trace,
            graph=graph,
            chunk_seconds=float(submission.chunk_seconds),
        )

    # -- execution ------------------------------------------------------

    def _remember(self, key: tuple, result: ServeResult) -> None:
        if self._memo_entries == 0:
            return
        while len(self._memo) >= self._memo_entries:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = result

    def seed_memo(self, submission: Submission, result: ServeResult) -> bool:
        """Pre-load the coalescing memo with a known (submission, result).

        Crash recovery calls this with journaled completions before
        re-executing an interrupted round, so coalesced members whose
        payer already completed durably coalesce onto the *same* result
        object again — preserving dedup flags and bit-identity without
        re-entering the engine.  Returns False (and seeds nothing) for
        submissions that no longer resolve.
        """
        try:
            work = self._resolve(submission)
        except SidewinderError:
            return False
        self._remember(work.key, result)
        return True

    def run_batch(
        self, entries: Sequence[Tuple[Ticket, Submission]], now: float
    ) -> Tuple[List[Response], int]:
        """Run one scheduling round.

        Args:
            entries: (ticket, submission) pairs in queue order.
            now: Service-clock completion time for this round.

        Returns:
            ``(responses, engine_runs)`` — one terminal response per
            entry, in entry order, and how many unique work items
            actually entered the engine.
        """
        responses: List[Optional[Response]] = [None] * len(entries)
        works: Dict[tuple, _Work] = {}
        members: Dict[tuple, List[int]] = {}

        def latency(i: int) -> float:
            return now - entries[i][0].submitted_at

        for i, (ticket, submission) in enumerate(entries):
            try:
                work = self._resolve(submission)
            except SidewinderError as error:
                responses[i] = Failed(
                    ticket, type(error).__name__, str(error), latency(i)
                )
                continue
            works.setdefault(work.key, work)
            members.setdefault(work.key, []).append(i)

        def complete(key: tuple, result: ServeResult, payer: Optional[int]) -> None:
            for i in members[key]:
                responses[i] = Completed(
                    entries[i][0], result, dedup=(i != payer), latency=latency(i)
                )

        def fail(key: tuple, error: SidewinderError) -> None:
            for i in members[key]:
                responses[i] = Failed(
                    entries[i][0], type(error).__name__, str(error), latency(i)
                )

        fresh: List[tuple] = []
        for key in members:
            memoized = self._memo.get(key)
            if memoized is not None:
                complete(key, memoized, payer=None)
            else:
                fresh.append(key)

        engine_runs = 0

        app_keys = [k for k in fresh if works[k].app is not None]
        if app_keys:
            plan = plan_from_cells(
                [(works[k].config, works[k].app, works[k].trace) for k in app_keys]
            )
            # Channel coverage was checked in _resolve, so nothing
            # should be skipped; a skip here is a registry/trace
            # mismatch surfaced as a per-request failure.
            skipped = {(s.app_name, s.trace_name) for s in plan.skipped}
            ran = [
                k
                for k in app_keys
                if (works[k].app.name, works[k].trace.name) not in skipped
            ]
            results = execute_plan(
                plan,
                jobs=self._jobs,
                profile=self._profile,
                context=self._context,
            )
            engine_runs += len(ran)
            for key, result in zip(ran, results):
                self._remember(key, result)
                complete(key, result, payer=members[key][0])
            for key in app_keys:
                if (works[key].app.name, works[key].trace.name) in skipped:
                    fail(
                        key,
                        HubExecutionError(
                            f"trace {works[key].trace.name!r} cannot run "
                            f"{works[key].app.name!r}"
                        ),
                    )

        il_keys = [k for k in fresh if works[k].graph is not None]
        by_chunk: Dict[float, List[tuple]] = {}
        for key in il_keys:
            by_chunk.setdefault(works[key].chunk_seconds, []).append(key)
        for chunk_seconds, keys in by_chunk.items():
            # One tensor-major dispatch per (pump round, chunking):
            # dedup-missed conditions across tenants and traces stack
            # into batched plans where the engine's cost model chooses
            # the compiled tier, round-interpreter conditions of one
            # recording run as one merged graph, and the rest run
            # per-trace inside the same call.  Bit-identical either
            # way, so a batch failure (e.g. one member's missing
            # channel, or a failed merged run) simply re-runs the group
            # per key to preserve per-request errors.
            batched: Optional[List[tuple]] = None
            try:
                batched = self._context.wake_events_batch(
                    [(works[k].graph, works[k].trace) for k in keys],
                    chunk_seconds,
                )
            except SidewinderError:
                batched = None
            for position, key in enumerate(keys):
                work = works[key]
                if batched is not None:
                    events = batched[position]
                else:
                    try:
                        events = self._context.wake_events(
                            work.graph, work.trace, work.chunk_seconds
                        )
                    except SidewinderError as error:
                        fail(key, error)
                        continue
                engine_runs += 1
                result = tuple(events)
                self._remember(key, result)
                complete(key, result, payer=members[key][0])

        assert all(r is not None for r in responses)
        return list(responses), engine_runs
