"""The simulation engine: shared run state and the experiment executor.

The paper's whole evaluation is one (configuration × application ×
trace) sweep, and large parts of every cell are identical: compiling an
application's wake-up pipeline, pulling a trace's channel arrays, and —
most expensively — interpreting a wake-up condition over a trace on the
hub.  Different sensing configurations repeat that shared work cell by
cell.  This module centralizes it:

* :class:`RunContext` memoizes compiled/validated condition graphs
  (keyed by a content fingerprint of the IL program), per-trace channel
  arrays, hub wake-event runs keyed by ``(graph fingerprint, trace,
  chunk_seconds)``, and precise-detector invocations — so Sidewinder,
  Predefined Activity, concurrent, adaptive, and fault-recovery runs
  stop re-interpreting identical (condition, trace) pairs.

* :func:`plan_matrix` builds an explicit :class:`RunPlan` of
  (config, app, trace) cells, recording the (app, trace) pairs a sweep
  must skip instead of silently dropping them.

* :func:`execute_plan` executes a plan serially through one shared
  context, or across a process pool (``jobs=N``) with cells grouped by
  trace so each worker still deduplicates its own hub work.  Result
  order is deterministic regardless of completion order.

A context is **not** thread-safe: cached graphs hold stateful algorithm
instances and are reset before each reuse.  Process-based parallelism
sidesteps this — each worker owns a private context.
"""

from __future__ import annotations

import atexit
import hashlib
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.api.compile import compile_pipeline
from repro.api.pipeline import ProcessingPipeline
from repro.errors import HubExecutionError
from repro.hub.compile import (
    BatchedPlan,
    CompiledPlan,
    batch_eligibility,
    compile_batched,
    compile_eligibility,
    compile_graph,
    shape_signature,
    structural_key,
)
from repro.hub.costmodel import CostModel
from repro.hub.merge import (
    NodeKey,
    frontier,
    merge_graphs,
    merged_graph,
    node_keys,
)
from repro.hub.runtime import (
    HubRuntime,
    WakeEvent,
    live_nodes,
    split_into_rounds,
)
from repro.il.ast import ILProgram
from repro.il.graph import DataflowGraph
from repro.il.text import format_program
from repro.il.validate import validate_program
from repro.power.phone import NEXUS4, PhonePowerProfile
from repro.sensors.samples import Chunk
from repro.traces.base import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.apps.base import Detection, SensingApplication
    from repro.sim.configs.base import SensingConfiguration
    from repro.sim.results import SimulationResult
    from repro.traces.base import GroundTruthEvent


def program_fingerprint(program: ILProgram) -> str:
    """Content fingerprint of an IL program.

    Two programs with the same statements (opcodes, parameters, wiring,
    ids) and the same output reference fingerprint identically; any
    change — a retuned threshold, a reordered statement — changes it.
    The textual wire form (what the sensor manager would actually push
    to the hub) is the canonical content.
    """
    text = format_program(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`RunContext`.

    Attributes:
        compile_hits / compile_misses: Validated-graph lookups.
        plan_hits / plan_misses: Compiled whole-trace plan lookups
            (keyed by IL fingerprint; a hit may return ``None`` for a
            condition known to be compile-ineligible).
        hub_hits / hub_misses: Hub wake-event run lookups.
        trace_hits / trace_misses: Per-trace channel-array lookups.
        detect_hits / detect_misses: Precise-detector invocations.
        batch_rounds / batched_cells: Tensor-major hub dispatches — how
            many batched executions ran and how many per-trace runs
            they covered (each covered run also counts as a
            ``hub_miss``; the batch only changes how it was computed).
        shape_rounds / shape_cells: Shape-keyed heterogeneous
            dispatches — batched executions that mixed *different*
            fingerprints sharing one graph shape, and the rows they
            covered (counted separately from the exact-fingerprint
            ``batch_rounds``).
        batch_padded_cells / batch_valid_cells: Channel-tensor cells
            allocated vs actually valid across every stacked dispatch
            (homogeneous and shape-keyed); their ratio is the padding
            waste the splitting guard keeps bounded.
        merge_rounds / merged_cells: Merged-graph interpreter runs —
            round-interpreter rows of one recording run as one merged
            graph — and the rows they answered (each also a
            ``hub_miss``).
        merge_shared_nodes: Node instances those merged runs did not
            run because another row's identical node already did.
        shared_reads: Recorded shared-node outputs replayed into a hub
            run instead of recomputing the node and what only feeds it
            (see :meth:`RunContext._recorded`).
        shared_entries / shared_bytes: Shared-node outputs the context
            holds, and their array bytes.
    """

    compile_hits: int = 0
    compile_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    hub_hits: int = 0
    hub_misses: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    detect_hits: int = 0
    detect_misses: int = 0
    batch_rounds: int = 0
    batched_cells: int = 0
    shape_rounds: int = 0
    shape_cells: int = 0
    batch_padded_cells: int = 0
    batch_valid_cells: int = 0
    merge_rounds: int = 0
    merged_cells: int = 0
    merge_shared_nodes: int = 0
    shared_reads: int = 0
    shared_entries: int = 0
    shared_bytes: int = 0

    @property
    def total_hits(self) -> int:
        """All cache hits across categories."""
        return (
            self.compile_hits + self.plan_hits + self.hub_hits
            + self.trace_hits + self.detect_hits
        )

    @property
    def batch_padding_ratio(self) -> float:
        """Allocated over valid stacked cells (1.0 means zero waste)."""
        if self.batch_valid_cells <= 0:
            return 1.0
        return self.batch_padded_cells / self.batch_valid_cells

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for logs and benchmark artifacts)."""
        return {
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "hub_hits": self.hub_hits,
            "hub_misses": self.hub_misses,
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "detect_hits": self.detect_hits,
            "detect_misses": self.detect_misses,
            "batch_rounds": self.batch_rounds,
            "batched_cells": self.batched_cells,
            "shape_rounds": self.shape_rounds,
            "shape_cells": self.shape_cells,
            "batch_padded_cells": self.batch_padded_cells,
            "batch_valid_cells": self.batch_valid_cells,
            "merge_rounds": self.merge_rounds,
            "merged_cells": self.merged_cells,
            "merge_shared_nodes": self.merge_shared_nodes,
            "shared_reads": self.shared_reads,
            "shared_entries": self.shared_entries,
            "shared_bytes": self.shared_bytes,
        }


class _Row(NamedTuple):
    """One uncached (condition, trace) run of a batched call.

    ``group_key`` is the shape signature of the shape group the row
    came from (its runs are filed under it too), else ``None``;
    ``indices`` are the input positions the row answers.
    """

    fp: str
    group_key: Optional[str]
    graph: DataflowGraph
    trace: Trace
    indices: List[int]


def _joined(rounds: Sequence[Chunk]) -> Optional[Chunk]:
    """A node's per-round outputs joined into one whole-trace chunk,
    read-only like them; ``None`` when no round produced an item (an
    empty round's chunk may lack the item width)."""
    parts = [chunk for chunk in rounds if len(chunk)]
    if not parts:
        return None
    times = np.concatenate([chunk.times for chunk in parts])
    values = np.concatenate([chunk.values for chunk in parts])
    times.flags.writeable = False
    values.flags.writeable = False
    return Chunk.view(parts[0].kind, times, values, parts[0].rate_hz)


class RunContext:
    """Memoized shared state for a batch of simulation runs.

    The four switches (``cache``, ``compiled``, ``batch``,
    ``shape_batch``) are the engine's only settings: the plan executors
    run serial plans through the context and build pool workers from
    its :attr:`switches`.

    Args:
        cache: When False every method computes from scratch — the
            ``--no-cache`` escape hatch; results are identical either
            way because everything cached is a pure function of its
            key.
        compiled: When True (default) the context prefers the compiled
            whole-trace array program
            (:mod:`repro.hub.compile`) over interpretation for
            compile-eligible graphs.  Tier order is compiled >
            round-by-round; both tiers produce bit-identical wake
            events, the round interpreter being the semantics oracle.
            The ``--no-compile`` escape hatch sets this False, so every
            condition runs on the round interpreter.  Fault injection
            never sees compiled plans: faulty runs replay the condition
            through the round-level simulator path, not through this
            context's fault-free interpretation.
        batch: When True (default) :meth:`wake_events_batch` may stack
            same-condition work from many traces into one tensor-major
            execution (:class:`repro.hub.compile.BatchedPlan`), and
            runs the round-interpreter conditions that share a
            recording as one merged graph
            (:func:`repro.hub.merge.merge_programs`).  The
            ``--no-batch`` escape hatch sets this False; wake events
            are bit-identical either way — batching and merging only
            change how many dispatches and node runs compute them.
        shape_batch: When True (default) :meth:`wake_events_batch` may
            additionally merge *different* fingerprints that share one
            graph shape (:func:`repro.hub.compile.shape_signature`)
            into a single heterogeneous dispatch, with per-row
            parameters lifted into tensors
            (:meth:`repro.hub.compile.BatchedPlan.execute_shape_batch`).
            The ``--no-shape-batch`` escape hatch sets this False;
            wake events are bit-identical either way.  Implies nothing
            when ``batch`` is off — shape batching rides on the
            batched path.
        cost_model: The tier selector
            (:class:`repro.hub.costmodel.CostModel`) consulted on every
            hub run.  Tiers are bit-identical, so it only decides
            *which* one runs, from its calibrated table and the static
            preference order; every run is also timed into its ledger
            for reports.  ``None`` builds a private model over the
            default :data:`repro.hub.costmodel.CALIBRATED_TABLE`.

    Cache keys and invalidation rules:

    * **Validated graphs** are keyed by the IL program's content
      fingerprint (:func:`program_fingerprint`).  A cached graph's
      algorithm instances are stateful, so the graph is reset to cold
      state before every reuse; retuning a parameter produces a new
      fingerprint and therefore a fresh entry.
    * **Compiled plans** are keyed by the same fingerprint, alongside
      the graph cache.  A fingerprint maps to ``None`` when its
      condition is compile-ineligible, so the (cheap, but not free)
      eligibility walk also runs once per condition.  Plans are
      stateless, so no reset is needed between reuses.
    * **Channel arrays** are keyed by trace object identity (the
      context pins the object, so the id cannot be recycled).  Traces
      are treated as immutable once handed to a context.
    * **Hub runs** are keyed by ``(graph fingerprint, trace,
      chunk_seconds)`` — the complete determinants of a fault-free
      interpretation.  Faulty runs are never cached (the injector
      draws from a stochastic plan).
    * **Shared node outputs** are keyed by ``(trace, chunk_seconds,
      sorted channel set, node key)``, the node key being the
      structural identity :func:`repro.hub.merge.node_keys` gives
      (opcode, parameters, input keys): the complete determinants of
      one node's per-round outputs from a cold start.  Only merged
      runs record them, for their frontier nodes
      (:func:`repro.hub.merge.frontier`), and every later hub run on
      that recording replays them (:meth:`_recorded`).  Nothing
      evicts them.
    * **Detector runs** are keyed by ``(application content key,
      trace, merged visible spans)``; ground-truth lookups by
      ``(application content key, trace)``.  The content key covers
      the app's class and constructor state, so two equally
      parameterized instances — e.g. an app re-pickled into a pool
      worker — share entries while differently tuned copies stay
      distinct.  Windows are canonicalized with
      :func:`repro.apps.detectors.merge_spans` before keying because
      every detector reads its input through the same merge (a
      detector is a pure function of the merged visible spans), so
      configs that cover the same signal with differently split
      window lists share one entry.
    """

    def __init__(
        self,
        cache: bool = True,
        compiled: bool = True,
        batch: bool = True,
        shape_batch: bool = True,
        cost_model: Optional[CostModel] = None,
        pool: Optional["EnginePool"] = None,
    ):
        self.cache = cache
        self.compiled = compiled
        self.batch = batch
        self.shape_batch = shape_batch
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # The context's own persistent-pool handle (workers fork only
        # when a plan actually warrants them).  Sharing a handle across
        # contexts is allowed — pass the same one — but the default is
        # isolation: two contexts with different settings no longer
        # tear down each other's warm workers.
        self.pool: "EnginePool" = pool if pool is not None else EnginePool()
        self.stats = CacheStats()
        self._graphs: Dict[str, DataflowGraph] = {}
        self._compiled_plans: Dict[str, Optional[CompiledPlan]] = {}
        self._batched_plans: Dict[str, Optional[BatchedPlan]] = {}
        self._fingerprints: Dict[int, Tuple[ILProgram, str]] = {}
        self._traces: Dict[int, Trace] = {}
        self._channel_arrays: Dict[int, Dict[str, tuple]] = {}
        self._hub_runs: Dict[Tuple[str, int, float], Tuple[WakeEvent, ...]] = {}
        self._shared: Dict[
            Tuple[int, float, Tuple[str, ...]],
            Dict[NodeKey, Tuple[Chunk, ...]],
        ] = {}
        self._shape_sigs: Dict[str, str] = {}
        self._structural_keys: Dict[str, tuple] = {}
        self._detections: Dict[tuple, Tuple["Detection", ...]] = {}
        self._events: Dict[tuple, Tuple["GroundTruthEvent", ...]] = {}
        self._apps: Dict[int, "SensingApplication"] = {}

    @property
    def switches(self) -> Tuple[bool, bool, bool, bool]:
        """``(cache, compiled, batch, shape_batch)``, in constructor order.

        Pool workers are built from it (``RunContext(*switches)``), and
        it keys the pool: a warm pool serves only contexts with equal
        switches.
        """
        return (
            bool(self.cache), bool(self.compiled), bool(self.batch),
            bool(self.shape_batch),
        )

    # -- compiled conditions -------------------------------------------

    def fingerprint(self, program: ILProgram) -> str:
        """Content fingerprint, memoized per program object."""
        entry = self._fingerprints.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1]
        fp = program_fingerprint(program)
        self._fingerprints[id(program)] = (program, fp)
        return fp

    def compile(self, pipeline: ProcessingPipeline) -> DataflowGraph:
        """Compile and validate a wake-up pipeline, memoized by content."""
        return self.validated(compile_pipeline(pipeline))

    def validated(self, program: ILProgram) -> DataflowGraph:
        """A validated executable graph for ``program``, memoized.

        The returned graph may be shared across runs; callers must
        treat it as checked out for the duration of one run (the
        context resets it before each cached hub run).
        """
        if not self.cache:
            return validate_program(program)
        fp = self.fingerprint(program)
        graph = self._graphs.get(fp)
        if graph is not None:
            self.stats.compile_hits += 1
            return graph
        self.stats.compile_misses += 1
        graph = validate_program(program)
        self._graphs[fp] = graph
        return graph

    def compiled_plan(self, graph: DataflowGraph) -> Optional[CompiledPlan]:
        """The graph's whole-trace array program, or ``None`` if ineligible.

        Memoized by the IL program's content fingerprint alongside the
        validated-graph cache; ineligibility is memoized too (as
        ``None``), so the eligibility walk runs once per condition.
        """
        if not self.cache:
            if compile_eligibility(graph) is None:
                return compile_graph(graph)
            return None
        fp = self.fingerprint(graph.program)
        if fp in self._compiled_plans:
            self.stats.plan_hits += 1
            return self._compiled_plans[fp]
        self.stats.plan_misses += 1
        plan = (
            compile_graph(graph) if compile_eligibility(graph) is None else None
        )
        self._compiled_plans[fp] = plan
        return plan

    def batched_plan(self, graph: DataflowGraph) -> Optional[BatchedPlan]:
        """The graph's tensor-major array program, or ``None`` if ineligible.

        Memoized like :meth:`compiled_plan` (ineligibility included).
        Batch eligibility is compile eligibility plus a scalar output
        stream (:func:`repro.hub.compile.batch_eligibility`), so every
        batched plan has a per-trace twin to fall back on.
        """
        if not self.cache:
            if batch_eligibility(graph) is None:
                return compile_batched(graph)
            return None
        fp = self.fingerprint(graph.program)
        if fp in self._batched_plans:
            return self._batched_plans[fp]
        plan = (
            compile_batched(graph) if batch_eligibility(graph) is None else None
        )
        self._batched_plans[fp] = plan
        return plan

    def shape_sig(self, graph: DataflowGraph) -> str:
        """The graph's canonical shape signature, memoized by fingerprint.

        Parameters are struck out (only names survive), so distinctly
        tuned copies of one detector share a signature — the key the
        heterogeneous batching path groups by.
        """
        fp = self.fingerprint(graph.program)
        sig = self._shape_sigs.get(fp)
        if sig is None:
            sig = shape_signature(graph)
            self._shape_sigs[fp] = sig
        return sig

    def struct_key(self, graph: DataflowGraph) -> tuple:
        """Non-liftable parameter values in topo order, memoized.

        Two shape-equal graphs with equal structural keys differ only
        in parameters the row-lowering kernels can vary per row, so
        they may share one heterogeneous dispatch.
        """
        fp = self.fingerprint(graph.program)
        key = self._structural_keys.get(fp)
        if key is None:
            key = structural_key(graph)
            self._structural_keys[fp] = key
        return key

    # -- traces --------------------------------------------------------

    def _trace_key(self, trace: Trace) -> int:
        key = id(trace)
        pinned = self._traces.get(key)
        if pinned is not trace:
            self._traces[key] = trace
            self._channel_arrays.pop(key, None)
        return key

    def channel_arrays(self, trace: Trace) -> Dict[str, tuple]:
        """``trace.channel_arrays()``, computed once per trace."""
        if not self.cache:
            return trace.channel_arrays()
        key = self._trace_key(trace)
        arrays = self._channel_arrays.get(key)
        if arrays is not None:
            self.stats.trace_hits += 1
            return arrays
        self.stats.trace_misses += 1
        arrays = trace.channel_arrays()
        self._channel_arrays[key] = arrays
        return arrays

    # -- hub runs ------------------------------------------------------

    def wake_events(
        self, graph: DataflowGraph, trace: Trace, chunk_seconds: float = 4.0
    ) -> Tuple[WakeEvent, ...]:
        """Wake events of one condition over one trace, computed once.

        Raises:
            HubExecutionError: when the trace lacks a channel the
                condition reads.
        """
        if not self.cache:
            return tuple(self._interpret(graph, trace, chunk_seconds))
        key = (
            self.fingerprint(graph.program),
            self._trace_key(trace),
            float(chunk_seconds),
        )
        events = self._hub_runs.get(key)
        if events is not None:
            self.stats.hub_hits += 1
            return events
        self.stats.hub_misses += 1
        events = tuple(self._interpret(graph, trace, chunk_seconds))
        self._hub_runs[key] = events
        return events

    def _trace_channels(
        self, graph_channels: Sequence[str], trace: Trace
    ) -> Dict[str, tuple]:
        """The trace's channel arrays a condition reads, validated."""
        arrays = self.channel_arrays(trace)
        channels = {
            name: triple
            for name, triple in arrays.items()
            if name in graph_channels
        }
        missing = set(graph_channels) - set(channels)
        if missing:
            raise HubExecutionError(
                f"trace {trace.name!r} lacks channels {sorted(missing)} "
                "needed by the wake-up condition"
            )
        return channels

    def _choose(self, key: str, plan: Optional[CompiledPlan]) -> str:
        """The cost model's tier for ``key``'s work: ``compiled`` is
        allowed only when there is a ``plan``, ``rounds`` always.

        Both tiers are bit-identical, so the choice only picks the way
        to the same events.
        """
        allowed = ("compiled", "rounds") if plan is not None else ("rounds",)
        return self.cost_model.choose(key, allowed)

    def _interpret(
        self,
        graph: DataflowGraph,
        trace: Trace,
        chunk_seconds: float,
        tier: Optional[str] = None,
        group_key: Optional[str] = None,
    ) -> List[WakeEvent]:
        """One condition over one trace at ``tier`` (asked when ``None``).

        Shared node outputs a merged run recorded on this recording are
        replayed, so only the condition's own tail runs
        (:meth:`_recorded`).  The run's seconds are filed under the
        fingerprint and, for a row of a shape group, also under the
        group's ``group_key``.
        """
        channels = self._trace_channels(graph.channels, trace)
        plan = self.compiled_plan(graph) if self.compiled else None
        fp = self.fingerprint(graph.program)
        if tier is None:
            tier = self._choose(fp, plan)
        items = sum(len(triple[0]) for triple in channels.values())
        stored = self.cache and self._shared.get(
            self._recording(trace, chunk_seconds, graph.channels)
        )
        recorded = (
            self._recorded(
                graph, (graph.output_id,), node_keys(graph.program), stored
            )
            if stored else {}
        )
        start = time.perf_counter()
        if tier == "compiled":
            # The compiled whole-trace array program (no rounds, no
            # interpreter state at all).  Plans are pure, so no reset.
            # A recorded node's rounds join into its whole-trace output.
            known = {
                node_id: whole for node_id, rounds in recorded.items()
                if (whole := _joined(rounds)) is not None
            }
            self.stats.shared_reads += len(known)
            events = plan.execute(channels, known)
        else:
            # The graph may be a cached instance whose algorithm objects
            # carry state from a previous run; start cold.
            graph.reset()
            self.stats.shared_reads += len(recorded)
            events = HubRuntime(graph).run(
                split_into_rounds(channels, chunk_seconds), known=recorded
            )
        elapsed = time.perf_counter() - start
        self.cost_model.observe(fp, tier, elapsed, items)
        if group_key is not None:
            self.cost_model.observe(group_key, tier, elapsed, items)
        return events

    # -- shared node outputs -------------------------------------------

    def _recording(
        self, trace: Trace, chunk_seconds: float, channels: Sequence[str]
    ) -> Tuple[int, float, Tuple[str, ...]]:
        """The shared-output store's key for one recording's rounds:
        round edges follow the trace, the round length and the set of
        channels split."""
        return (
            self._trace_key(trace), float(chunk_seconds),
            tuple(sorted(channels)),
        )

    @staticmethod
    def _recorded(
        graph: DataflowGraph,
        outputs: Sequence[int],
        keys: Dict[int, NodeKey],
        stored: Dict[NodeKey, Tuple[Chunk, ...]],
    ) -> Dict[int, Tuple[Chunk, ...]]:
        """Recorded per-round outputs a run of ``graph`` replays, by
        node id (``keys`` gives each node's key).

        Of the nodes whose key is ``stored``, those a walk back from
        ``outputs`` reaches before any other stored node
        (:func:`repro.hub.runtime.live_nodes`); each one a run takes
        counts as a ``shared_read``.  Answers stay bit-identical: the
        round interpreter gets back exactly the outputs it produced
        over the same rounds, and a compiled plan's joined rounds equal
        the node's whole-trace ``lower`` output, since every
        compile-eligible node is chunk-invariant.
        """
        hits = {node_id for node_id, key in keys.items() if key in stored}
        if not hits:
            return {}
        reached = hits & live_nodes(graph.nodes, outputs, hits)
        return {node_id: stored[keys[node_id]] for node_id in reached}

    def _record(
        self,
        stored: Dict[NodeKey, Tuple[Chunk, ...]],
        key: NodeKey,
        rounds: List[Chunk],
    ) -> None:
        """Keep one node's per-round outputs as the interpreter produced
        them, read-only, so an in-place write downstream raises instead
        of changing later answers."""
        for chunk in rounds:
            chunk.times.flags.writeable = False
            chunk.values.flags.writeable = False
            self.stats.shared_bytes += chunk.times.nbytes + chunk.values.nbytes
        stored[key] = tuple(rounds)
        self.stats.shared_entries += 1

    def wake_events_batch(
        self,
        items: Sequence[Tuple[DataflowGraph, Trace]],
        chunk_seconds: float = 4.0,
    ) -> List[Tuple[WakeEvent, ...]]:
        """Wake events for many (condition, trace) pairs, batched.

        Bit-identical to calling :meth:`wake_events` per pair, in input
        order — batching only changes how the uncached work is computed.
        Cached pairs are served as usual; the rest group by condition
        fingerprint.  Results are cached under the same keys either way,
        so later :meth:`wake_events` calls hit.  A context with
        ``batch``/``cache``/``compiled`` off runs every pair through
        :meth:`wake_events`.

        With ``shape_batch`` on (the default), batch-eligible
        fingerprints with no table entry of their own that share a
        graph *shape* (:func:`repro.hub.compile.shape_signature` — same
        opcodes and wiring, different parameter values) merge into one
        heterogeneous group keyed by the shape signature.  A pinned
        fingerprint runs its pinned tier.

        Each group — a fingerprint's or a shape's — asks the cost model
        for its tier once and runs through :meth:`_run_group`: on
        ``compiled``, rows that share a structural key and rate
        signature stack into one tensor-major dispatch.

        Rows on ``rounds`` — per-fingerprint and shape-group rows alike
        — are pooled last and grouped by (trace, set of channels read).
        A group of two or more runs as one merged graph
        (:func:`repro.hub.merge.merge_programs`, the paper's §7 pipeline
        merging), interpreted once over the rounds each row would see
        alone, so every shared node receives exactly the input it would
        receive in the row's own graph (:meth:`_run_merged`).  A lone
        rounds row runs as it would alone.

        Raises:
            HubExecutionError: when a trace lacks a channel its
                condition reads — before any uncached work runs.
        """
        results: List[Optional[Tuple[WakeEvent, ...]]] = [None] * len(items)
        if not (self.batch and self.cache and self.compiled):
            for i, (graph, trace) in enumerate(items):
                results[i] = self.wake_events(graph, trace, chunk_seconds)
            return results  # type: ignore[return-value]
        # Group uncached work by condition fingerprint; one row per
        # distinct trace (duplicate pairs share the row's result).
        groups: Dict[str, Dict[int, _Row]] = {}
        for i, (graph, trace) in enumerate(items):
            key = (
                self.fingerprint(graph.program),
                self._trace_key(trace),
                float(chunk_seconds),
            )
            cached = self._hub_runs.get(key)
            if cached is not None:
                self.stats.hub_hits += 1
                results[i] = cached
                continue
            row = groups.setdefault(key[0], {}).get(key[1])
            if row is None:
                # A missing channel raises before any uncached work runs.
                self._trace_channels(graph.channels, trace)
                groups[key[0]][key[1]] = _Row(key[0], None, graph, trace, [i])
            else:
                row.indices.append(i)
        # Merge unpinned, batch-eligible fingerprint groups that share a
        # graph shape into heterogeneous groups (two or more distinct
        # fingerprints); everything else runs per fingerprint below.
        shape_groups: Dict[str, List[_Row]] = {}
        if self.shape_batch:
            by_sig: Dict[str, List[str]] = {}
            for fp, members in groups.items():
                graph = next(iter(members.values())).graph
                pinned = fp in self.cost_model.table
                if pinned or self.batched_plan(graph) is None:
                    continue
                by_sig.setdefault(self.shape_sig(graph), []).append(fp)
            for sig, fps in by_sig.items():
                if len(fps) < 2:
                    continue
                shape_groups[sig] = [
                    row._replace(group_key=sig)
                    for fp in fps
                    for row in groups.pop(fp).values()
                ]
        rounds_rows: List[_Row] = []
        for fp, members in groups.items():
            self._run_group(
                fp, list(members.values()), chunk_seconds, results, rounds_rows
            )
        for sig, rows in shape_groups.items():
            self._run_group(sig, rows, chunk_seconds, results, rounds_rows)
        self._run_rounds_rows(rounds_rows, chunk_seconds, results)
        return results  # type: ignore[return-value]

    def _store(
        self,
        fp: str,
        trace: Trace,
        chunk_seconds: float,
        events: Tuple[WakeEvent, ...],
        indices: List[int],
        results: List[Optional[Tuple[WakeEvent, ...]]],
    ) -> None:
        """Cache one freshly computed uncached run and hand it out."""
        self.stats.hub_misses += 1
        self._hub_runs[
            (fp, self._trace_key(trace), float(chunk_seconds))
        ] = events
        for i in indices:
            results[i] = events

    def _run_rows(
        self,
        rows: Sequence[_Row],
        tier: str,
        chunk_seconds: float,
        results: List[Optional[Tuple[WakeEvent, ...]]],
    ) -> None:
        """Run rows one by one at their group's ``tier``, and cache them."""
        for row in rows:
            events = tuple(
                self._interpret(
                    row.graph, row.trace, chunk_seconds, tier, row.group_key
                )
            )
            self._store(
                row.fp, row.trace, chunk_seconds, events, row.indices, results
            )

    def _run_group(
        self,
        key: str,
        rows: List[_Row],
        chunk_seconds: float,
        results: List[Optional[Tuple[WakeEvent, ...]]],
        rounds_rows: List[_Row],
    ) -> None:
        """Run one group of uncached work: a fingerprint's or a shape's.

        The group asks the cost model for ``key``'s tier once.  Rows on
        ``rounds`` are pooled in ``rounds_rows`` for
        :meth:`_run_rounds_rows`.  On ``compiled``, batch-eligible rows
        sub-group by structural key and rate signature (almost always
        one sub-group), and each sub-group of two or more rows is one
        stacked dispatch, filed under ``key``: a fingerprint group's
        through :meth:`repro.hub.compile.BatchedPlan.execute_batch`, a
        shape group's — whose rows carry their own parameters —
        through :meth:`repro.hub.compile.BatchedPlan.execute_shape_batch`.
        Either may still split on the padding guard.  Every other row
        runs its own plan, filed under its fingerprint only.
        """
        tier = self._choose(key, self.compiled_plan(rows[0].graph))
        if tier == "rounds":
            rounds_rows.extend(rows)
            return
        # A shape group's rows are all batch-eligible; a fingerprint
        # group's rows share one graph, so its first row decides.
        if len(rows) < 2 or self.batched_plan(rows[0].graph) is None:
            self._run_rows(rows, "compiled", chunk_seconds, results)
            return
        subgroups: Dict[tuple, List[Tuple[_Row, Dict[str, tuple]]]] = {}
        for row in rows:
            bplan = self.batched_plan(row.graph)
            channels = self._trace_channels(bplan.channels, row.trace)
            rate_sig = tuple(
                float(channels[name][2]) for name in bplan.channels
            )
            subgroups.setdefault(
                (self.struct_key(row.graph), rate_sig), []
            ).append((row, channels))
        for sub in subgroups.values():
            if len(sub) == 1:
                self._run_rows(
                    [sub[0][0]._replace(group_key=None)], "compiled",
                    chunk_seconds, results,
                )
                continue
            shape = sub[0][0].group_key is not None
            bplan = self.batched_plan(sub[0][0].graph)
            total_items = sum(
                len(triple[0])
                for _, channels in sub
                for triple in channels.values()
            )
            start = time.perf_counter()
            if shape:
                batch_events, info = bplan.execute_shape_batch_with_info(
                    [
                        (self.compiled_plan(row.graph), channels)
                        for row, channels in sub
                    ]
                )
                self.stats.shape_rounds += 1
                self.stats.shape_cells += len(sub)
            else:
                batch_events, info = bplan.execute_batch_with_info(
                    [channels for _, channels in sub]
                )
                self.stats.batch_rounds += 1
                self.stats.batched_cells += len(sub)
            self.cost_model.observe(
                key, "compiled", time.perf_counter() - start, total_items
            )
            self.stats.batch_padded_cells += info.padded_cells
            self.stats.batch_valid_cells += info.valid_cells
            for (row, _), row_events in zip(sub, batch_events):
                self._store(
                    row.fp, row.trace, chunk_seconds, tuple(row_events),
                    row.indices, results,
                )

    def _run_rounds_rows(
        self,
        rows: Sequence[_Row],
        chunk_seconds: float,
        results: List[Optional[Tuple[WakeEvent, ...]]],
    ) -> None:
        """Run the pooled ``rounds`` rows, merged per recording.

        Rows group by (trace, sorted channel set): round edges come from
        the channels :func:`repro.hub.runtime.split_into_rounds` is
        given, so only rows reading exactly the same channels of one
        trace see the same rounds.  A lone row runs as it would alone.
        """
        groups: Dict[Tuple[int, Tuple[str, ...]], List[_Row]] = {}
        for row in rows:
            key = (self._trace_key(row.trace), tuple(sorted(row.graph.channels)))
            groups.setdefault(key, []).append(row)
        for group in groups.values():
            if len(group) == 1:
                self._run_rows(group, "rounds", chunk_seconds, results)
            else:
                self._run_merged(group, chunk_seconds, results)

    def _run_merged(
        self,
        rows: Sequence[_Row],
        chunk_seconds: float,
        results: List[Optional[Tuple[WakeEvent, ...]]],
    ) -> None:
        """Interpret rows of one recording as one merged graph.

        Identical subcomputations run once
        (:func:`repro.hub.merge.merge_graphs`), and each row's events
        are its own tap's.  The merged graph is built for this run and
        dropped after it, so the rows' cached graphs hold no carry
        state.  Each row is filed in the ledger as a ``rounds`` run with
        an equal share of the merged run's seconds.

        The run replays the shared node outputs already recorded on
        this recording (:meth:`_recorded`), and records each frontier
        node it computes (:func:`repro.hub.merge.frontier`), so later
        runs on the recording skip the front end the rows share.
        """
        merged = merge_graphs([row.graph for row in rows])
        graph = merged_graph(merged)
        trace = rows[0].trace
        channels = self._trace_channels(graph.channels, trace)
        items = sum(len(triple[0]) for triple in channels.values())
        stored = self._shared.setdefault(
            self._recording(trace, chunk_seconds, graph.channels), {}
        )
        known = self._recorded(graph, merged.taps, merged.keys, stored)
        self.stats.shared_reads += len(known)
        live = live_nodes(graph.nodes, merged.taps, known)
        record: Dict[int, List[Chunk]] = {
            node_id: [] for node_id in frontier(merged)
            if node_id in live and merged.keys[node_id] not in stored
        }
        start = time.perf_counter()
        tapped = HubRuntime(graph).run(
            split_into_rounds(channels, chunk_seconds), merged.taps,
            known=known, record=record,
        )
        share = (time.perf_counter() - start) / len(rows)
        for node_id, rounds in record.items():
            self._record(stored, merged.keys[node_id], rounds)
        self.stats.merge_rounds += 1
        self.stats.merged_cells += len(rows)
        self.stats.merge_shared_nodes += merged.shared_nodes
        for row, tap in zip(rows, merged.taps):
            self.cost_model.observe(row.fp, "rounds", share, items)
            if row.group_key is not None:
                self.cost_model.observe(row.group_key, "rounds", share, items)
            self._store(
                row.fp, trace, chunk_seconds, tuple(tapped[tap]),
                row.indices, results,
            )

    # -- application detectors -----------------------------------------

    def _app_key(self, app: "SensingApplication") -> tuple:
        """Content key for an application instance.

        Covers the class and all constructor-visible state, so a copy
        of the app unpickled in a pool worker shares cache entries with
        the original, while a differently parameterized copy does not.
        Falls back to object identity (with the instance pinned so the
        id cannot be recycled) when the state has no stable repr.
        """
        try:
            state = repr(sorted(vars(app).items()))
        except Exception:
            self._apps[id(app)] = app
            state = f"id:{id(app)}"
        return (type(app).__module__, type(app).__qualname__, state)

    def detections(
        self,
        app: "SensingApplication",
        trace: Trace,
        windows: Sequence[Tuple[float, float]],
    ) -> Tuple["Detection", ...]:
        """``app.detect(trace, windows)``, memoized on the merged spans."""
        if not self.cache:
            return tuple(app.detect(trace, list(windows)))
        from repro.apps.detectors import merge_spans

        key = (
            self._app_key(app),
            self._trace_key(trace),
            tuple(
                (float(a), float(b))
                for a, b in merge_spans([(float(a), float(b)) for a, b in windows])
            ),
        )
        cached = self._detections.get(key)
        if cached is not None:
            self.stats.detect_hits += 1
            return cached
        self.stats.detect_misses += 1
        cached = tuple(app.detect(trace, list(windows)))
        self._detections[key] = cached
        return cached

    def events_of_interest(
        self, app: "SensingApplication", trace: Trace
    ) -> Tuple["GroundTruthEvent", ...]:
        """``app.events_of_interest(trace)``, memoized."""
        if not self.cache:
            return tuple(app.events_of_interest(trace))
        key = (self._app_key(app), self._trace_key(trace))
        cached = self._events.get(key)
        if cached is not None:
            self.stats.detect_hits += 1
            return cached
        self.stats.detect_misses += 1
        cached = tuple(app.events_of_interest(trace))
        self._events[key] = cached
        return cached

    # -- pool lifecycle ------------------------------------------------

    def shutdown_pool(self) -> None:
        """Tear down this context's worker pool (idempotent).

        Only this context's workers: other contexts' pools — and the
        module default pool — are untouched.
        """
        self.pool.shutdown()


# -- the experiment matrix planner/executor ----------------------------


@dataclass(frozen=True)
class RunCell:
    """One (configuration, application, trace) cell of an experiment plan.

    Attributes:
        index: Position in the plan — results are always returned in
            index order, however the cells were executed.
        config: The sensing configuration to run.
        app: The application to simulate.
        trace: The trace to replay.
    """

    index: int
    config: "SensingConfiguration"
    app: "SensingApplication"
    trace: Trace

    @property
    def key(self) -> Tuple[str, str, str]:
        """(config name, app name, trace name) label."""
        return (self.config.name, self.app.name, self.trace.name)


@dataclass(frozen=True)
class SkippedCell:
    """One (application, trace) pair a sweep could not run.

    Attributes:
        app_name: The application that was skipped.
        trace_name: The trace it was skipped on.
        missing_channels: Sensor channels the app needs but the trace
            lacks.
    """

    app_name: str
    trace_name: str
    missing_channels: Tuple[str, ...]

    def describe(self) -> str:
        """One-line human-readable description."""
        channels = ", ".join(self.missing_channels)
        return (
            f"{self.app_name} on {self.trace_name}: "
            f"trace lacks channel(s) {channels}"
        )


@dataclass
class RunPlan:
    """An explicit experiment matrix: the cells to run and the skips.

    Attributes:
        cells: Runnable cells in deterministic order (trace-major, then
            application, then configuration — the order hub-run caching
            benefits from most).
        skipped: (app, trace) pairs excluded because the trace lacks
            the application's sensors.
    """

    cells: List[RunCell] = field(default_factory=list)
    skipped: List[SkippedCell] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)


def plan_matrix(
    configs: Sequence["SensingConfiguration"],
    apps: Sequence["SensingApplication"],
    traces: Sequence[Trace],
) -> RunPlan:
    """Build the explicit plan for a (config × app × trace) sweep."""
    plan = RunPlan()
    index = 0
    for trace in traces:
        for app in apps:
            missing = tuple(
                sorted(c for c in app.channels if c not in trace.data)
            )
            if missing:
                plan.skipped.append(
                    SkippedCell(app.name, trace.name, missing)
                )
                continue
            for config in configs:
                plan.cells.append(RunCell(index, config, app, trace))
                index += 1
    return plan


def plan_from_cells(
    triples: Sequence[
        Tuple["SensingConfiguration", "SensingApplication", Trace]
    ],
) -> RunPlan:
    """An explicit plan from pre-selected (config, app, trace) triples.

    The bridge the serving layer uses: a scheduler that has already
    deduplicated its submissions hands the surviving work here instead
    of a full cross-product.  Triples are reordered trace-major (stable
    by first appearance, preserving relative order within a trace) so
    :func:`execute_plan` batches them the way hub-run caching and the
    persistent pool benefit from most.  Cell indices refer to positions
    in the *input* sequence, so results from :func:`execute_plan` come
    back in the caller's submission order.

    (app, trace) pairs whose trace lacks the app's sensors are recorded
    on :attr:`RunPlan.skipped` exactly as :func:`plan_matrix` does —
    callers that pre-validated channels can treat a skip as a bug.
    """
    plan = RunPlan()
    order: List[Trace] = []
    by_trace: Dict[int, List[RunCell]] = {}
    for index, (config, app, trace) in enumerate(triples):
        missing = tuple(
            sorted(c for c in app.channels if c not in trace.data)
        )
        if missing:
            plan.skipped.append(SkippedCell(app.name, trace.name, missing))
            continue
        if id(trace) not in by_trace:
            order.append(trace)
            by_trace[id(trace)] = []
        by_trace[id(trace)].append(RunCell(index, config, app, trace))
    for trace in order:
        plan.cells.extend(by_trace[id(trace)])
    return plan


def _group_cells_by_trace(cells: Sequence[RunCell]) -> List[List[RunCell]]:
    """Consecutive cells sharing a trace, in plan order.

    Grouping by trace keeps every cell that can share hub runs and
    channel arrays inside one worker, so per-worker contexts still
    deduplicate nearly as well as one shared context.
    """
    groups: List[List[RunCell]] = []
    current: List[RunCell] = []
    for cell in cells:
        if current and current[-1].trace is not cell.trace:
            groups.append(current)
            current = []
        current.append(cell)
    if current:
        groups.append(current)
    return groups


@dataclass(frozen=True)
class ExecutionInfo:
    """How :func:`execute_plan` actually ran a plan.

    Attributes:
        requested_jobs: The ``jobs`` argument the caller passed.
        mode: ``"serial"`` or ``"pool"``.
        workers: Pool size actually used (1 for serial).
        batches: Number of trace-major batches dispatched (0 for
            serial).
        pool_reused: True when a warm persistent pool from an earlier
            call served this plan (worker caches already populated).
        reason: Human-readable explanation of the serial-vs-pool
            decision — the heuristic made observable.
        cache_stats: The executing context's cache counters
            (:meth:`CacheStats.as_dict`) snapshotted after the plan ran
            — only for serial runs, where one context served every
            cell.  ``None`` for pool runs (each worker owns private
            counters that outlive the call).
    """

    requested_jobs: int
    mode: str
    workers: int
    batches: int
    pool_reused: bool
    reason: str
    cache_stats: Optional[Dict[str, int]] = None


#: Plans smaller than this are run serially even when ``jobs > 1``
#: (unless a warm compatible pool already exists): forking workers,
#: shipping traces, and re-warming per-worker caches costs roughly this
#: many cells' worth of work, so smaller plans cannot amortize it.
MIN_POOL_CELLS = 24

# Worker-side state, set once by the pool initializer.
_WORKER_CONTEXT: Optional[RunContext] = None
_WORKER_TRACES: Dict[str, Trace] = {}


def _pool_worker_init(
    payload: tuple, switches: Tuple[bool, bool, bool, bool]
) -> None:
    """Pool initializer: one warm context + trace registry per worker.

    Runs once per worker process.  The worker's context is built from
    the dispatching context's :attr:`RunContext.switches`.  Each trace
    crosses into each worker exactly once, here; later batch dispatches
    refer to traces by name.  ``payload`` is a trace-shipping envelope
    from :func:`repro.sim.shm.export_traces` — either hollow traces
    backed by shared-memory segments (so N workers map one copy of the
    channel arrays instead of unpickling N) or plain pickled traces
    when shared memory is unavailable.
    """
    global _WORKER_CONTEXT, _WORKER_TRACES
    from repro.sim.shm import attach_traces

    _WORKER_CONTEXT = RunContext(*switches)
    _WORKER_TRACES = {trace.name: trace for trace in attach_traces(payload)}


def _run_batch(
    trace_name: str,
    cells: List[Tuple[int, "SensingConfiguration", "SensingApplication"]],
    profile: PhonePowerProfile,
) -> List[Tuple[int, "SimulationResult"]]:
    """Worker body: run one trace-major batch through the warm context."""
    trace = _WORKER_TRACES[trace_name]
    context = _WORKER_CONTEXT
    return [
        (index, config.run(app, trace, profile, context=context))
        for index, config, app in cells
    ]


class EnginePool:
    """One persistent process-pool handle, owned by whoever made it.

    A cold ProcessPoolExecutor per ``execute_plan()`` call was
    measurably *slower* than serial (parallel_speedup 0.75 in the PR-2
    benchmark): every call re-forked workers, re-pickled every trace,
    and rebuilt per-worker caches from nothing.  Instead one pool lives
    across calls; its workers each hold a warm :class:`RunContext` plus
    a trace registry filled once at worker start, so a re-dispatch
    ships only (config, app) cell descriptions — never traces — and
    hits the worker's caches immediately.

    Workers are built from, and the live pool keyed by, the
    dispatching context's :attr:`RunContext.switches`.  Each
    :class:`RunContext` owns its own handle (``context.pool``), so two
    contexts with different switches never tear down each other's warm
    workers; the module keeps one default handle for context-less
    callers.  :func:`shutdown_pool` tears down the default,
    :meth:`RunContext.shutdown_pool` a context's own.  Handles are
    cheap until :meth:`obtain` actually forks workers, and every live
    handle is torn down at interpreter exit.  A handle dropped with
    workers alive is torn down when it is collected, so its shared
    trace segments are unlinked rather than leaked.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._key: Optional[tuple] = None
        self._workers: int = 0
        self._traces: Dict[str, Trace] = {}
        self._export = None  # TraceExport keeping shm segments alive
        self._finalizer: Optional[weakref.finalize] = None
        _LIVE_POOLS.add(self)

    @property
    def export(self):
        """The live trace-shipping envelope, or ``None`` (tests only)."""
        return self._export

    @property
    def active(self) -> bool:
        """True while worker processes are alive."""
        return self._pool is not None

    def shutdown(self) -> None:
        """Tear down the workers (idempotent; the handle stays usable)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _release_pool(self._pool, self._export)
        self._pool = None
        self._key = None
        self._workers = 0
        self._traces = {}
        self._export = None

    def obtain(
        self,
        workers: int,
        switches: Tuple[bool, bool, bool, bool],
        traces: List[Trace],
    ) -> Tuple[ProcessPoolExecutor, int, bool]:
        """The pool for a context's ``switches``, (re)built if needed.

        Reuses the live pool when it was built from equal switches, it
        has at least as many workers as requested, and every plan trace
        is already registered in the workers (same name *and* same
        object — a different object under a known name would silently
        run on stale data).  A warm pool with surplus workers is kept
        rather than resized: the surplus idles, while a rebuild would
        discard every worker's warm caches.  Returns ``(pool, workers,
        reused)``.

        Traces ship to workers through shared memory when the platform
        supports it (:func:`repro.sim.shm.export_traces`): the
        initializer payload then carries only channel metadata plus
        segment names, and every worker maps the parent's arrays
        instead of re-materializing its own copy of every trace.
        """
        from repro.sim.shm import export_traces

        if (
            self._pool is not None
            and self._key == switches
            and self._workers >= workers
        ):
            shipped = all(
                self._traces.get(trace.name) is trace for trace in traces
            )
            if shipped:
                return self._pool, self._workers, True
        self.shutdown()
        registry = {trace.name: trace for trace in traces}
        export = export_traces(list(registry.values()))
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_worker_init,
            initargs=(export.payload, switches),
        )
        self._key = switches
        self._workers = workers
        # Strong references keep trace ids from being recycled while
        # the pool that shipped them is alive.
        self._traces = registry
        self._export = export
        self._finalizer = weakref.finalize(
            self, _release_pool, self._pool, export
        )
        return self._pool, workers, False

    def is_warm(
        self,
        plan: RunPlan,
        jobs: int,
        switches: Tuple[bool, bool, bool, bool],
    ) -> bool:
        """True when this handle's live pool, built from ``switches``,
        could serve the plan as-is."""
        if self._pool is None or jobs <= 1 or self._key != switches:
            return False
        return all(
            self._traces.get(cell.trace.name) is cell.trace
            for cell in plan.cells
        )


def _release_pool(pool: Optional[ProcessPoolExecutor], export) -> None:
    """Shut a pool's workers down, then unlink its shared segments."""
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    if export is not None:
        # Workers are gone (shutdown waited), so the segments can be
        # unlinked; until here this export kept them alive.
        export.close()


# Every handle ever constructed, so interpreter exit reaps stray
# workers even when an embedder forgot its own shutdown.  Weak refs:
# a collected handle's finalizer already released its workers and
# segments, and pinning it here would leak every per-context pool.
_LIVE_POOLS: "weakref.WeakSet[EnginePool]" = weakref.WeakSet()

#: The default handle, used by ``execute_plan(..., context=None)``
#: callers; one warm pool therefore still persists across bare calls.
_DEFAULT_POOL = EnginePool()


def _shutdown_all_pools() -> None:
    for handle in list(_LIVE_POOLS):
        handle.shutdown()


atexit.register(_shutdown_all_pools)


def shutdown_pool() -> None:
    """Tear down the *default* pool (idempotent).

    Contexts own their pools now — use
    :meth:`RunContext.shutdown_pool` for those; this remains the
    teardown for context-less ``execute_plan`` callers and older tests.
    """
    _DEFAULT_POOL.shutdown()


def _prewarm_batches(cells: Sequence[RunCell], context: RunContext) -> None:
    """Collect same-condition cells before dispatch and batch their hub runs.

    A serial plan visits cells one at a time, so without this the first
    cell of every (condition, trace) pair interprets alone even when
    nineteen sibling traces carry identical work.  This pass asks each
    configuration for the condition it is about to run
    (:meth:`SensingConfiguration.condition_graph`), deduplicates the
    (condition, trace) pairs, and pushes them through
    :meth:`RunContext.wake_events_batch` — warming the hub-run cache
    with tensor-major executions the per-cell loop then hits.

    Purely an execution-order change: every cached entry is
    bit-identical to the per-cell run that would otherwise compute it.
    Fault-injected configurations replay conditions through the
    round-level fault simulator, so their cells never join a batch, and
    any error (unsupported app, missing channel) is left for the owning
    cell to surface on its own terms.
    """
    if not (context.batch and context.cache and context.compiled):
        return
    pairs: List[Tuple[DataflowGraph, Trace]] = []
    seen: set = set()
    for cell in cells:
        if getattr(cell.config, "fault_plan", None) is not None:
            continue
        try:
            graph = cell.config.condition_graph(cell.app, context)
        except Exception:
            continue
        if graph is None:
            continue
        key = (context.fingerprint(graph.program), id(cell.trace))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((graph, cell.trace))
    if len(pairs) < 2:
        return
    try:
        context.wake_events_batch(pairs)
    except HubExecutionError:
        pass


def _run_serial(
    plan: RunPlan, profile: PhonePowerProfile, ctx: RunContext
) -> List[Tuple[int, "SimulationResult"]]:
    """Run every cell through one shared context, batch-prewarmed."""
    _prewarm_batches(plan.cells, ctx)
    indexed = [
        (cell.index, cell.config.run(cell.app, cell.trace, profile, context=ctx))
        for cell in plan.cells
    ]
    indexed.sort(key=lambda pair: pair[0])
    return indexed


def execute_plan(
    plan: RunPlan,
    jobs: int = 1,
    profile: PhonePowerProfile = NEXUS4,
    context: Optional[RunContext] = None,
) -> List["SimulationResult"]:
    """Execute a plan and return results in plan (index) order.

    See :func:`execute_plan_with_info` for the full contract; this
    wrapper discards the :class:`ExecutionInfo`.
    """
    results, _ = execute_plan_with_info(
        plan, jobs=jobs, profile=profile, context=context
    )
    return results


def execute_plan_with_info(
    plan: RunPlan,
    jobs: int = 1,
    profile: PhonePowerProfile = NEXUS4,
    context: Optional[RunContext] = None,
) -> Tuple[List["SimulationResult"], ExecutionInfo]:
    """Execute a plan; return results in plan order plus how they ran.

    Args:
        plan: The matrix to run.
        jobs: 1 runs serially through one shared context; ``N > 1``
            requests the persistent process pool.  The pool is only
            used when the plan is large enough to amortize worker
            startup (``MIN_POOL_CELLS``) or a warm compatible pool is
            already alive; otherwise the plan runs serially and the
            returned :class:`ExecutionInfo` says why.
        profile: Phone power profile for every cell.
        context: The engine's settings and caches.  Serial runs go
            through it — pass the same context again to reuse a warm
            cache across sweeps — and pool runs use its pool, whose
            workers are built from its :attr:`RunContext.switches`
            (worker processes cannot share the context itself).
            ``None`` runs a fresh default context over the module's
            default pool, so bare calls share one warm pool.

    Serial plans prewarm the context's hub-run cache with one batched
    execution per condition group before the per-cell loop (when its
    ``batch`` switch is on).  The pool persists across calls: workers
    are forked once, each builds a warm :class:`RunContext` and
    receives every trace exactly once via the pool initializer (through
    shared memory when the platform supports it), and later calls with
    the same switches and traces dispatch only (config, app) pairs.
    Cells are dispatched in trace-major batches so one IPC round trip
    covers a whole trace's cells.
    """
    ctx = context if context is not None else RunContext(pool=_DEFAULT_POOL)
    n = len(plan.cells)
    if jobs <= 1:
        indexed = _run_serial(plan, profile, ctx)
        info = ExecutionInfo(
            requested_jobs=jobs,
            mode="serial",
            workers=1,
            batches=0,
            pool_reused=False,
            reason="jobs<=1: serial execution requested",
            cache_stats=ctx.stats.as_dict(),
        )
        return indexed_results(indexed), info

    groups = _group_cells_by_trace(plan.cells)
    workers = max(1, min(jobs, len(groups)))
    warm = ctx.pool.is_warm(plan, jobs, ctx.switches)
    if n < MIN_POOL_CELLS and not warm:
        indexed = _run_serial(plan, profile, ctx)
        info = ExecutionInfo(
            requested_jobs=jobs,
            mode="serial",
            workers=1,
            batches=0,
            pool_reused=False,
            reason=(
                f"plan of {n} cells is below the pool threshold "
                f"({MIN_POOL_CELLS}) and no warm pool exists"
            ),
            cache_stats=ctx.stats.as_dict(),
        )
        return indexed_results(indexed), info

    traces: List[Trace] = []
    for cell in plan.cells:
        if not traces or traces[-1] is not cell.trace:
            traces.append(cell.trace)
    pool, workers, reused = ctx.pool.obtain(workers, ctx.switches, traces)
    futures = [
        pool.submit(
            _run_batch,
            group[0].trace.name,
            [(cell.index, cell.config, cell.app) for cell in group],
            profile,
        )
        for group in groups
    ]
    indexed: List[Tuple[int, "SimulationResult"]] = []
    for future in futures:
        indexed.extend(future.result())
    indexed.sort(key=lambda pair: pair[0])
    info = ExecutionInfo(
        requested_jobs=jobs,
        mode="pool",
        workers=workers,
        batches=len(groups),
        pool_reused=reused,
        reason=(
            "warm persistent pool reused"
            if reused
            else f"plan of {n} cells over {len(groups)} trace batches "
            f"warrants a pool of {workers}"
        ),
    )
    return indexed_results(indexed), info


def indexed_results(
    indexed: List[Tuple[int, "SimulationResult"]]
) -> List["SimulationResult"]:
    """Strip indices after an order-restoring sort."""
    return [result for _, result in indexed]
