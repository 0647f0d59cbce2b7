"""The hub compiler: wake-up conditions lowered to whole-trace array programs.

The interpreter (:class:`repro.hub.runtime.HubRuntime`) executes a
wake-up condition the way the paper's hub does — round by round, node by
node, with per-round chunk allocation, state bookkeeping and Python
dispatch.  This module removes that overhead entirely: a validated
graph whose nodes are all chunk-invariant over single-rate channels
(:func:`repro.hub.runtime.fusion_eligibility`) is lowered once into a
:class:`CompiledPlan` — one whole-trace numpy transform per node (each
algorithm's :meth:`~repro.algorithms.base.StreamAlgorithm.lower`
rule), topologically scheduled — and executing the plan is a single
pass over the trace with no rounds at all.

The interpreter remains the semantics oracle.  A lowering rule must be
bit-identical to feeding a fresh algorithm instance the whole trace as
one chunk, and chunk-invariance extends that identity to *any*
chunking — so a compiled plan's wake events are exactly the
interpreter's, at every chunk size.

Eligibility is explainable: :func:`compile_eligibility` returns a
human-readable reason string (or ``None``) just like
:func:`repro.hub.runtime.fusion_eligibility`, so callers can log *why*
a condition fell back to a slower tier instead of silently degrading.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import StreamAlgorithm, has_lowering, has_row_lowering
from repro.errors import HubExecutionError
from repro.hub.runtime import WakeEvent, fusion_eligibility, live_nodes
from repro.il.ast import ChannelRef, SourceRef
from repro.il.graph import DataflowGraph
from repro.sensors.samples import BatchedChunk, Chunk, StreamKind

#: Padding-waste guard: a stacked dispatch whose widest row exceeds the
#: mean row length by more than this factor splits into length-sorted
#: sub-batches instead of padding everything to the longest row.
PADDING_WASTE_THRESHOLD = 1.5


def shape_signature(graph: DataflowGraph) -> str:
    """Canonical opcode + topology hash with node parameters struck out.

    Two graphs share a shape signature exactly when they run the same
    opcodes over the same wiring — node ids normalized to topological
    positions, parameter *names* kept (they select kernel variants) but
    parameter *values* dropped.  This is the batching key one level
    above :func:`repro.sim.engine.program_fingerprint`: a fleet running
    the same detector with per-tenant thresholds has as many
    fingerprints as tenants but one shape, and shape-equal graphs can
    execute as a single parameterized tensor dispatch
    (:meth:`BatchedPlan.execute_shape_batch`).

    ``graph.nodes`` is deterministically topologically ordered (see
    :func:`repro.il.graph.build_graph`), so shape-equal graphs list
    their nodes in positional lockstep — the property the shape-batched
    executor relies on to zip per-row plans step by step.

    Returns a ``"shape:"``-prefixed SHA-256 hex digest, disjoint by
    construction from program fingerprints so both can share cost-model
    key space.
    """
    positions = {node.node_id: idx for idx, node in enumerate(graph.nodes)}
    lines = []
    for idx, node in enumerate(graph.nodes):
        refs = ",".join(
            f"ch:{ref.channel}"
            if isinstance(ref, ChannelRef)
            else f"n:{positions[ref.node_id]}"
            for ref in node.inputs
        )
        names = ",".join(sorted(node.algorithm.params))
        lines.append(f"{idx}:{node.opcode}({names})<-[{refs}]")
    lines.append(f"out:{positions[graph.output_id]}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"shape:{digest}"


def structural_key(graph: DataflowGraph) -> Tuple:
    """Parameter values the shape-batched path cannot vary per row.

    Per node in topological order, the ``(name, value)`` pairs of every
    parameter that is *not* liftable into a per-row tensor — i.e. all
    parameters of nodes without a row-lowering rule, and the
    non-``row_params`` remainder of nodes with one.  Shape-equal graphs
    with equal structural keys differ only in liftable values and can
    share one :meth:`BatchedPlan.execute_shape_batch` dispatch; the
    engine sub-groups heterogeneous work on this key.
    """
    key = []
    for node in graph.nodes:
        algorithm = node.algorithm
        liftable = (
            set(algorithm.row_params) if has_row_lowering(algorithm) else set()
        )
        key.append(
            tuple(
                (name, algorithm.params[name])
                for name in sorted(algorithm.params)
                if name not in liftable
            )
        )
    return tuple(key)


def split_for_padding(
    lengths: Sequence[int], threshold: float = PADDING_WASTE_THRESHOLD
) -> List[List[int]]:
    """Group row indices into sub-batches bounded in padding waste.

    Rows sort ascending by length and close greedily: a sub-batch stops
    growing when admitting the next (longest-so-far) row would push its
    ``n_max / mean(row_len)`` above ``threshold``.  Sorting first means
    each group's rows are as alike in length as possible, so the bound
    splits a genuinely bimodal batch in two instead of shedding one row
    at a time.

    Returns groups of *original* row indices; concatenated, they cover
    every row exactly once.
    """
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    groups: List[List[int]] = []
    current: List[int] = []
    total = 0
    for idx in order:
        row_len = lengths[idx]
        if current:
            mean = (total + row_len) / (len(current) + 1)
            if mean > 0 and row_len / mean > threshold:
                groups.append(current)
                current, total = [], 0
        current.append(idx)
        total += row_len
    if current:
        groups.append(current)
    return groups


def compile_eligibility(graph: DataflowGraph) -> Optional[str]:
    """Why a graph cannot be compiled to an array program — or ``None``.

    A graph is compile-eligible when it is fusion-eligible (every node
    chunk-invariant, all channels single-rate — the properties that make
    whole-trace execution provably equivalent to any chunking) *and*
    every node's algorithm provides a :meth:`~repro.algorithms.base.
    StreamAlgorithm.lower` rule.  Returns a human-readable reason for
    the first violation found, mirroring
    :func:`repro.hub.runtime.fusion_eligibility`.
    """
    reason = fusion_eligibility(graph)
    if reason is not None:
        return reason
    for node in graph.nodes:
        if not has_lowering(node.algorithm):
            name = node.opcode or type(node.algorithm).__name__
            return f"node {node.node_id} ({name}) has no lowering rule"
    return None


@dataclass(frozen=True)
class PlanStep:
    """One scheduled node of a compiled plan.

    Attributes:
        node_id: The graph node this step computes.
        opcode: The node's IL opcode (for diagnostics).
        algorithm: The algorithm instance whose ``lower`` rule runs.
            Lowering rules are pure, so the instance may be shared with
            a cached interpreter graph without resets.
        inputs: Source references in port order — channel names resolve
            against the trace, node ids against earlier steps.
        align: True when the step has multiple input ports and must be
            fed the aligned common prefix (the whole-trace collapse of
            the interpreter's port synchronizer).
    """

    node_id: int
    opcode: str
    algorithm: StreamAlgorithm
    inputs: Tuple[SourceRef, ...]
    align: bool


@dataclass(frozen=True)
class CompiledPlan:
    """A wake-up condition as a whole-trace array program.

    Build with :func:`compile_graph`; run with :meth:`execute`.  A plan
    holds no mutable state, so one instance can be cached (the engine
    keys plans by IL content fingerprint) and executed over any number
    of traces.

    Attributes:
        steps: Node transforms in topological order.
        output_id: The node whose items become wake events.
        channels: Sensor channels the program reads.
    """

    steps: Tuple[PlanStep, ...]
    output_id: int
    channels: Tuple[str, ...]

    def execute(
        self,
        channel_data: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
        known: Optional[Mapping[int, Chunk]] = None,
    ) -> List[WakeEvent]:
        """Run the array program over one trace's channel arrays.

        Args:
            channel_data: Per channel name, a ``(times, values,
                rate_hz)`` triple of sample times, sample values and
                sampling rate — the form
                :meth:`repro.traces.base.Trace.channel_arrays` returns
                and :func:`repro.hub.runtime.split_into_rounds` takes.
            known: Whole-trace outputs of nodes already computed over
                this trace, by node id.  A known node's output is taken
                as it stands, and every step that only feeds known
                nodes is skipped
                (:func:`repro.hub.runtime.live_nodes`).  Each must
                equal the node's ``lower`` output, as the joined rounds
                of an interpreter run do: every step of a plan is
                chunk-invariant.

        Returns:
            The wake events, bit-identical to interpreting the source
            graph over the same data at any chunking.

        Raises:
            HubExecutionError: when a channel the program reads is
                missing from ``channel_data``.
        """
        missing = [c for c in self.channels if c not in channel_data]
        if missing:
            raise HubExecutionError(
                f"compiled plan missing data for channels {missing}"
            )
        steps = self.steps
        if known:
            live = live_nodes(steps, (self.output_id,), known)
            steps = tuple(step for step in steps if step.node_id in live)
        # One environment maps both channel names (str) and node ids
        # (int) to their whole-trace chunks; the key types never collide.
        env: Dict[Union[str, int], Chunk] = {}
        for name in self.channels:
            times, values, rate = channel_data[name]
            env[name] = Chunk.view(
                StreamKind.SCALAR,
                np.asarray(times, dtype=np.float64),
                np.asarray(values, dtype=np.float64),
                rate,
            )
        for step in steps:
            if known and step.node_id in known:
                env[step.node_id] = known[step.node_id]
                continue
            inputs = [
                env[ref.channel] if isinstance(ref, ChannelRef) else env[ref.node_id]
                for ref in step.inputs
            ]
            if step.align:
                inputs = _aligned_prefix(inputs)
            env[step.node_id] = step.algorithm.lower(inputs)
        out = env[self.output_id]
        return [
            WakeEvent(t, v)
            for t, v in zip(
                out.times.tolist(), np.atleast_1d(out.values).tolist()
            )
        ]


def _aligned_prefix(inputs: List[Chunk]) -> List[Chunk]:
    """Truncate multi-port inputs to their common item-aligned prefix.

    The interpreter buffers each port and releases the longest aligned
    prefix every round; over a whole trace that collapses to one
    truncation at the shortest port (any surplus would have stayed
    buffered past end-of-trace and never been processed).
    """
    available = min(len(chunk) for chunk in inputs)
    return [
        Chunk.view(
            StreamKind.SCALAR,
            chunk.times[:available],
            chunk.values[:available],
            chunk.rate_hz,
        )
        for chunk in inputs
    ]


def batch_eligibility(graph: DataflowGraph) -> Optional[str]:
    """Why a graph cannot run tensor-major over many traces — or ``None``.

    Batched execution stacks *B* traces into one array program, so it
    needs everything compilation needs (every ``lower`` rule has a
    row-identical ``lower_batched`` counterpart — the base class
    guarantees one by looping rows).  On top of that, the output stream
    must be scalar: per-trace wake events are unstacked item by item,
    and only scalar items map one-to-one onto ``WakeEvent`` values.
    Returns a human-readable reason string beside
    :func:`compile_eligibility`'s, or ``None`` when batchable.
    """
    reason = compile_eligibility(graph)
    if reason is not None:
        return reason
    for node in graph.nodes:
        if node.node_id == graph.output_id:
            if node.algorithm.output_kind is not StreamKind.SCALAR:
                return (
                    f"output node {node.node_id} ({node.opcode}) emits "
                    f"{node.algorithm.output_kind.value} items; batched "
                    "unstacking requires a scalar output stream"
                )
    return None


@dataclass(frozen=True)
class BatchDispatchInfo:
    """Accounting for one batched/shape-batched execution.

    Attributes:
        sub_batches: Stacked dispatches actually issued (more than one
            when the padding-waste guard split the batch; zero when a
            single row short-circuited to the scalar plan).
        valid_cells: Total valid (non-padding) channel-tensor cells
            across all dispatches.
        padded_cells: Total allocated channel-tensor cells, padding
            included.
    """

    sub_batches: int
    valid_cells: int
    padded_cells: int

    @property
    def padding_ratio(self) -> float:
        """Allocated cells over valid cells (1.0 means zero waste)."""
        if self.valid_cells <= 0:
            return 1.0
        return self.padded_cells / self.valid_cells


@dataclass(frozen=True)
class BatchedPlan:
    """A compiled plan lifted over a leading batch (trace) axis.

    Build with :func:`compile_batched`; run with :meth:`execute_batch`.
    One batched execution replaces *B* per-trace :meth:`CompiledPlan.
    execute` calls for same-fingerprint work: channel arrays stack into
    ``(B, n_max)`` tensors (ragged rows pad on the right), every node
    runs its ``lower_batched`` rule once, and the output unstacks into
    per-trace wake events that are bit-identical to the per-trace plan
    — and therefore to the interpreter oracle at any chunking.

    :meth:`execute_shape_batch` extends that to *heterogeneous* rows:
    work that shares this plan's graph shape (see
    :func:`shape_signature`) but not its parameter values executes in
    the same stacked pass, per-node parameters lifted into ``(B,)``
    tensors wherever the opcode provides a row-lowering rule.

    Batches whose row lengths are too ragged split into length-sorted
    sub-batches first (:func:`split_for_padding`), so one outlier row
    cannot make every other row pay its padding.

    Like :class:`CompiledPlan`, a batched plan holds no mutable state;
    the engine caches one per IL fingerprint (and one per shape) and
    reuses it across pump rounds and batch compositions.
    """

    plan: CompiledPlan

    @property
    def channels(self) -> Tuple[str, ...]:
        """Sensor channels the program reads (same as the scalar plan)."""
        return self.plan.channels

    def execute_batch(
        self,
        rows: List[Dict[str, Tuple[np.ndarray, np.ndarray, float]]],
    ) -> List[List[WakeEvent]]:
        """Run the array program once over ``B`` traces' channel arrays.

        Args:
            rows: One channel-data mapping per trace, each in the form
                :meth:`CompiledPlan.execute` takes.  Rows may have
                ragged lengths; every row must carry the same sampling
                rate per channel (the engine groups work that way
                before stacking).

        Returns:
            One wake-event list per row, in input order — each
            bit-identical to ``plan.execute`` on that row alone.

        Raises:
            HubExecutionError: when a row lacks a channel the program
                reads, or rows disagree on a channel's sampling rate.
        """
        return self.execute_batch_with_info(rows)[0]

    def execute_batch_with_info(
        self,
        rows: List[Dict[str, Tuple[np.ndarray, np.ndarray, float]]],
    ) -> Tuple[List[List[WakeEvent]], BatchDispatchInfo]:
        """:meth:`execute_batch` plus padding/sub-batch accounting.

        A homogeneous batch is the shape batch whose rows all carry this
        plan (every step then runs its plain ``lower_batched`` rule).
        """
        return self._execute_rows([(self.plan, row) for row in rows])

    def execute_shape_batch(
        self,
        rows: List[
            Tuple[CompiledPlan, Dict[str, Tuple[np.ndarray, np.ndarray, float]]]
        ],
    ) -> List[List[WakeEvent]]:
        """Run a heterogeneous same-shape batch in one stacked pass.

        Args:
            rows: ``(plan, channel_data)`` pairs.  Every plan must come
                from a graph with this plan's :func:`shape_signature`
                (same opcodes, same wiring, possibly different
                parameter values), so plans align step by step.

        Returns:
            One wake-event list per row, in input order — each
            bit-identical to ``plan.execute(channel_data)`` for that
            row alone.
        """
        return self.execute_shape_batch_with_info(rows)[0]

    def execute_shape_batch_with_info(
        self,
        rows: List[
            Tuple[CompiledPlan, Dict[str, Tuple[np.ndarray, np.ndarray, float]]]
        ],
    ) -> Tuple[List[List[WakeEvent]], BatchDispatchInfo]:
        """:meth:`execute_shape_batch` plus padding/sub-batch accounting."""
        return self._execute_rows(rows)

    # -- internals ----------------------------------------------------

    def _execute_rows(
        self,
        rows: List[
            Tuple[CompiledPlan, Dict[str, Tuple[np.ndarray, np.ndarray, float]]]
        ],
    ) -> Tuple[List[List[WakeEvent]], BatchDispatchInfo]:
        """Stacked ``(plan, channel_data)`` rows, split on the padding
        guard; a row left alone (a one-row batch included) runs its own
        plan."""
        results: List[Optional[List[WakeEvent]]] = [None] * len(rows)
        sub_batches = valid_cells = padded_cells = 0
        lengths = self._row_lengths([channel_data for _, channel_data in rows])
        for group in split_for_padding(lengths):
            if len(group) == 1:
                plan, channel_data = rows[group[0]]
                results[group[0]] = plan.execute(channel_data)
                continue
            env = self._stack([rows[idx][1] for idx in group])
            valid, padded = _cell_counts(env)
            out = self._run_steps(env, [rows[idx][0] for idx in group])
            for idx, events in zip(group, self._unstack(out)):
                results[idx] = events
            sub_batches += 1
            valid_cells += valid
            padded_cells += padded
        return (
            results,
            BatchDispatchInfo(
                sub_batches=sub_batches,
                valid_cells=valid_cells,
                padded_cells=padded_cells,
            ),
        )

    def _row_lengths(
        self, rows: List[Dict[str, Tuple[np.ndarray, np.ndarray, float]]]
    ) -> List[int]:
        """Per-row total channel samples — the padding guard's metric.

        Summing across channels is rate-proportional per row (a longer
        recording lengthens every channel alike), so the waste ratio on
        summed lengths tracks each channel tensor's own ratio.
        """
        return [
            sum(len(row[name][0]) for name in self.plan.channels if name in row)
            for row in rows
        ]

    def _stack(
        self, rows: List[Dict[str, Tuple[np.ndarray, np.ndarray, float]]]
    ) -> Dict[Union[str, int], BatchedChunk]:
        """Stack rows' channel arrays into the batched environment."""
        env: Dict[Union[str, int], BatchedChunk] = {}
        for name in self.plan.channels:
            times_rows = []
            values_rows = []
            rates = set()
            for row in rows:
                if name not in row:
                    raise HubExecutionError(
                        f"batched plan missing data for channel {name!r}"
                    )
                times, values, rate = row[name]
                times_rows.append(times)
                values_rows.append(values)
                rates.add(rate)
            if len(rates) > 1:
                raise HubExecutionError(
                    f"batched plan: channel {name!r} rate differs across "
                    f"rows ({sorted(rates)}); group rows by rate first"
                )
            env[name] = BatchedChunk.from_scalar_rows(
                times_rows, values_rows, rates.pop()
            )
        return env

    def _run_steps(
        self,
        env: Dict[Union[str, int], BatchedChunk],
        row_plans: List[CompiledPlan],
    ) -> BatchedChunk:
        """Run every node once over the stacked environment.

        Each step resolves per row (:func:`_lower_step_rows`):
        parameters equal across the batch run the plain
        ``lower_batched`` rule; parameters that differ but are liftable
        run ``lower_batched_rows`` with ``(B,)`` tensors; anything else
        falls back to a per-row ``lower`` loop (always correct —
        lowering rules are pure).
        """
        for position, step in enumerate(self.plan.steps):
            inputs = [
                env[ref.channel] if isinstance(ref, ChannelRef) else env[ref.node_id]
                for ref in step.inputs
            ]
            if step.align:
                inputs = _aligned_prefix_batched(inputs)
            algorithms = [plan.steps[position].algorithm for plan in row_plans]
            env[step.node_id] = _lower_step_rows(algorithms, inputs)
        return env[self.plan.output_id]

    def _unstack(self, out: BatchedChunk) -> List[List[WakeEvent]]:
        """Per-row wake events from the batched output chunk."""
        # The output is scalar (batch eligibility guarantees it), so the
        # whole (B, k) tensors convert to nested Python lists in one
        # C-level pass each instead of B small per-row conversions; the
        # per-row slice then trims each row's padding.
        all_times = out.times.tolist()
        all_values = out.values.tolist()
        return [
            [WakeEvent(t, v) for t, v in zip(trow[:n], vrow[:n])]
            for trow, vrow, n in zip(
                all_times, all_values, out.lengths.tolist()
            )
        ]


def _cell_counts(env: Dict[Union[str, int], BatchedChunk]) -> Tuple[int, int]:
    """(valid, allocated) channel-tensor cells of a stacked environment."""
    valid = padded = 0
    for batch in env.values():
        valid += int(batch.lengths.sum())
        padded += int(batch.times.shape[0] * batch.times.shape[1])
    return valid, padded


def _lower_step_rows(
    algorithms: List[StreamAlgorithm], inputs: List[BatchedChunk]
) -> BatchedChunk:
    """One shape-batched step: pick the cheapest correct lowering.

    Shape equality guarantees every row runs the same opcode here with
    the same parameter *names*; only values may differ.
    """
    first = algorithms[0]
    if all(alg.params == first.params for alg in algorithms[1:]):
        # Parameter values agree across the batch: the homogeneous
        # batched rule applies unchanged (rules are pure, so any row's
        # instance serves).
        return first.lower_batched(inputs)
    if has_row_lowering(first):
        liftable = set(first.row_params)
        structural = [name for name in first.params if name not in liftable]
        if all(
            all(alg.params[name] == first.params[name] for name in structural)
            for alg in algorithms[1:]
        ):
            row_values = {
                name: np.asarray([getattr(alg, name) for alg in algorithms])
                for name in first.row_params
            }
            return first.lower_batched_rows(inputs, row_values)
    # Per-row fallback: always correct, never fast.
    return BatchedChunk.from_rows(
        [
            algorithms[b].lower([batch.row(b) for batch in inputs])
            for b in range(inputs[0].batch_size)
        ]
    )


def _aligned_prefix_batched(inputs: List[BatchedChunk]) -> List[BatchedChunk]:
    """Per-row aligned-prefix collapse of multi-port batched inputs.

    Row ``b``'s aligned prefix is the shortest port length at that row
    (exactly :func:`_aligned_prefix` per row); columns are cropped to
    the longest aligned row so every port presents the same tensor
    width downstream.
    """
    lengths = np.minimum.reduce([batch.lengths for batch in inputs])
    limit = int(lengths.max()) if lengths.size else 0
    return [
        BatchedChunk.view(
            batch.kind,
            batch.times[:, :limit],
            batch.values[:, :limit],
            lengths,
            batch.rate_hz,
        )
        for batch in inputs
    ]


def compile_batched(graph: DataflowGraph) -> BatchedPlan:
    """Lower a validated graph to a :class:`BatchedPlan`.

    Raises:
        HubExecutionError: when the graph is not batch-eligible —
            callers that want graceful fallback should consult
            :func:`batch_eligibility` first.
    """
    reason = batch_eligibility(graph)
    if reason is not None:
        raise HubExecutionError(f"graph is not batch-eligible: {reason}")
    return BatchedPlan(plan=compile_graph(graph))


def compile_graph(graph: DataflowGraph) -> CompiledPlan:
    """Lower a validated graph to a :class:`CompiledPlan`.

    Raises:
        HubExecutionError: when the graph is not compile-eligible —
            callers that want graceful fallback should consult
            :func:`compile_eligibility` first.
    """
    reason = compile_eligibility(graph)
    if reason is not None:
        raise HubExecutionError(f"graph is not compile-eligible: {reason}")
    steps = tuple(
        PlanStep(
            node_id=node.node_id,
            opcode=node.opcode,
            algorithm=node.algorithm,
            inputs=tuple(node.inputs),
            align=len(node.inputs) > 1,
        )
        for node in graph.nodes
    )
    return CompiledPlan(
        steps=steps, output_id=graph.output_id, channels=graph.channels
    )
