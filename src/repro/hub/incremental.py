"""Incremental execution of wake-up conditions over growing streams.

The compiled and batched tiers (:mod:`repro.hub.compile`) assume the
whole trace is in hand; the streaming ingestion path
(:mod:`repro.serve.ingest`) has only the span that arrived since the
last pump round.  This module closes that gap with *bounded replay*:
per plan step and input port the executor keeps a retained trailing
buffer ``R`` — sized by each opcode's
:meth:`~repro.algorithms.base.StreamAlgorithm.incremental_retention`
rule — such that

* ``lower(R)`` emits nothing, and
* ``lower(R ++ S)`` emits exactly the never-before-emitted output
  items for a newly arrived span ``S``.

Because every emitted item is new by construction, no output dedup is
needed, and the union of the per-round outputs is bit-identical to
running the final assembled trace through the whole-trace plan (the
PR 4/7/9 differential contracts extend that identity to the batched
rules used by :func:`advance_rows`).

Graphs that cannot run this way still stream, at whole-graph replay
granularity instead of per-opcode bounded replay:

* :class:`ChunkedReplayState` — fusion-eligible graphs (every node
  chunk-invariant, single rate) feed arrival spans straight into a
  persistent :class:`~repro.hub.runtime.HubRuntime`; chunk-invariance
  makes the result independent of how arrivals were sliced.
* :class:`RoundReplayState` — everything else (e.g. ``expMovingAvg``
  graphs) must see *exactly* the canonical
  :func:`~repro.hub.runtime.split_into_rounds` chunking, so arrivals
  accumulate and rounds are fed only once their content is final,
  replicating the canonical edges float-for-float.

All three modes therefore produce results invariant to arrival
chunking — the property stream recovery leans on to re-derive results
from journaled chunks instead of journaling wake events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import HubExecutionError
from repro.hub.compile import (
    _lower_step_rows,
    batch_eligibility,
    compile_graph,
    shape_signature,
    structural_key,
)
from repro.hub.runtime import HubRuntime, WakeEvent, fusion_eligibility
from repro.il.ast import ChannelRef
from repro.il.graph import DataflowGraph
from repro.sensors.samples import BatchedChunk, Chunk, ChunkBuffer, StreamKind
from repro.traces.stream import StreamColumn


def incremental_eligibility(graph: DataflowGraph) -> Optional[str]:
    """Why a graph cannot run with bounded replay — or ``None``.

    Bounded replay needs everything batched execution needs (the
    per-round merged inputs of many subscriptions stack into one
    tensor dispatch) *plus* an incremental retention rule on every
    node: the opcode opted in via ``incremental = True`` and this
    instance's parameters are expressible
    (:meth:`~repro.algorithms.base.StreamAlgorithm.
    incremental_ineligibility` returns ``None``).  Returns a
    human-readable reason for the first violation found, mirroring
    :func:`repro.hub.compile.batch_eligibility`.
    """
    reason = batch_eligibility(graph)
    if reason is not None:
        return reason
    for node in graph.nodes:
        name = node.opcode or type(node.algorithm).__name__
        if not node.algorithm.incremental:
            return f"node {node.node_id} ({name}) has no bounded-replay rule"
        why = node.algorithm.incremental_ineligibility()
        if why is not None:
            return f"node {node.node_id} ({name}): {why}"
    return None


@dataclass
class _PortState:
    """Retained replay tail and consumed-item count of one input port."""

    retained: Optional[Chunk] = None
    seen: int = 0


def _concat(retained: Optional[Chunk], span: Chunk) -> Chunk:
    """``retained ++ span`` without touching either side when one is empty.

    Returning the non-empty side untouched matters beyond speed: empty
    FRAME/SPECTRUM chunks are built with width 0, and concatenating a
    ``(0, 0)`` array with an ``(n, w)`` one would fail.
    """
    if retained is None or retained.is_empty:
        return span
    if span.is_empty:
        return retained
    return Chunk.view(
        retained.kind,
        np.concatenate([retained.times, span.times]),
        np.concatenate([retained.values, span.values]),
        span.rate_hz,
    )


def _empty_like_output(algorithm, rate_hz: float) -> Chunk:
    kind = algorithm.output_kind
    return Chunk.empty(kind, rate_hz, None if kind is StreamKind.SCALAR else 0)


@dataclass(frozen=True)
class StreamDispatchInfo:
    """Accounting for one batched incremental advance.

    Attributes:
        dispatches: Plan-step executions issued (stacked or single-row).
        rows: Total subscription-rows across those executions — the
            ratio ``rows / dispatches`` is the incremental-round
            occupancy the metrics layer reports.
        cells: Total merged input items fed across all executions.
    """

    dispatches: int
    rows: int
    cells: int


class IncrementalGraphState:
    """Bounded-replay executor state for one subscription's graph.

    Args:
        graph: Validated dataflow graph; must be incremental-eligible
            (callers wanting graceful fallback consult
            :func:`incremental_eligibility` first).

    Feed newly arrived per-channel spans with :meth:`advance`; each
    call returns exactly the wake events the whole-trace plan would
    emit for data ending where the arrivals end.  Same-``batch_key``
    states advance together through :func:`advance_rows`, which runs
    each plan step once over all of them as a stacked tensor dispatch.
    """

    mode = "incremental"

    def __init__(self, graph: DataflowGraph):
        reason = incremental_eligibility(graph)
        if reason is not None:
            raise HubExecutionError(
                f"graph is not incremental-eligible: {reason}"
            )
        self.graph = graph
        self.plan = compile_graph(graph)
        self._ports: Dict[int, List[_PortState]] = {
            step.node_id: [_PortState() for _ in step.inputs]
            for step in self.plan.steps
        }
        self._pending: Dict[int, List[ChunkBuffer]] = {
            step.node_id: [ChunkBuffer() for _ in step.inputs]
            for step in self.plan.steps
            if step.align
        }
        rates = {}
        for node in graph.nodes:
            for ref, shape in zip(node.inputs, node.input_shapes):
                if isinstance(ref, ChannelRef):
                    rates[ref.channel] = shape.rate_hz
        #: States sharing this key run the same opcodes over the same
        #: wiring with equal structural parameters and channel rates,
        #: so their per-step merged inputs can stack into one dispatch.
        self.batch_key: Tuple = (
            shape_signature(graph),
            structural_key(graph),
            tuple(sorted(rates.items())),
        )

    def advance(self, channel_spans: Dict[str, Chunk]) -> List[WakeEvent]:
        """Run the newly arrived spans; return the new wake events."""
        return advance_rows([self], [channel_spans])[0]

    def close(self) -> List[WakeEvent]:
        """End of stream.  Bounded replay never holds back output items
        (surplus in multi-port pending buffers is exactly what the
        whole-trace aligned-prefix truncation drops), so nothing flushes.
        """
        return []

    # -- internals ----------------------------------------------------

    def _release_aligned(self, node_id: int, spans: List[Chunk]) -> List[Chunk]:
        """Buffer multi-port spans; release the newly aligned prefix.

        The union of per-round aligned releases is the aligned prefix
        of the full port streams — the whole-trace collapse
        (:func:`repro.hub.compile._aligned_prefix`) truncated at the
        shortest port, reached one round at a time.
        """
        pending = self._pending[node_id]
        rate = spans[0].rate_hz
        for buffer, span in zip(pending, spans):
            if not span.is_empty:
                buffer.extend(span)
        available = min(len(buffer) for buffer in pending)
        released = []
        for buffer in pending:
            released.append(
                Chunk.view(
                    StreamKind.SCALAR,
                    buffer.times[:available],
                    buffer.values[:available],
                    rate,
                )
            )
            buffer.consume(available)
        return released


def advance_rows(
    states: List[IncrementalGraphState],
    spans: List[Dict[str, Chunk]],
) -> List[List[WakeEvent]]:
    """Advance many same-``batch_key`` states in stacked step dispatches."""
    return advance_rows_with_info(states, spans)[0]


def advance_rows_with_info(
    states: List[IncrementalGraphState],
    spans: List[Dict[str, Chunk]],
) -> Tuple[List[List[WakeEvent]], StreamDispatchInfo]:
    """:func:`advance_rows` plus dispatch/occupancy accounting.

    Args:
        states: Subscription states sharing one ``batch_key`` (same
            graph shape, structural parameters and channel rates — the
            grouping the ingest layer performs).
        spans: Per state, the newly arrived span per channel name.
            Every channel the state's graph reads must be present
            (possibly empty, carrying the channel's rate).

    Returns:
        Per state, the wake events these arrivals produced — each list
        bit-identical to what :meth:`IncrementalGraphState.advance`
        would return alone — plus dispatch accounting.
    """
    if not states:
        return [], StreamDispatchInfo(0, 0, 0)
    if len({state.batch_key for state in states}) > 1:
        raise HubExecutionError(
            "advance_rows requires states sharing one batch key"
        )
    n_rows = len(states)
    # Per row, new spans keyed by channel name (str) and node id (int);
    # the key types never collide (same trick as CompiledPlan.execute).
    envs: List[Dict[Union[str, int], Chunk]] = [dict(span) for span in spans]
    dispatches = total_rows = total_cells = 0
    for position in range(len(states[0].plan.steps)):
        merged_rows: List[List[Chunk]] = []
        span_lens: List[List[int]] = []
        for r, state in enumerate(states):
            step = state.plan.steps[position]
            ins = []
            for ref in step.inputs:
                key = (
                    ref.channel if isinstance(ref, ChannelRef) else ref.node_id
                )
                ins.append(envs[r][key])
            if step.align:
                ins = state._release_aligned(step.node_id, ins)
            ports = state._ports[step.node_id]
            merged_rows.append(
                [_concat(p.retained, s) for p, s in zip(ports, ins)]
            )
            span_lens.append([len(s) for s in ins])
        included = [
            r
            for r in range(n_rows)
            if any(not chunk.is_empty for chunk in merged_rows[r])
        ]
        out_rows: Dict[int, Chunk] = {}
        if included:
            if len(included) == 1:
                r = included[0]
                out_rows[r] = states[r].plan.steps[position].algorithm.lower(
                    merged_rows[r]
                )
            else:
                n_ports = len(states[0].plan.steps[position].inputs)
                stacked = [
                    BatchedChunk.from_rows(
                        [merged_rows[r][p] for r in included]
                    )
                    for p in range(n_ports)
                ]
                algorithms = [
                    states[r].plan.steps[position].algorithm for r in included
                ]
                out_batch = _lower_step_rows(algorithms, stacked)
                for b, r in enumerate(included):
                    out_rows[r] = out_batch.row(b)
            dispatches += 1
            total_rows += len(included)
            total_cells += sum(
                len(chunk) for r in included for chunk in merged_rows[r]
            )
            # Retention update: slice the new replay tail off each
            # row's merged input (only rows that actually ran; skipped
            # rows saw no new items, and recomputing retention on the
            # retained tail alone returns that tail unchanged).
            for r in included:
                step = states[r].plan.steps[position]
                ports = states[r]._ports[step.node_id]
                merged = merged_rows[r]
                new_seen = ports[0].seen + span_lens[r][0]
                keep = step.algorithm.incremental_retention(
                    merged[0], new_seen
                )
                for p, port in enumerate(ports):
                    port.seen += span_lens[r][p]
                    limit = min(keep, len(merged[p]))
                    port.retained = merged[p].slice(
                        len(merged[p]) - limit, len(merged[p])
                    )
        for r, state in enumerate(states):
            step = state.plan.steps[position]
            if r in out_rows:
                envs[r][step.node_id] = out_rows[r]
            else:
                envs[r][step.node_id] = _empty_like_output(
                    step.algorithm, merged_rows[r][0].rate_hz
                )
    results = []
    for r, state in enumerate(states):
        out = envs[r][state.plan.output_id]
        results.append(
            [
                WakeEvent(t, v)
                for t, v in zip(
                    out.times.tolist(), np.atleast_1d(out.values).tolist()
                )
            ]
        )
    return results, StreamDispatchInfo(dispatches, total_rows, total_cells)


class ChunkedReplayState:
    """Streaming fallback for fusion-eligible, non-incremental graphs.

    Chunk-invariance of every node (plus single-rate channels) makes a
    persistent interpreter's output independent of how the input was
    sliced into feed rounds, so arrival spans can be fed exactly as
    they come — no retention machinery, no canonical round edges.
    """

    mode = "chunked"

    def __init__(self, graph: DataflowGraph):
        reason = fusion_eligibility(graph)
        if reason is not None:
            raise HubExecutionError(
                f"graph is not fusion-eligible: {reason}"
            )
        self.graph = graph
        self._runtime = HubRuntime(graph)

    def advance(self, channel_spans: Dict[str, Chunk]) -> List[WakeEvent]:
        """Feed one arrival span straight through the interpreter."""
        if all(chunk.is_empty for chunk in channel_spans.values()):
            return []
        return self._runtime.feed(channel_spans)

    def close(self) -> List[WakeEvent]:
        """End the stream (chunk-invariant graphs hold nothing back)."""
        return []


class RoundReplayState:
    """Streaming fallback for graphs that are not chunk-invariant.

    Graphs containing e.g. ``expMovingAvg`` produce chunking-dependent
    (at ulp level) results, so the reference semantics are pinned to
    the canonical :func:`~repro.hub.runtime.split_into_rounds` chunking
    at the subscription's ``chunk_seconds``.  This state accumulates
    arrivals and feeds a round only once its content is provably final
    — every channel's next undelivered sample lies at or past the
    round's right edge — generating edges by the same float
    accumulation the canonical splitter uses, so the fed rounds are
    slice-for-slice the splitter's own.  :meth:`close` feeds whatever
    rounds remain (including trailing empties the splitter would
    produce).
    """

    mode = "rounds"

    def __init__(self, graph: DataflowGraph, chunk_seconds: float):
        self.graph = graph
        self.chunk_seconds = float(chunk_seconds)
        self._runtime = HubRuntime(graph)
        self._times: Dict[str, StreamColumn] = {
            name: StreamColumn() for name in graph.channels
        }
        self._values: Dict[str, StreamColumn] = {
            name: StreamColumn() for name in graph.channels
        }
        self._rates: Dict[str, float] = {}
        self._start: Optional[float] = None
        self._edges: List[float] = []
        self._fed = 0
        self._closed = False

    def advance(self, channel_spans: Dict[str, Chunk]) -> List[WakeEvent]:
        """Buffer arrival spans; feed every round that became final."""
        if self._closed:
            raise HubExecutionError("cannot advance a closed stream state")
        for name, span in channel_spans.items():
            if name not in self._times:
                continue
            self._rates[name] = span.rate_hz
            if span.is_empty:
                continue
            first = float(span.times[0])
            if self._start is None or first < self._start:
                if self._fed:
                    raise HubExecutionError(
                        "stream timeline extended before already-fed rounds"
                    )
                self._start = first
            self._times[name].append(span.times)
            self._values[name].append(span.values)
        return self._pump()

    def close(self) -> List[WakeEvent]:
        """Feed every remaining canonical round and end the stream."""
        if self._closed:
            return []
        self._closed = True
        end = self._end()
        if self._start is None or end is None:
            return []
        # Count rounds exactly as the canonical splitter's edge loop:
        # one per edge value at or below the final end.
        total = 0
        t0 = self._start
        while t0 <= end:
            total += 1
            t0 += self.chunk_seconds
        events: List[WakeEvent] = []
        for k in range(self._fed, total):
            events.extend(self._feed_round(self._edge(k), self._edge(k + 1)))
        self._fed = total
        return events

    # -- internals ----------------------------------------------------

    def _end(self) -> Optional[float]:
        lasts = [
            float(column.data[-1])
            for column in self._times.values()
            if len(column)
        ]
        return max(lasts) if lasts else None

    def _edge(self, index: int) -> float:
        while len(self._edges) <= index:
            self._edges.append(
                self._start
                if not self._edges
                else self._edges[-1] + self.chunk_seconds
            )
        return self._edges[index]

    def _pump(self) -> List[WakeEvent]:
        events: List[WakeEvent] = []
        end = self._end()
        if self._start is None or end is None:
            return events
        while True:
            left = self._edge(self._fed)
            if left > end:
                # The canonical splitter only creates rounds whose left
                # edge is at or below the final trace end; the current
                # end is a lower bound on that, so this round may not
                # exist yet.
                break
            right = self._edge(self._fed + 1)
            ready = all(
                len(column)
                and float(column.data[-1]) + 1.0 / self._rates[name] >= right
                for name, column in self._times.items()
            )
            if not ready:
                break
            events.extend(self._feed_round(left, right))
            self._fed += 1
        return events

    def _feed_round(self, left: float, right: float) -> List[WakeEvent]:
        round_chunks: Dict[str, Chunk] = {}
        for name in self._times:
            times = self._times[name].data
            values = self._values[name].data
            i0 = int(np.searchsorted(times, left, side="left"))
            i1 = int(np.searchsorted(times, right, side="left"))
            round_chunks[name] = Chunk.view(
                StreamKind.SCALAR,
                times[i0:i1],
                values[i0:i1],
                self._rates.get(name, 0.0),
            )
        return self._runtime.feed(round_chunks)


StreamState = Union[IncrementalGraphState, ChunkedReplayState, RoundReplayState]


def make_stream_state(
    graph: DataflowGraph, chunk_seconds: float
) -> StreamState:
    """Pick the fastest arrival-chunking-invariant executor for a graph.

    Bounded replay (batched across subscriptions) when eligible;
    otherwise a persistent interpreter fed arrival spans directly
    (chunk-invariant graphs), or fed the canonical round split
    replicated incrementally (everything else).  All three produce
    results independent of how arrivals were chunked, so recovery can
    re-derive them from journaled chunks.
    """
    if incremental_eligibility(graph) is None:
        return IncrementalGraphState(graph)
    if fusion_eligibility(graph) is None:
        return ChunkedReplayState(graph)
    return RoundReplayState(graph, chunk_seconds)
