"""The hub interpreter: executes a wake-up condition over sensor data.

"Our implementation of the runtime resembles a simple interpreter ...
The interpreter then waits for sensor data to be available and feeds the
data into the appropriate algorithm.  If the algorithm produces a
result, it sets a flag.  The interpreter checks the flag and if
necessary sends the result to the next algorithm. ... The final
algorithm feeds into OUT, indicating that the main processor should be
woken up." (Section 3.5)

This implementation preserves those semantics while processing data in
chunks: per round, each node consumes the chunks its inputs produced
this round, and its output (if the ``has_result`` flag is set) flows to
its consumers within the same round.  Items emitted by the output node
(or, for a merged graph, by each condition's tap node) become
:class:`WakeEvent` records.

Multi-input nodes are item-synchronized: the runtime buffers each input
port and invokes the algorithm on the longest aligned prefix, so a
``vectorMagnitude`` always sees matching x/y/z items even if upstream
moving averages warm up across chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import HubExecutionError
from repro.il.ast import ChannelRef, NodeRef
from repro.il.graph import DataflowGraph
from repro.hub.state import AlgorithmState, allocate_states
from repro.sensors.samples import Chunk, StreamKind

#: How many normal feed rounds one fused round spans.  Fusion could use
#: a single trace-length round, but coalescing in blocks keeps peak
#: memory bounded on long traces while still amortizing the per-round
#: dict/Chunk/dispatch overhead over ~minutes of signal.
FUSED_ROUNDS_COALESCED = 64


@dataclass(frozen=True)
class WakeEvent:
    """One item reaching OUT: wake the main processor.

    Attributes:
        time: Trace time in seconds of the triggering item.
        value: The item's value.
    """

    time: float
    value: float


class HubRuntime:
    """Interprets one validated wake-up condition.

    Args:
        graph: Validated dataflow graph
            (from :func:`repro.il.validate.validate_program`).

    Use :meth:`feed` to push aligned per-channel sample chunks; it
    returns the wake events the chunk produced.  :meth:`run` drives a
    whole iterable of chunk rounds and accumulates events.
    """

    def __init__(self, graph: DataflowGraph):
        self.graph = graph
        self.states: Dict[int, AlgorithmState] = allocate_states(graph.nodes)

    def reset(self) -> None:
        """Drop all interpreter state (buffers, flags, results)."""
        for state in self.states.values():
            state.reset()

    def feed(
        self,
        channel_chunks: Dict[str, Chunk],
        taps: Optional[Sequence[int]] = None,
    ) -> Union[List[WakeEvent], Dict[int, List[WakeEvent]]]:
        """Process one round of sensor data.

        Args:
            channel_chunks: Chunk of new raw samples per channel name.
                Every channel the graph reads must be present (possibly
                empty).
            taps: Node ids whose emissions are wake events.  ``None``
                means OUT alone; a merged graph
                (:mod:`repro.hub.merge`) taps each condition's own
                output node.

        Returns:
            Wake events produced this round, in time order: OUT's
            list, or with ``taps`` one list per tap node id.

        Raises:
            HubExecutionError: when a channel the condition reads has
                no chunk this round.
        """
        return self._feed(channel_chunks, taps, self.graph.nodes, None)

    def _feed(
        self,
        channel_chunks: Dict[str, Chunk],
        taps: Optional[Sequence[int]],
        nodes: Sequence,
        known: Optional[Mapping[int, Chunk]],
    ) -> Union[List[WakeEvent], Dict[int, List[WakeEvent]]]:
        """:meth:`feed` over ``nodes`` alone, taking ``known`` nodes'
        outputs as given instead of running them."""
        missing = [c for c in self.graph.channels if c not in channel_chunks]
        if missing:
            raise HubExecutionError(
                f"feed() missing chunks for channels {missing}"
            )

        out_id = self.graph.output_id
        tapped: Dict[int, List[WakeEvent]] = {
            node_id: [] for node_id in (taps if taps is not None else (out_id,))
        }
        round_outputs: Dict[int, Chunk] = {}
        for node in nodes:
            state = self.states[node.node_id]
            if known is not None and node.node_id in known:
                output = known[node.node_id]
            else:
                inputs = self._gather_inputs(
                    node.inputs, channel_chunks, round_outputs
                )
                if len(node.inputs) > 1:
                    inputs = self._synchronize(state, inputs)
                if all(chunk.is_empty for chunk in inputs):
                    # Nothing arrived on any port this round: the paper's
                    # interpreter simply would not invoke the algorithm.
                    kind = node.algorithm.output_kind
                    empty = Chunk.empty(
                        kind,
                        inputs[0].rate_hz,
                        None if kind is StreamKind.SCALAR else 0,
                    )
                    state.record_result(empty)
                    round_outputs[node.node_id] = empty
                    continue
                output = node.algorithm.process(inputs)
            state.record_result(output)
            round_outputs[node.node_id] = output
            events = tapped.get(node.node_id)
            if events is not None and state.has_result:
                events.extend(
                    WakeEvent(float(t), float(v))
                    for t, v in zip(output.times, np.atleast_1d(output.values))
                )
        return tapped if taps is not None else tapped[out_id]

    def run(
        self,
        rounds: Iterable[Dict[str, Chunk]],
        taps: Optional[Sequence[int]] = None,
        known: Optional[Mapping[int, Sequence[Chunk]]] = None,
        record: Optional[Mapping[int, List[Chunk]]] = None,
    ) -> Union[List[WakeEvent], Dict[int, List[WakeEvent]]]:
        """Feed every round and return all wake events.

        With ``taps`` (see :meth:`feed`), one list per tap node id.

        Args:
            known: Per-round outputs of nodes already interpreted over
                these same rounds (one chunk per round, in order), by
                node id.  Each round replays a known node's output as
                it stands, and every node that only feeds known nodes
                is skipped (:func:`live_nodes`).
            record: Lists, by node id, that each round's output of that
                node is appended to, as the interpreter produced it (a
                recorded node must be one the run visits).

        Raises:
            HubExecutionError: when ``known`` outputs do not cover
                exactly the rounds run.
        """
        outputs = tuple(taps) if taps is not None else (self.graph.output_id,)
        nodes = self.graph.nodes
        replay: Dict[int, Sequence[Chunk]] = {}
        if known:
            live = live_nodes(self.graph.nodes, outputs, known)
            nodes = [node for node in nodes if node.node_id in live]
            replay = {
                node_id: chunks for node_id, chunks in known.items()
                if node_id in live
            }
        tapped: Dict[int, List[WakeEvent]] = {
            node_id: [] for node_id in outputs
        }
        count = 0
        for chunks in rounds:
            current = None
            if replay:
                try:
                    current = {
                        node_id: per_round[count]
                        for node_id, per_round in replay.items()
                    }
                except IndexError:
                    raise HubExecutionError(
                        "known node outputs cover fewer rounds than the run"
                    ) from None
            fed = self._feed(chunks, outputs, nodes, current)
            for node_id, events in fed.items():
                tapped[node_id].extend(events)
            if record:
                for node_id, recorded in record.items():
                    recorded.append(self.states[node_id].result)
            count += 1
        if any(len(per_round) != count for per_round in replay.values()):
            raise HubExecutionError(
                f"known node outputs cover more rounds than the run's {count}"
            )
        return tapped if taps is not None else tapped[self.graph.output_id]

    def run_fused(
        self,
        channel_data: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
        chunk_seconds: float = 4.0,
    ) -> List[WakeEvent]:
        """Interpret a whole trace in a few large coalesced rounds.

        Instead of feeding hundreds of ``chunk_seconds``-sized rounds,
        the trace is split into rounds ``FUSED_ROUNDS_COALESCED`` times
        longer, eliminating almost all per-round dict building, chunk
        allocation and node dispatch.  Because every node is required
        to be chunk-invariant (and all channels single-rate), the wake
        events are *bit-identical* to the round-by-round result for any
        ``chunk_seconds``.

        The engine does not run this method: every condition it
        accepts also compiles, and the compiled tier ranks first.  It
        stays because the repository benchmark hooks it
        (``perfbench/spans.py`` times ``HubRuntime.run_fused`` and its
        self-tests read the attribute), and because the hub-tier
        benchmarks time it as the reference the compiled tier must
        beat (``MIN_FUSED_SPEEDUP``, ``MIN_COMPILED_SPEEDUP``).  It can
        go once a benchmark change drops that hook.

        Args:
            channel_data: Per channel name, a ``(times, values,
                rate_hz)`` triple, as for :func:`split_into_rounds`.
            chunk_seconds: The round length the caller would have used
                on the slow path; fused rounds coalesce this.

        Raises:
            HubExecutionError: when the graph is not fusion-eligible —
                callers that want silent fallback should consult
                :func:`fusion_eligibility` first.
        """
        reason = fusion_eligibility(self.graph)
        if reason is not None:
            raise HubExecutionError(f"graph is not fusion-eligible: {reason}")
        fused = split_into_rounds(
            channel_data, chunk_seconds * FUSED_ROUNDS_COALESCED
        )
        return self.run(fused)

    # -- helpers ------------------------------------------------------

    def _gather_inputs(
        self,
        refs: Sequence,
        channel_chunks: Dict[str, Chunk],
        round_outputs: Dict[int, Chunk],
    ) -> List[Chunk]:
        inputs: List[Chunk] = []
        for ref in refs:
            if isinstance(ref, ChannelRef):
                inputs.append(channel_chunks[ref.channel])
            elif isinstance(ref, NodeRef):
                inputs.append(round_outputs[ref.node_id])
            else:  # pragma: no cover - validated earlier
                raise TypeError(f"bad input ref {ref!r}")
        return inputs

    def _synchronize(
        self, state: AlgorithmState, inputs: List[Chunk]
    ) -> List[Chunk]:
        """Buffer multi-input ports and release the aligned prefix."""
        rate = inputs[0].rate_hz
        for port, chunk in enumerate(inputs):
            if not chunk.is_empty:
                state.pending[port].extend(chunk)
        available = min(len(state.pending[p]) for p in range(len(inputs)))
        aligned: List[Chunk] = []
        for port in range(len(inputs)):
            buffer = state.pending[port]
            # Views, not copies: ChunkBuffer never mutates its arrays in
            # place (extend/consume reassign), so a released prefix stays
            # valid after the buffer advances past it.
            aligned.append(
                Chunk.view(
                    StreamKind.SCALAR,
                    buffer.times[:available],
                    buffer.values[:available],
                    rate,
                )
            )
            buffer.consume(available)
        return aligned


def live_nodes(
    nodes: Iterable,
    outputs: Iterable[int],
    known: Collection[int],
) -> Set[int]:
    """Node ids a run must visit to produce ``outputs``.

    ``nodes`` are a graph's nodes, a compiled plan's steps or a
    program's statements (anything with ``node_id`` and ``inputs``).
    The walk goes back from the outputs and stops at each ``known``
    node, whose output is given: the result holds every node on a path
    to an output that passes no known node, and the known nodes those
    paths reach (replayed, not run).  A node outside it only feeds
    known nodes, so a run skips it.
    """
    inputs = {node.node_id: node.inputs for node in nodes}
    live: Set[int] = set()
    stack = list(outputs)
    while stack:
        node_id = stack.pop()
        if node_id in live:
            continue
        live.add(node_id)
        if node_id not in known:
            stack.extend(
                ref.node_id for ref in inputs[node_id]
                if isinstance(ref, NodeRef)
            )
    return live


def fusion_eligibility(graph: DataflowGraph) -> Optional[str]:
    """Why a graph's output may depend on its chunking — or ``None``.

    This is the chunk-invariance predicate behind every path that
    re-chunks a condition's input: compiled plans
    (:func:`repro.hub.compile.compile_eligibility`), the incremental
    stream executors and :meth:`HubRuntime.run_fused`.  A graph is
    fusion-eligible when re-chunking its input provably cannot change
    its output:

    * every node's algorithm declares ``chunk_invariant = True``;
    * all raw channels it reads share one sampling rate (multi-rate
      graphs make round boundaries part of the port-synchronization
      schedule, so they stay on the round-by-round path).

    Returns a human-readable reason for the first violation found, so
    callers can log *why* they fell back.
    """
    rates = set()
    for node in graph.nodes:
        if not node.algorithm.chunk_invariant:
            return (
                f"node {node.node_id} ({node.algorithm.opcode or type(node.algorithm).__name__})"
                " is not chunk-invariant"
            )
        for ref, shape in zip(node.inputs, node.input_shapes):
            if isinstance(ref, ChannelRef):
                rates.add(shape.rate_hz)
    if len(rates) > 1:
        return f"graph reads channels at multiple rates {sorted(rates)}"
    return None


def split_into_rounds(
    channel_data: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
    chunk_seconds: float = 4.0,
) -> Iterable[Dict[str, Chunk]]:
    """Slice aligned channel arrays into feed-sized rounds.

    Args:
        channel_data: Per channel name, a ``(times, values, rate_hz)``
            triple.  All channels must cover the same time span.
        chunk_seconds: Wall-clock length of each round.

    Yields:
        One ``{channel: Chunk}`` mapping per round.  Mimics the hub
        receiving batches of samples over the sensor bus.  No channel
        data (or only empty channels) yields no rounds.
    """
    if not channel_data:
        return
    # Coerce once up front so per-round slices can be handed out as
    # zero-copy views without re-validation.
    coerced = {
        name: (
            np.asarray(times, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
            rate,
        )
        for name, (times, values, rate) in channel_data.items()
    }
    nonempty = [times for times, _values, _rate in coerced.values() if len(times)]
    if not nonempty:
        return
    start = min(times[0] for times in nonempty)
    end = max(times[-1] for times in nonempty)
    channel_data = coerced
    # Round boundaries, accumulated the same way the rounds advance so
    # float rounding matches a per-round scan exactly.
    edges: List[float] = []
    t0 = start
    while t0 <= end:
        edges.append(t0)
        t0 += chunk_seconds
    edges.append(t0)
    # One binary search per channel for all boundaries replaces a full
    # boolean mask per (channel, round): O(samples log rounds) instead
    # of O(samples x rounds).  Sample times are sorted by construction.
    bounds = {
        name: np.searchsorted(times, edges, side="left")
        for name, (times, values, rate) in channel_data.items()
    }
    for k in range(len(edges) - 1):
        round_chunks: Dict[str, Chunk] = {}
        for name, (times, values, rate) in channel_data.items():
            i0, i1 = bounds[name][k], bounds[name][k + 1]
            round_chunks[name] = Chunk.view(
                StreamKind.SCALAR, times[i0:i1], values[i0:i1], rate
            )
        yield round_chunks
