"""Pipeline merging across concurrent wake-up conditions.

Paper Section 7 (future work): "When receiving multiple wake-up
conditions, the sensor manager can attempt to improve performance by
combining the pipelines that use common algorithms."

This module implements that optimization as common-subexpression
elimination over IL programs: two nodes are shareable when they run the
same opcode with the same parameters over (recursively) shareable
inputs.  Several programs merge into one :class:`MergedProgram` whose
dataflow graph computes every distinct subcomputation once; each
original condition keeps its own OUT tap, so wake-ups still route to the
right application.

Typical win: two accelerometer conditions that both start with
``movingAvg(10)`` per axis share those three nodes (and the hub's most
expensive stages — windowed FFTs — are shared whenever two audio
conditions use the same window geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.hub.runtime import HubRuntime, WakeEvent
from repro.il.ast import ChannelRef, ILProgram, ILStatement, NodeRef, SourceRef
from repro.il.graph import DataflowGraph, build_graph
from repro.il.validate import validate_program

#: A node's structural identity: opcode, parameters, and the identities
#: of its inputs.  Two nodes with equal keys compute the same stream.
_NodeKey = Tuple


@dataclass(frozen=True)
class MergedProgram:
    """Several wake-up conditions compiled into one shared dataflow.

    Attributes:
        program: The merged IL program.  Its ``output`` is the tap of
            the *first* condition; use :attr:`taps` for all of them.
        taps: Node id whose emissions belong to each original condition,
            in input order.
        shared_nodes: Number of node instances saved by sharing.
        node_count: Nodes in the merged program.
    """

    program: ILProgram
    taps: Tuple[int, ...]
    shared_nodes: int
    node_count: int

    @property
    def original_node_count(self) -> int:
        """Total nodes the unmerged programs would instantiate."""
        return self.node_count + self.shared_nodes


def _structural_key(
    statement: ILStatement, keys: Dict[int, _NodeKey]
) -> _NodeKey:
    input_keys = []
    for ref in statement.inputs:
        if isinstance(ref, ChannelRef):
            input_keys.append(("channel", ref.channel))
        else:
            input_keys.append(keys[ref.node_id])
    return (statement.opcode, statement.params, tuple(input_keys))


def merge_programs(programs: Sequence[ILProgram]) -> MergedProgram:
    """Merge validated IL programs, sharing identical subcomputations.

    Args:
        programs: One program per wake-up condition.  Each is validated
            individually first; the merged result is built by
            :func:`merged_graph`, whose structural checks those cover.

    Returns:
        A :class:`MergedProgram` with one OUT tap per input program.

    Raises:
        ILValidationError: if any input program is invalid.
    """
    for program in programs:
        validate_program(program)

    statements: List[ILStatement] = []
    by_key: Dict[_NodeKey, int] = {}
    taps: List[int] = []
    shared = 0
    next_id = 1

    for program in programs:
        keys: Dict[int, _NodeKey] = {}
        local_to_merged: Dict[int, int] = {}
        ordered = _topological(program)
        for statement in ordered:
            key = _structural_key(statement, keys)
            keys[statement.node_id] = key
            existing = by_key.get(key)
            if existing is not None:
                local_to_merged[statement.node_id] = existing
                shared += 1
                continue
            inputs: List[SourceRef] = []
            for ref in statement.inputs:
                if isinstance(ref, ChannelRef):
                    inputs.append(ref)
                else:
                    inputs.append(NodeRef(local_to_merged[ref.node_id]))
            merged_statement = ILStatement(
                tuple(inputs), statement.opcode, next_id, statement.params
            )
            statements.append(merged_statement)
            by_key[key] = next_id
            local_to_merged[statement.node_id] = next_id
            next_id += 1
        taps.append(local_to_merged[program.output.node_id])

    merged = ILProgram(tuple(statements), NodeRef(taps[0]))
    return MergedProgram(
        program=merged,
        taps=tuple(taps),
        shared_nodes=shared,
        node_count=len(statements),
    )


def _topological(program: ILProgram) -> List[ILStatement]:
    """Statements ordered so inputs precede consumers."""
    by_id = program.statement_by_id()
    ordered: List[ILStatement] = []
    done: Dict[int, bool] = {}

    def visit(statement: ILStatement) -> None:
        if done.get(statement.node_id):
            return
        done[statement.node_id] = True
        for ref in statement.inputs:
            if isinstance(ref, NodeRef):
                visit(by_id[ref.node_id])
        ordered.append(statement)

    for statement in program.statements:
        visit(statement)
    return ordered


def merged_graph(merged: MergedProgram) -> DataflowGraph:
    """Executable graph of a merged program.

    The merged program legitimately contains nodes that do not feed the
    first condition's OUT (they feed other taps), so the single-OUT
    convergence check of :func:`validate_program` does not apply; the
    structural checks it performs were already run per input program.
    """
    return build_graph(merged.program)


def merged_cycles_per_second(merged: MergedProgram) -> float:
    """Aggregate MCU load of the merged dataflow."""
    return merged_graph(merged).total_cycles_per_second


class MultiTapRuntime:
    """Interpreter for a merged program with one event stream per tap.

    Wraps a :class:`~repro.hub.runtime.HubRuntime` over the merged graph
    that turns every tap node's emissions into wake events the way it
    does OUT's — the shared upstream nodes run exactly once per round
    regardless of how many conditions consume them.
    """

    def __init__(self, merged: MergedProgram):
        self.merged = merged
        self.graph = merged_graph(merged)
        self._runtime = HubRuntime(self.graph)

    def feed(self, channel_chunks) -> Dict[int, List[WakeEvent]]:
        """Process one round; return wake events keyed by tap node id.

        When two conditions merged into the same tap (they were
        identical), the dictionary carries that tap once; callers keep
        their own tap -> condition mapping.
        """
        return self._runtime.feed(channel_chunks, self.merged.taps)

    def run(self, rounds) -> Dict[int, List[WakeEvent]]:
        """Feed every round; return accumulated events per tap."""
        return self._runtime.run(rounds, self.merged.taps)

    def reset(self) -> None:
        """Reset all interpreter state."""
        self._runtime.reset()
