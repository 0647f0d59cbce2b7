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

from repro.hub.runtime import HubRuntime, WakeEvent, live_nodes
from repro.il.ast import ChannelRef, ILProgram, ILStatement, NodeRef
from repro.il.graph import DataflowGraph, build_graph
from repro.il.validate import validate_program

#: A node's structural identity: opcode, parameters, and the identities
#: of its inputs.  Two nodes with equal keys compute the same stream
#: from the same channels.
NodeKey = Tuple


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
        keys: Each merged node's :data:`NodeKey`, by node id.
    """

    program: ILProgram
    taps: Tuple[int, ...]
    shared_nodes: int
    node_count: int
    keys: Dict[int, NodeKey]

    @property
    def original_node_count(self) -> int:
        """Total nodes the unmerged programs would instantiate."""
        return self.node_count + self.shared_nodes


def node_keys(program: ILProgram) -> Dict[int, NodeKey]:
    """Every node's :data:`NodeKey`, by node id, inputs before consumers."""
    keys: Dict[int, NodeKey] = {}
    for statement in _topological(program):
        keys[statement.node_id] = (
            statement.opcode,
            statement.params,
            tuple(
                ("channel", ref.channel)
                if isinstance(ref, ChannelRef)
                else keys[ref.node_id]
                for ref in statement.inputs
            ),
        )
    return keys


def merge_programs(programs: Sequence[ILProgram]) -> MergedProgram:
    """Merge IL programs, sharing identical subcomputations.

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
    return _merge(programs)


def merge_graphs(graphs: Sequence[DataflowGraph]) -> MergedProgram:
    """:func:`merge_programs` over already validated conditions.

    A :class:`~repro.il.graph.DataflowGraph` is what
    :func:`repro.il.validate.validate_program` returns, so its program
    is merged as it stands, without validating it again.
    """
    return _merge([graph.program for graph in graphs])


def _merge(programs: Sequence[ILProgram]) -> MergedProgram:
    """The merge core: one statement per distinct :data:`NodeKey`."""
    statements: List[ILStatement] = []
    by_key: Dict[NodeKey, int] = {}
    taps: List[int] = []
    shared = 0

    for program in programs:
        by_id = program.statement_by_id()
        local_to_merged: Dict[int, int] = {}
        for node_id, key in node_keys(program).items():
            existing = by_key.get(key)
            if existing is not None:
                local_to_merged[node_id] = existing
                shared += 1
                continue
            statement = by_id[node_id]
            merged_id = len(statements) + 1
            inputs = tuple(
                ref if isinstance(ref, ChannelRef)
                else NodeRef(local_to_merged[ref.node_id])
                for ref in statement.inputs
            )
            statements.append(ILStatement(
                inputs, statement.opcode, merged_id, statement.params
            ))
            by_key[key] = merged_id
            local_to_merged[node_id] = merged_id
        taps.append(local_to_merged[program.output.node_id])

    merged = ILProgram(tuple(statements), NodeRef(taps[0]))
    return MergedProgram(
        program=merged,
        taps=tuple(taps),
        shared_nodes=shared,
        node_count=len(statements),
        keys={node_id: key for key, node_id in by_key.items()},
    )


def frontier(merged: MergedProgram) -> Tuple[int, ...]:
    """The shared nodes where the merged conditions part ways.

    A node is on the frontier when two or more conditions use it and
    it feeds a node that fewer of them use: the last node of a front
    end the conditions have in common (every siren's ``fft``; the two
    ``variance`` stats music and phrase conditions share).  Node ids
    in program order.
    """
    statements = merged.program.statements
    users: Dict[int, int] = {}
    for tap in merged.taps:
        for node_id in live_nodes(statements, (tap,), ()):
            users[node_id] = users.get(node_id, 0) + 1
    parting = set()
    for statement in statements:
        for ref in statement.inputs:
            if (
                isinstance(ref, NodeRef)
                and users[ref.node_id] >= 2
                and users[statement.node_id] < users[ref.node_id]
            ):
                parting.add(ref.node_id)
    return tuple(
        statement.node_id for statement in statements
        if statement.node_id in parting
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
