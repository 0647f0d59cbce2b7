"""Span tracing around the program's public entry points.

The benchmark never edits program code.  For a traced run it replaces
each entry point in :data:`HOOKS` with a thin wrapper that records one
span per call — name, start, end, parent span, request id — into an
in-memory :class:`Tracer`, and restores the original attribute objects
when the run ends.  Untraced runs never install anything.

Spans nest by call order (the benchmark drives the shard from one
thread), so a span's parent is whichever span was open when it began.
Only root spans carry a request id; children inherit their root's.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _ticket_id(args, kwargs, result):
    response = getattr(result, "response", None)
    sid = getattr(response, "submission_id", None)
    return ("ticket", sid) if sid is not None else ("refused",)


def _chunk_id(args, kwargs, result):
    stream = args[2] if len(args) > 2 else kwargs.get("stream")
    seq = args[3] if len(args) > 3 else kwargs.get("seq")
    return ("chunk", stream, seq)


def _stream_id(args, kwargs, result):
    stream = args[2] if len(args) > 2 else kwargs.get("stream")
    return ("close", stream)


@dataclass(frozen=True)
class Hook:
    """One traced entry point.

    Attributes:
        module: Module holding ``owner`` (or the function itself).
        owner: Class name, or ``None`` for a module-level name.
        attr: Attribute wrapped on the owner.
        span: Span name recorded per call; ``None`` records no span
            and counts return values instead (``count_prefix``).
        request: For root calls, derives the request id from
            ``(args, kwargs, result)``; ``None`` uses the tracer's
            current request.
        count_prefix: With ``span=None``, counts ``prefix + result``.
    """

    module: str
    owner: Optional[str]
    attr: str
    span: Optional[str]
    request: Optional[Callable] = None
    count_prefix: str = ""


#: Every wrapped entry point.  Functions imported by name into another
#: module are wrapped where the caller looks them up.
HOOKS: Tuple[Hook, ...] = (
    Hook("repro.serve.cluster", "ShardCluster", "submit", "serve.submit",
         request=_ticket_id),
    Hook("repro.serve.cluster", "ShardCluster", "pump", "serve.pump"),
    Hook("repro.serve.cluster", "ShardCluster", "push_chunk",
         "serve.ingest.push", request=_chunk_id),
    Hook("repro.serve.cluster", "ShardCluster", "close_stream",
         "serve.ingest.close", request=_stream_id),
    Hook("repro.serve.cluster", "ShardCluster", "recover", "serve.recover"),
    Hook("repro.serve.service", None, "read_journal", "serve.recover.read"),
    Hook("repro.serve.scheduler", "Scheduler", "run_batch",
         "serve.scheduler"),
    Hook("repro.serve.scheduler", None, "validate_condition",
         "api.validate"),
    Hook("repro.serve.ingest", None, "validate_condition", "api.validate"),
    Hook("repro.serve.scheduler", None, "execute_plan",
         "sim.engine.execute_plan"),
    Hook("repro.sim.engine", "RunContext", "wake_events_batch",
         "sim.engine.wake_events_batch"),
    Hook("repro.sim.engine", "RunContext", "wake_events",
         "sim.engine.wake_events"),
    Hook("repro.hub.compile", "CompiledPlan", "execute",
         "hub.compile.execute"),
    Hook("repro.hub.compile", "BatchedPlan", "execute_batch_with_info",
         "hub.compile.execute_batch"),
    Hook("repro.hub.compile", "BatchedPlan",
         "execute_shape_batch_with_info", "hub.compile.execute_shape_batch"),
    Hook("repro.hub.runtime", "HubRuntime", "run", "hub.runtime.run"),
    Hook("repro.hub.runtime", "HubRuntime", "run_fused",
         "hub.runtime.run_fused"),
    Hook("repro.hub.costmodel", "CostModel", "choose", None,
         count_prefix="hub.costmodel.choice."),
    Hook("repro.serve.journal", "JournalWriter", "append",
         "serve.journal.append"),
    Hook("repro.serve.journal", "JournalWriter", "flush",
         "serve.journal.flush"),
    Hook("repro.serve.store", "ResultStore", "put", "serve.store"),
    Hook("repro.serve.ingest", "StreamIngest", "advance",
         "serve.ingest.advance"),
    Hook("repro.serve.ingest", None, "advance_rows_with_info",
         "hub.incremental.rows"),
    Hook("repro.hub.incremental", "ChunkedReplayState", "advance",
         "hub.incremental.replay"),
    Hook("repro.hub.incremental", "RoundReplayState", "advance",
         "hub.incremental.replay"),
    Hook("repro.traces.stream", "StreamBuffer", "spans_since",
         "traces.stream.spans_since"),
)


class Tracer:
    """In-memory span store plus the driver's tagging state.

    The driver sets :attr:`phase` around the parts of a run it wants
    recorded (``None`` records nothing — calls pass straight through)
    and :attr:`request` before calls whose request id it owns.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent, request, phase]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.phase: Optional[str] = None
        self.request: Optional[tuple] = None
        self._stack: List[int] = []

    def call(self, hook: Hook, fn: Callable, args, kwargs):
        """Run ``fn`` under one span (or one return-value count)."""
        if self.phase is None:
            return fn(*args, **kwargs)
        if hook.span is None:
            result = fn(*args, **kwargs)
            self.counts[hook.count_prefix + str(result)] += 1
            return result
        root = not self._stack
        parent = self._stack[-1] if self._stack else -1
        record = [hook.span, 0.0, 0.0, parent, None, self.phase]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if root:
                record[4] = (
                    hook.request(args, kwargs, result)
                    if hook.request is not None
                    else self.request
                )

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children's."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for record in self.spans:
            if record[3] >= 0:
                children.setdefault(record[3], []).append(
                    (record[1], record[2])
                )
        out: List[float] = []
        for index, record in enumerate(self.spans):
            start, end = record[1], record[2]
            out.append((end - start) - covered(start, end, children.get(index, ())))
        return out

    def requests(self) -> List[Optional[tuple]]:
        """Each span's request id (children inherit their root's)."""
        out: List[Optional[tuple]] = []
        for record in self.spans:
            parent = record[3]
            out.append(record[4] if parent < 0 else out[parent])
        return out

    def layer_totals(
        self, phases: Sequence[str]
    ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` over the
        spans recorded in ``phases``."""
        own = self.self_times()
        totals: Dict[str, Dict[str, float]] = {}
        for record, self_s in zip(self.spans, own):
            if record[5] not in phases:
                continue
            entry = totals.setdefault(
                record[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += record[2] - record[1]
            entry["self_s"] += self_s
        return totals

    def write(self, path: Path) -> None:
        """Write every span as gzip JSON lines: a header naming the
        fields, then ``[name, start, end, parent, request, phase]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        requests = self.requests()
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps(
                {"fields": ["name", "start", "end", "parent", "request",
                            "phase"]}
            ) + "\n")
            for record, request in zip(self.spans, requests):
                handle.write(json.dumps(
                    [record[0], record[1], record[2], record[3],
                     list(request) if request is not None else None,
                     record[5]]
                ) + "\n")


def covered(
    start: float, end: float, intervals: Sequence[Tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _owner(hook: Hook):
    module = importlib.import_module(hook.module)
    return getattr(module, hook.owner) if hook.owner else module


def _wrap(tracer: Tracer, hook: Hook, raw):
    """A replacement for the raw attribute ``raw`` that traces calls."""
    if isinstance(raw, classmethod):
        inner = raw.__func__

        @functools.wraps(inner)
        def traced_cls(*args, **kwargs):
            return tracer.call(hook, inner, args, kwargs)

        return classmethod(traced_cls)

    @functools.wraps(raw)
    def traced(*args, **kwargs):
        return tracer.call(hook, raw, args, kwargs)

    return traced


class Installed:
    """Wrappers installed for one traced run; :meth:`remove` restores
    every original attribute object exactly."""

    def __init__(self, tracer: Tracer, hooks: Sequence[Hook] = HOOKS):
        self._saved: List[Tuple[object, str, object]] = []
        try:
            for hook in hooks:
                owner = _owner(hook)
                raw = vars(owner)[hook.attr]
                self._saved.append((owner, hook.attr, raw))
                setattr(owner, hook.attr, _wrap(tracer, hook, raw))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put back every wrapped attribute (idempotent)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def snapshot(hooks: Sequence[Hook] = HOOKS) -> Dict[Tuple[str, Optional[str], str], object]:
    """The raw attribute object behind every hook (for identity checks)."""
    return {
        (hook.module, hook.owner, hook.attr): vars(_owner(hook))[hook.attr]
        for hook in hooks
    }
