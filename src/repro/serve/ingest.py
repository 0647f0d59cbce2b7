"""Streaming ingestion: devices push chunks, conditions evaluate as they land.

The serving tier so far is *replay-shaped*: a submission names a finished
recording and one engine run answers it.  Real deployments are
*stream-shaped* — a device uploads sensor data a few seconds at a time,
and its wake-up conditions should fire as the data arrives, not after
the recording ends.  :class:`StreamIngest` is that path for one shard:

* devices push sequence-numbered chunks into per-``(tenant, stream)``
  append-only :class:`~repro.traces.stream.StreamBuffer`\\ s;
* tenants register long-lived **streaming subscriptions** — the same
  wire form as a raw-IL :class:`~repro.serve.submission.Submission`,
  with the stream name in the ``trace`` field — validated through the
  same manager push path as replay submissions;
* each pump round, :meth:`advance` walks every subscription's cursor
  over the newly arrived span and evaluates *only* that span, carrying
  hub state across rounds (:mod:`repro.hub.incremental`): bounded
  replay for incremental-eligible graphs, whole-graph replay fallbacks
  otherwise.  Same-``batch_key`` subscriptions across devices and
  fingerprints advance through one stacked tensor dispatch per plan
  step, so round-sized arrivals run on the batched tier rather than
  row at a time.

The correctness contract is inherited from the execution layer: every
stream state is arrival-chunking invariant, so the concatenated event
log of a subscription is **bit-identical** to replaying the finally
assembled trace whole (at the subscription's ``chunk_seconds``) — which
is also why recovery needs no per-subscription result records: rebuild
each buffer in bulk from the journal's ``chunk`` records
(:meth:`restore`), re-register its ``sub`` records, and one catch-up
:meth:`advance` re-derives every event.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.api.manager import validate_condition
from repro.errors import HubExecutionError, ServiceError, TraceError
from repro.hub.incremental import (
    IncrementalGraphState,
    StreamState,
    advance_rows_with_info,
    make_stream_state,
)
from repro.hub.runtime import WakeEvent
from repro.serve.scheduler import HUB_CATALOGS
from repro.serve.submission import Submission
from repro.traces.stream import StreamBuffer

__all__ = ["StreamIngest", "StreamSubscriptionState"]


class StreamSubscriptionState:
    """One live streaming subscription on one stream.

    Attributes:
        sub_id: Shard-assigned subscription id (journal replay
            reassigns the same ids, in the same order).
        submission: The wire form — a raw-IL submission whose ``trace``
            names the stream.  This is exactly the submission a replay
            drive would send over the assembled trace, which is what
            makes streamed results digest-comparable to replayed ones.
        channels: The graph's input channels (a subset of the stream's).
        state: The incremental execution state
            (:data:`repro.hub.incremental.StreamState`).
        cursor: Per-channel consumed item counts into the stream buffer.
        events: Wake events emitted so far, in stream order.
        done: True once the stream closed under this subscription.
    """

    __slots__ = (
        "sub_id", "submission", "channels", "state", "cursor",
        "events", "done",
    )

    def __init__(
        self,
        sub_id: int,
        submission: Submission,
        channels: Tuple[str, ...],
        state: StreamState,
    ):
        self.sub_id = sub_id
        self.submission = submission
        self.channels = channels
        self.state = state
        self.cursor: Dict[str, int] = {}
        self.events: List[WakeEvent] = []
        self.done = False


class StreamIngest:
    """Per-shard streaming state: buffers, subscriptions, and the pump hook.

    Args:
        now: The shard's clock (journal records carry its stamps).
        journal_append: Optional record sink — the service's buffered
            journal append, already wrapped so a journal failure is
            counted on shard health instead of raised.  ``None`` for a
            non-durable shard.

    The service calls :meth:`advance` once per pump round; everything
    else is request-path bookkeeping.  All methods raise the library's
    own error types on bad input — the service layer turns them into
    structured :class:`~repro.serve.submission.Rejected` values.
    """

    def __init__(
        self,
        now: Callable[[], float],
        journal_append: Optional[Callable[[tuple], None]] = None,
    ):
        self._now = now
        self._journal_append = journal_append
        self._buffers: Dict[Tuple[str, str], StreamBuffer] = {}
        self._subs: Dict[int, StreamSubscriptionState] = {}
        self._by_stream: Dict[Tuple[str, str], List[int]] = {}
        self._next_sub_id = 1
        self._dirty = False
        #: Chunks applied (idempotent duplicates excluded).
        self.chunks = 0
        #: Subscriptions registered over the shard's lifetime.
        self.subscriptions = 0
        #: Incremental-round dispatches issued by :meth:`advance`.
        self.rounds = 0
        #: Subscription-rows those dispatches covered
        #: (``cells / rounds`` is the incremental-round occupancy).
        self.cells = 0

    # -- device-facing ingestion ----------------------------------------

    @property
    def dirty(self) -> bool:
        """True when pushes/subscriptions arrived since the last advance."""
        return self._dirty

    def stream_names(self) -> Tuple[Tuple[str, str], ...]:
        """Every ``(tenant, stream)`` this shard holds, sorted."""
        return tuple(sorted(self._buffers))

    def next_seq(self, tenant: str, stream: str) -> int:
        """The next chunk sequence number a stream expects (0 if unknown).

        This is the device resync point: chunks buffered by the shard
        but lost to a crash before the journal flushed simply were not
        applied after recovery, and the device re-pushes from here —
        re-pushing an already-applied ``seq`` is an idempotent no-op.
        """
        buffer = self._buffers.get((tenant, stream))
        return buffer.next_seq if buffer is not None else 0

    def push(
        self,
        tenant: str,
        stream: str,
        seq: int,
        samples: Mapping[str, np.ndarray],
        rate_hz: Optional[Mapping[str, float]] = None,
    ) -> bool:
        """Apply one device chunk; True when it advanced the stream.

        The first chunk of a stream must carry ``rate_hz`` (it fixes
        the channel set and timeline); later chunks may omit it.  An
        applied chunk is journaled with each channel's samples as raw
        float64 bytes, the dtype the stream buffer stores.

        Raises:
            ServiceError: unknown stream with no ``rate_hz``.
            TraceError: sequence gap, unknown channel or malformed
                samples.  A refused chunk changes nothing and is not
                journaled; a first chunk that applies nothing (refused,
                or a duplicate ``seq`` below zero) does not open the
                stream.
        """
        if not self._extend(tenant, stream, seq, 1, samples, rate_hz):
            return False
        if self._journal_append is not None:
            self._journal_append(
                ("chunk", tenant, stream, seq, self._now(),
                 dict(self._buffers[(tenant, stream)].rate_hz),
                 {name: np.asarray(values, dtype=np.float64).tobytes()
                  for name, values in samples.items()})
            )
        return True

    def restore(self, records: Iterable[tuple]) -> Tuple[int, int]:
        """Rebuild streams from journaled ``chunk`` records.

        Each stream's records are grouped in journal order, each
        channel's raw samples are joined and decoded once, and the run
        is applied with one append per channel — the state pushing the
        records one by one would leave: the same samples, ``next_seq``
        and :attr:`chunks`.  Nothing is re-journaled.  Returns
        ``(streams, chunks)`` rebuilt.

        Raises:
            TraceError: when a stream's sequence numbers do not run on
                without a gap from its next sequence number, as
                :meth:`push` would.
        """
        runs: Dict[Tuple[str, str], List[tuple]] = {}
        for record in records:
            runs.setdefault((record[1], record[2]), []).append(record)
        applied = 0
        for (tenant, stream), run in runs.items():
            first = run[0][3]
            raw: Dict[str, List[bytes]] = {}
            for offset, (_, _, _, seq, _, _, samples) in enumerate(run):
                if seq != first + offset:
                    raise TraceError(
                        f"stream {stream!r}: journaled chunk seq {seq} "
                        f"follows seq {first + offset - 1} (chunks must "
                        "append in order)"
                    )
                for name, data in samples.items():
                    raw.setdefault(name, []).append(data)
            applied += self._extend(
                tenant, stream, first, len(run),
                {name: np.frombuffer(b"".join(parts), dtype=np.float64)
                 for name, parts in raw.items()},
                run[0][5],
            )
        return len(runs), applied

    def _extend(
        self,
        tenant: str,
        stream: str,
        seq: int,
        count: int,
        samples: Mapping[str, np.ndarray],
        rate_hz: Optional[Mapping[str, float]],
    ) -> int:
        """Apply a run of chunks to one stream (see
        :meth:`StreamBuffer.extend`), opening it on the first chunk
        applied; returns how many were applied.  A stream opens only
        with a chunk, so nothing can subscribe to a stream the journal
        holds no chunk of."""
        key = (tenant, stream)
        buffer = self._buffers.get(key)
        if buffer is None:
            if rate_hz is None:
                raise ServiceError(
                    f"stream {stream!r} of tenant {tenant!r} is unknown; "
                    "its first chunk must carry rate_hz"
                )
            buffer = StreamBuffer(stream, dict(rate_hz))
        applied = buffer.extend(seq, count, samples)
        if applied:
            if key not in self._buffers:
                self._buffers[key] = buffer
                self._by_stream[key] = []
            self.chunks += applied
            self._dirty = True
        return applied

    # -- tenant-facing subscriptions ------------------------------------

    def subscribe(
        self,
        submission: Submission,
        journal: bool = True,
        sub_id: Optional[int] = None,
    ) -> int:
        """Register a streaming subscription; returns its id.

        ``submission.trace`` names the stream (which must already have
        received its first chunk — the channel set has to be known to
        validate coverage); ``submission.il`` carries the condition.
        Validation runs the same manager push path as replay
        submissions.  Journal replay passes the journaled ``sub_id`` so
        a recovered shard reassigns exactly the pre-crash ids.

        Raises:
            ServiceError: missing IL, unknown hub, or unknown stream.
            HubExecutionError: the stream lacks a channel the condition
                reads.
            SidewinderError: any IL validation/placement failure.
        """
        if submission.il is None:
            raise ServiceError(
                "streaming subscriptions carry raw IL (app submissions "
                "replay finished recordings; streams have none yet)"
            )
        if submission.hub not in HUB_CATALOGS:
            raise ServiceError(f"unknown hub {submission.hub!r}")
        if submission.chunk_seconds <= 0:
            raise ServiceError(
                f"chunk_seconds must be positive, got {submission.chunk_seconds}"
            )
        key = (submission.tenant, submission.trace)
        buffer = self._buffers.get(key)
        if buffer is None:
            raise ServiceError(
                f"stream {submission.trace!r} of tenant "
                f"{submission.tenant!r} has no chunks yet"
            )
        _, graph, _ = validate_condition(
            submission.il, HUB_CATALOGS[submission.hub]
        )
        missing = sorted(c for c in graph.channels if c not in buffer.rate_hz)
        if missing:
            raise HubExecutionError(
                f"stream {submission.trace!r} lacks channels {missing} "
                "needed by the wake-up condition"
            )
        state = make_stream_state(graph, float(submission.chunk_seconds))
        if sub_id is None:
            sub_id = self._next_sub_id
        if sub_id in self._subs:
            raise ServiceError(f"stream subscription {sub_id} already exists")
        self._next_sub_id = max(self._next_sub_id, sub_id + 1)
        sub = StreamSubscriptionState(
            sub_id, submission, tuple(sorted(graph.channels)), state
        )
        self._subs[sub_id] = sub
        self._by_stream[key].append(sub_id)
        self.subscriptions += 1
        self._dirty = True
        if journal and self._journal_append is not None:
            self._journal_append(("sub", sub_id, self._now(), submission))
        return sub_id

    def subscription(self, sub_id: int) -> StreamSubscriptionState:
        """One subscription's live state (raises on unknown id)."""
        sub = self._subs.get(sub_id)
        if sub is None:
            raise ServiceError(f"unknown stream subscription {sub_id}")
        return sub

    def results(self, sub_id: int) -> Tuple[WakeEvent, ...]:
        """Wake events a subscription has emitted so far, in order."""
        return tuple(self.subscription(sub_id).events)

    # -- the pump hook ---------------------------------------------------

    def advance(self) -> Dict[int, List[WakeEvent]]:
        """Evaluate every subscription over its newly arrived span.

        Same-``batch_key`` incremental subscriptions — across devices,
        streams and fingerprints — advance through one stacked dispatch
        per plan step; replay-fallback subscriptions advance singly.
        Returns the events produced this round, by subscription id
        (only ids that produced something appear).
        """
        self._dirty = False
        produced: Dict[int, List[WakeEvent]] = {}
        groups: Dict[tuple, List[Tuple[StreamSubscriptionState, Dict]]] = {}
        for sub_id in sorted(self._subs):
            sub = self._subs[sub_id]
            if sub.done:
                continue
            buffer = self._buffers[(sub.submission.tenant, sub.submission.trace)]
            spans, sub.cursor = buffer.spans_since(sub.cursor, sub.channels)
            if all(span.is_empty for span in spans.values()):
                continue
            if isinstance(sub.state, IncrementalGraphState):
                groups.setdefault(sub.state.batch_key, []).append((sub, spans))
            else:
                events = sub.state.advance(spans)
                self.rounds += 1
                self.cells += 1
                if events:
                    sub.events.extend(events)
                    produced[sub.sub_id] = events
        for members in groups.values():
            results, info = advance_rows_with_info(
                [sub.state for sub, _ in members],
                [spans for _, spans in members],
            )
            self.rounds += info.dispatches
            self.cells += info.rows
            for (sub, _), events in zip(members, results):
                if events:
                    sub.events.extend(events)
                    produced[sub.sub_id] = events
        return produced

    def close_stream(
        self, tenant: str, stream: str
    ) -> Dict[int, Tuple[WakeEvent, ...]]:
        """End one stream: final catch-up, flush, and per-sub results.

        Runs a full :meth:`advance` first (keeping the final spans on
        the batched path alongside every other stream's arrivals), then
        closes each of the stream's subscription states and returns
        their complete event logs.  Closure is not journaled: a
        recovered shard reopens the stream and the driver re-closes —
        arrival-chunking invariance makes the re-derived logs
        bit-identical.

        Raises:
            ServiceError: unknown stream.
        """
        key = (tenant, stream)
        if key not in self._buffers:
            raise ServiceError(
                f"stream {stream!r} of tenant {tenant!r} is unknown"
            )
        self.advance()
        results: Dict[int, Tuple[WakeEvent, ...]] = {}
        for sub_id in self._by_stream[key]:
            sub = self._subs[sub_id]
            if not sub.done:
                sub.events.extend(sub.state.close())
                sub.done = True
            results[sub_id] = tuple(sub.events)
        return results

    # -- metrics ---------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Samples pushed but not yet walked by every open subscription."""
        total = 0
        for sub in self._subs.values():
            if sub.done:
                continue
            counts = self._buffers[
                (sub.submission.tenant, sub.submission.trace)
            ].counts()
            total += sum(
                max(0, counts[name] - sub.cursor.get(name, 0))
                for name in sub.channels
            )
        return total

    @property
    def lag_s(self) -> float:
        """Worst chunk lag: how far the furthest-behind open
        subscription's cursor trails its stream's timeline end."""
        worst = 0.0
        for sub in self._subs.values():
            if sub.done:
                continue
            buffer = self._buffers[
                (sub.submission.tenant, sub.submission.trace)
            ]
            walked = min(
                sub.cursor.get(name, 0) / buffer.rate_hz[name]
                for name in sub.channels
            )
            worst = max(worst, buffer.end_seconds - walked)
        return worst
