"""Append-only stream buffers: traces that grow as devices push chunks.

The serving stack's traces are fixed recordings; streaming ingestion
(:mod:`repro.serve.ingest`) instead assembles a trace *incrementally*
from timestamped sensor chunks a device pushes over time.
:class:`StreamBuffer` is that growing-``Trace`` abstraction: per
channel an append-only sample column on the canonical uniform timeline
(sample ``i`` of a channel lives at ``i / rate``, exactly where
:meth:`repro.traces.base.Trace.times` puts it), with sequence-numbered,
idempotent appends so journal replay after a crash cannot double-apply
a chunk.

The central identity: for any cursor, the per-channel spans handed out
by :meth:`spans_since` concatenate to bitwise the same arrays
:meth:`to_trace` produces at the end — which is what lets incremental
evaluation over arrival spans be digest-identical to replaying the
final assembled trace whole.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.sensors.samples import Chunk, StreamKind
from repro.traces.base import Trace


class StreamColumn:
    """Append-only float64 sample column that doubles its capacity when full.

    :meth:`append` copies the samples into place, so a push costs
    amortised O(chunk) and the caller may reuse its array afterwards.
    :attr:`data` is a read-only view of the filled prefix, so reading a
    span costs O(span) and a handed-out view never changes: later
    appends write past its end, and a doubling moves the column to a
    new buffer, leaving the old one to the views that still hold it.
    """

    __slots__ = ("_buffer", "_n")

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.float64)
        self._n = 0

    def append(self, array: np.ndarray) -> None:
        """Copy a 1-D array of samples onto the end of the column."""
        end = self._n + len(array)
        if end > len(self._buffer):
            grown = np.empty(max(end, 2 * len(self._buffer)), dtype=np.float64)
            grown[: self._n] = self._buffer[: self._n]
            self._buffer = grown
        self._buffer[self._n : end] = array
        self._n = end

    def __len__(self) -> int:
        return self._n

    @property
    def data(self) -> np.ndarray:
        """Read-only view of every sample appended so far."""
        view = self._buffer[: self._n]
        view.flags.writeable = False
        return view


class StreamBuffer:
    """One device's growing multi-channel recording.

    Args:
        name: Stream identifier — becomes the assembled trace's name,
            so it plays the role a trace name plays everywhere else
            (routing keys, result digests, store lookups).
        rate_hz: Sampling rate per channel name; fixes the channel set
            for the stream's lifetime.

    Chunks append through :meth:`push` (or, several at once, through
    :meth:`extend`) with a per-stream sequence number; ``seq`` must be
    the next unseen number (re-pushing an already-applied ``seq`` — a
    reconnect retry — is a no-op, a gap is an error).  Channels within
    one stream should advance roughly together: the assembled
    :meth:`to_trace` enforces the ``Trace`` consistency contract
    between every channel's sample count and the stream duration.
    """

    def __init__(self, name: str, rate_hz: Dict[str, float]):
        if not rate_hz:
            raise TraceError(f"stream {name!r} has no channels")
        for channel, rate in rate_hz.items():
            if not rate or rate <= 0:
                raise TraceError(
                    f"stream {name!r}: channel {channel!r} has no sampling rate"
                )
        self.name = name
        self.rate_hz: Dict[str, float] = dict(rate_hz)
        self.next_seq = 0
        self._columns: Dict[str, StreamColumn] = {
            channel: StreamColumn() for channel in rate_hz
        }

    @property
    def channels(self) -> Tuple[str, ...]:
        """Channel names, sorted (matching :attr:`Trace.channels`)."""
        return tuple(sorted(self.rate_hz))

    def counts(self) -> Dict[str, int]:
        """Samples appended so far, per channel — the cursor currency."""
        return {name: len(column) for name, column in self._columns.items()}

    @property
    def total_samples(self) -> int:
        """Samples appended so far across every channel."""
        return sum(len(column) for column in self._columns.values())

    @property
    def end_seconds(self) -> float:
        """Timeline end: the furthest any channel has been filled."""
        return max(
            len(self._columns[name]) / rate
            for name, rate in self.rate_hz.items()
        )

    @property
    def watermark_seconds(self) -> float:
        """Fully-covered span: the least-filled channel's extent."""
        return min(
            len(self._columns[name]) / rate
            for name, rate in self.rate_hz.items()
        )

    def push(self, seq: int, samples: Mapping[str, np.ndarray]) -> bool:
        """Append one sequence-numbered chunk of per-channel samples.

        The one-chunk case of :meth:`extend`.

        Args:
            seq: The chunk's per-stream sequence number.
            samples: New samples per channel name; channels absent from
                the chunk simply receive nothing this push.

        Returns:
            True when the chunk was applied; False when ``seq`` was
            already applied (idempotent duplicate — a device retrying
            after reconnect).

        Raises:
            TraceError: as :meth:`extend`.
        """
        return self.extend(seq, 1, samples) == 1

    def extend(
        self, seq: int, count: int, samples: Mapping[str, np.ndarray]
    ) -> int:
        """Append a run of ``count`` chunks numbered ``seq`` onwards.

        ``samples`` holds, per channel, the run's samples concatenated
        in chunk order, so each channel is appended once.  A run
        starting at an already-applied ``seq`` is an idempotent no-op.

        Returns:
            How many chunks were applied: ``count``, or 0 for a
            duplicate.

        Raises:
            TraceError: on a sequence gap, an unknown channel, or
                samples that are not a 1-D numeric array.  Every
                channel is checked before any is applied, so a refused
                run leaves the buffer unchanged.
        """
        if seq < self.next_seq:
            return 0
        if seq > self.next_seq:
            raise TraceError(
                f"stream {self.name!r}: chunk seq {seq} arrived before "
                f"seq {self.next_seq} (chunks must append in order)"
            )
        unknown = sorted(set(samples) - set(self.rate_hz))
        if unknown:
            raise TraceError(
                f"stream {self.name!r}: unknown channels {unknown}"
            )
        arrays: Dict[str, np.ndarray] = {}
        for name, values in samples.items():
            try:
                array = np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError) as error:
                raise TraceError(
                    f"stream {self.name!r}: channel {name!r} samples are "
                    f"not numeric ({error})"
                ) from None
            if array.ndim != 1:
                raise TraceError(
                    f"stream {self.name!r}: channel {name!r} samples must "
                    f"be 1-D, got shape {array.shape}"
                )
            arrays[name] = array
        for name, array in arrays.items():
            self._columns[name].append(array)
        self.next_seq += count
        return count

    def channel_span(self, name: str, start: int, stop: int) -> Chunk:
        """Items ``[start, stop)`` of one channel as a SCALAR chunk.

        Timestamps are computed on the canonical uniform grid
        (``arange(start, stop) / rate``), bitwise the slice of the
        assembled trace's :meth:`~repro.traces.base.Trace.times`.
        """
        rate = self.rate_hz[name]
        column = self._columns[name]
        stop = min(stop, len(column))
        if stop <= start:
            return Chunk.empty(StreamKind.SCALAR, rate)
        return Chunk.view(
            StreamKind.SCALAR,
            np.arange(start, stop, dtype=np.float64) / rate,
            column.data[start:stop],
            rate,
        )

    def spans_since(
        self, cursor: Dict[str, int], channels: Iterable[str]
    ) -> Tuple[Dict[str, Chunk], Dict[str, int]]:
        """New spans of the named channels past a cursor, plus the moved
        cursor.

        The cursor maps channel names to already-consumed item counts
        (missing channels count as 0).  Spans and moved-cursor entries
        cover exactly ``channels``; the other channels are not read.
        Concatenating the spans a cursor walks through reproduces every
        named channel's array exactly.
        """
        spans: Dict[str, Chunk] = {}
        moved: Dict[str, int] = {}
        for name in channels:
            start = cursor.get(name, 0)
            stop = len(self._columns[name])
            spans[name] = self.channel_span(name, start, stop)
            moved[name] = max(start, stop)
        return spans, moved

    def to_trace(self, name: Optional[str] = None) -> Trace:
        """Assemble everything pushed so far into a plain :class:`Trace`.

        The duration is the timeline end (the furthest-filled channel);
        ``Trace`` validation then enforces that every other channel is
        consistent with it.  The result carries no ground-truth events
        — a live stream has none — and replaying it whole through the
        ordinary serving path is the reference the streamed evaluation
        is asserted bit-identical against.
        """
        if self.total_samples == 0:
            raise TraceError(f"stream {self.name!r} has no samples")
        return Trace(
            name=name or self.name,
            data={
                channel: self._columns[channel].data
                for channel in self.rate_hz
            },
            rate_hz=dict(self.rate_hz),
            duration=self.end_seconds,
            metadata={"kind": "stream", "chunks": self.next_seq},
        )
