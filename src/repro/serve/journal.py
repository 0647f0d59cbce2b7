"""The service's write-ahead journal: durability for the fleet shard.

A crashed :class:`~repro.serve.service.ConditionService` used to forget
every accepted submission and every undelivered result.  The journal
makes the service crash-recoverable with the same discipline the hub
tier's reliable link (:mod:`repro.hub.reliability`) applies on the
wire: every record is framed, CRC-checksummed, and validated before it
is trusted.

Record framing (little-endian)::

    u32 payload length | u32 crc32(payload) | payload

The payload is a pickled tuple whose first element names the record
kind:

* ``("accept", submission_id, now, submission)`` — appended *before*
  the ticket is returned to the tenant;
* ``("round", now, member_ids)`` — one scheduling round began at
  logical time ``now`` over exactly these tickets; flushed (with every
  buffered accept) before the round executes, so an interrupted round
  is recoverable with its original batch and its original clock value;
* ``("complete", submission_id, now, response, memo_key)`` — a
  terminal :class:`~repro.serve.submission.Response`, payload
  included;
* ``("cref", submission_id, now, payer_id, dedup, latency, memo_key)``
  — a completion whose result object is *shared* with an earlier
  completion (fingerprint dedup / memo hits, or two conditions that
  both never fire and return the one empty tuple); the journal stores
  one payload per unique result and references it thereafter, which
  is what keeps journal size proportional to engine runs rather than
  fleet size;
* ``("chunk", tenant, stream, seq, now, rate_hz, samples)`` — one
  device chunk applied to a stream buffer, flushed with the pump round
  that made it durable; ``samples`` maps each channel to its samples
  as raw float64 bytes.  Recovery groups each stream's records in
  journal order and rebuilds the stream with one append per channel;
* ``("sub", subscription_id, now, subscription)`` — a streaming
  subscription was registered.  No per-subscription results are
  journaled: streamed evaluation is arrival-chunking invariant, so
  recovery re-derives wake events from the rebuilt buffers.

A payer — a completion with ``dedup=False``, whose round ran the
engine for it — carries in ``memo_key`` the key the scheduler filed its
result under, on a ``complete`` or a ``cref`` record alike; every other
``complete``/``cref`` record carries ``None``.  Recovery seeds the
scheduler's coalescing memo from these keys
(:meth:`~repro.serve.scheduler.Scheduler.seed_memo`) instead of
re-validating each condition.  Journals written before records carried
memo keys and raw chunk samples are not read.

Record kinds version forward: a reader encountering a validly framed
record whose kind it does not know *skips* it (counted on the scan)
instead of treating it as damage, so journals carrying newer record
kinds stay readable by older tooling.

Durability batching follows the service's pump cadence: appends buffer
in memory and :meth:`JournalWriter.flush` (write + fsync) runs at round
boundaries.  A simulated crash (:meth:`JournalWriter.crash`) discards
the buffer — or flushes a deliberate prefix of it to model a torn tail
record.  :func:`read_journal` recovers the longest valid prefix of a
damaged journal: a torn tail or a bad-CRC record stops the scan and is
reported, never raised.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import JournalError
from repro.serve.submission import Response

#: Record header: payload length, then CRC-32 of the payload.
HEADER = struct.Struct("<II")

#: Record kinds this reader understands.  A validly framed tuple whose
#: kind is *not* listed here is skipped with a count, not damage — the
#: forward-compatibility contract that lets old tooling read journals
#: written with newer record kinds.
RECORD_KINDS = ("accept", "round", "complete", "cref", "chunk", "sub")

#: Pickle protocol for record payloads (stable across 3.8+).
_PICKLE_PROTOCOL = 4


def encode_record(record: tuple) -> bytes:
    """Frame one record tuple: length prefix + CRC + pickled payload."""
    payload = pickle.dumps(record, protocol=_PICKLE_PROTOCOL)
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class JournalScan:
    """Outcome of scanning a journal file.

    Attributes:
        records: The longest valid prefix of decoded record tuples.
        valid_bytes: Bytes of the file covered by ``records``.
        total_bytes: File size; ``total_bytes - valid_bytes`` is the
            damaged/torn suffix.
        reason: Why the scan stopped early (``"torn_tail"`` for a
            record cut short, ``"corrupt_record"`` for a CRC or decode
            failure), or ``None`` for a clean journal.
        skipped_records: Validly framed records whose kind this reader
            does not know — written by newer tooling and skipped, not
            treated as damage.  Their bytes count as valid.
    """

    records: Tuple[tuple, ...]
    valid_bytes: int
    total_bytes: int
    reason: Optional[str] = None
    skipped_records: int = 0

    @property
    def truncated_bytes(self) -> int:
        """Bytes past the valid prefix (0 for a clean journal)."""
        return self.total_bytes - self.valid_bytes


def read_journal(path: Union[str, Path]) -> JournalScan:
    """Scan a journal, returning the longest valid record prefix.

    Never raises on damage: a torn tail (partial header or payload) or
    a corrupted record (CRC mismatch, undecodable or malformed payload)
    simply ends the prefix, with the reason reported on the scan.  A
    validly framed record of an *unknown kind* — a tuple headed by an
    unrecognized string — is not damage: it is counted on
    ``skipped_records`` and the scan continues, so journals written
    with newer record kinds stay readable.

    Raises:
        JournalError: only when the file itself cannot be read.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise JournalError(f"cannot read journal {path}: {error}") from None
    records: List[tuple] = []
    offset = 0
    reason: Optional[str] = None
    skipped = 0
    while offset < len(data):
        if offset + HEADER.size > len(data):
            reason = "torn_tail"
            break
        length, crc = HEADER.unpack_from(data, offset)
        start = offset + HEADER.size
        if length == 0 or start + length > len(data):
            reason = "torn_tail"
            break
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            reason = "corrupt_record"
            break
        try:
            record = pickle.loads(payload)
        except Exception:
            reason = "corrupt_record"
            break
        if not (
            isinstance(record, tuple)
            and record
            and isinstance(record[0], str)
        ):
            reason = "corrupt_record"
            break
        if record[0] not in RECORD_KINDS:
            skipped += 1
            offset = start + length
            continue
        records.append(record)
        offset = start + length
    return JournalScan(
        records=tuple(records),
        valid_bytes=offset,
        total_bytes=len(data),
        reason=reason,
        skipped_records=skipped,
    )


def truncate_journal(path: Union[str, Path], valid_bytes: int) -> None:
    """Cut a journal back to its valid prefix before re-appending."""
    try:
        with open(path, "r+b") as handle:
            handle.truncate(valid_bytes)
    except OSError as error:
        raise JournalError(
            f"cannot truncate journal {path}: {error}"
        ) from None


class JournalWriter:
    """Buffered, CRC-framed, fsync-batched journal appender.

    Appends accumulate in memory; :meth:`flush` writes them and fsyncs,
    making everything up to that point durable.  This matches the
    service's batching: one flush per scheduling round, so the journal
    adds one write+fsync per ``pump()``, not per submission.

    Args:
        path: Journal file, opened for append (created if missing).
        faults: Optional
            :class:`~repro.serve.faults.ServiceFaultInjector` consulted
            per append — lets robustness tests inject deterministic
            journal I/O errors.
    """

    def __init__(self, path: Union[str, Path], faults=None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._file = open(self.path, "ab")
        except OSError as error:
            raise JournalError(
                f"cannot open journal {self.path}: {error}"
            ) from None
        self._faults = faults
        self._buffer = bytearray()
        self._closed = False
        self.appended_records = 0
        self.flushes = 0

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes not yet made durable by a flush."""
        return len(self._buffer)

    def append(self, record: tuple) -> None:
        """Buffer one record for the next flush.

        Raises:
            JournalError: when the writer is closed or the fault plan
                injects an append error.
        """
        if self._closed:
            raise JournalError(f"journal {self.path} is closed")
        if self._faults is not None and self._faults.journal_append_fails():
            raise JournalError(
                f"injected journal append error (record "
                f"{self.appended_records})"
            )
        self._buffer += encode_record(record)
        self.appended_records += 1

    def flush(self) -> None:
        """Write buffered records and fsync — the durability boundary."""
        if self._closed:
            raise JournalError(f"journal {self.path} is closed")
        if self._buffer:
            try:
                self._file.write(bytes(self._buffer))
                self._file.flush()
                os.fsync(self._file.fileno())
            except OSError as error:
                raise JournalError(
                    f"journal flush failed on {self.path}: {error}"
                ) from None
            self._buffer.clear()
        self.flushes += 1

    def crash(self, torn_bytes: Optional[int] = None) -> None:
        """Simulate process death: drop (or tear) the un-flushed buffer.

        Args:
            torn_bytes: When set, this many buffered bytes reach the
                file before the "crash" — cutting mid-record and
                leaving exactly the torn tail :func:`read_journal`
                must survive.  ``None`` loses the whole buffer.
        """
        if self._closed:
            return
        if torn_bytes and self._buffer:
            torn = bytes(self._buffer[: max(0, int(torn_bytes))])
            try:
                self._file.write(torn)
                self._file.flush()
                os.fsync(self._file.fileno())
            except OSError:
                pass
        self._buffer.clear()
        self._file.close()
        self._closed = True

    def close(self) -> None:
        """Flush outstanding records and close the file (idempotent)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._file.close()
            self._closed = True


@dataclass(frozen=True)
class RecoveryStats:
    """What :meth:`ConditionService.recover` rebuilt from a journal.

    Attributes:
        journal_bytes: Journal file size at recovery time.
        valid_bytes: Bytes of the valid record prefix that was kept.
        truncated_bytes: Damaged/torn suffix bytes cut away.
        truncation_reason: ``"torn_tail"`` / ``"corrupt_record"`` when
            the journal was damaged, else ``None``.
        records: Valid records replayed.
        accepts: Accepted submissions found durable.
        rounds: Scheduling rounds found durable (drivers use this to
            resume pump cadence past boundaries that already ran).
        completions: Terminal responses re-answered from the journal.
        seeded: Coalescing-memo entries restored from journaled payer
            keys.
        streams: Streams rebuilt from ``chunk`` records.
        chunks: Chunks those streams were rebuilt from.
        replayed: Those re-answered responses, bit-identical to the
            pre-crash originals, in journal order.
        reexecuted: Responses of the interrupted round the recovery
            re-ran through the engine at its original logical time.
        requeued: Submission ids re-enqueued for normal scheduling
            (accepted, durable, but never reached a round).
        next_id: The restored ticket counter.
        clock: The restored logical-clock value.
    """

    journal_bytes: int
    valid_bytes: int
    truncated_bytes: int
    truncation_reason: Optional[str]
    records: int
    accepts: int
    rounds: int
    completions: int
    seeded: int = 0
    streams: int = 0
    chunks: int = 0
    replayed: Tuple[Response, ...] = ()
    reexecuted: Tuple[Response, ...] = ()
    requeued: Tuple[int, ...] = field(default_factory=tuple)
    next_id: int = 1
    clock: float = 0.0

    def describe(self) -> str:
        """One-line human-readable recovery summary."""
        damage = (
            f", truncated {self.truncated_bytes} bytes "
            f"({self.truncation_reason})"
            if self.truncated_bytes
            else ""
        )
        return (
            f"recovered {self.records} records ({self.accepts} accepts, "
            f"{self.completions} completions): {len(self.replayed)} "
            f"re-answered, {len(self.reexecuted)} re-executed, "
            f"{len(self.requeued)} re-enqueued, {self.seeded} memo "
            f"entries seeded, {self.streams} streams rebuilt from "
            f"{self.chunks} chunks{damage}"
        )
