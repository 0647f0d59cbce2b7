"""Crash-safe response spill files for the result store.

The spill tier mirrors the trace-persistence format
(:mod:`repro.traces.io`): a compressed ``.npz`` holding the payload
plus a human-readable ``.json`` sidecar holding the metadata a fleet
operator greps for.  The payload is the pickled terminal
:class:`~repro.serve.submission.Response`, stored as a ``uint8`` array
so the archive layer stays pure numpy; the sidecar records the
payload's CRC-32, verified on every load, so a torn or bit-rotted spill
file surfaces as a :class:`~repro.errors.JournalError` instead of a
silently wrong response.

Both files are written through :func:`repro.traces.io.atomic_write`
(temp sibling + ``os.replace``), so a process killed mid-spill never
leaves a torn spill entry — the invariant the result store depends on:
a spill file either round-trips bit-identically or does not exist.
"""

from __future__ import annotations

import json
import pickle
import zipfile
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import JournalError
from repro.serve.submission import Cancelled, Completed, Failed, Response
from repro.traces.io import atomic_write

#: Pickle protocol for spilled payloads (matches the journal's).
_PICKLE_PROTOCOL = 4


def spill_path(directory: Union[str, Path], submission_id: int) -> Path:
    """Canonical spill-file location for one submission id."""
    return Path(directory) / f"result-{submission_id:08d}.npz"


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def save_response(
    directory: Union[str, Path], submission_id: int, response: Response,
    expiry: float,
) -> Path:
    """Spill one terminal response; returns the ``.npz`` written.

    Raises:
        JournalError: when the spill directory is not writable.
    """
    path = spill_path(directory, submission_id)
    payload = pickle.dumps(response, protocol=_PICKLE_PROTOCOL)
    manifest = {
        "submission_id": submission_id,
        "tenant": response.ticket.tenant,
        "kind": type(response).__name__,
        "expiry": expiry,
        "bytes": len(payload),
        "crc32": zlib.crc32(payload),
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as tmp:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle, payload=np.frombuffer(payload, dtype=np.uint8)
                )
        with atomic_write(_sidecar(path)) as tmp:
            tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    except OSError as error:
        raise JournalError(
            f"cannot spill result {submission_id} to {path}: {error}"
        ) from None
    return path


def load_response(directory: Union[str, Path], submission_id: int) -> Response:
    """Fault one spilled response back, verifying its CRC.

    Raises:
        JournalError: when the spill entry is missing, torn, or fails
            its integrity check.
    """
    path = spill_path(directory, submission_id)
    sidecar = _sidecar(path)
    if not path.exists() or not sidecar.exists():
        raise JournalError(
            f"spilled result {submission_id} missing: {path} / {sidecar}"
        )
    try:
        manifest = json.loads(sidecar.read_text())
        # Own the handle: ``np.load`` leaks the one it opens when the
        # archive turns out torn.
        with open(path, "rb") as handle, np.load(handle) as archive:
            payload = archive["payload"].tobytes()
    except (
        OSError, EOFError, ValueError, KeyError, json.JSONDecodeError,
        zipfile.BadZipFile,
    ) as error:
        raise JournalError(
            f"spilled result {submission_id} unreadable: {error}"
        ) from None
    if zlib.crc32(payload) != manifest.get("crc32"):
        raise JournalError(
            f"spilled result {submission_id} failed its CRC check"
        )
    try:
        response = pickle.loads(payload)
    except Exception as error:
        raise JournalError(
            f"spilled result {submission_id} cannot be decoded: {error}"
        ) from None
    if not isinstance(response, (Completed, Failed, Cancelled)):
        raise JournalError(
            f"spilled result {submission_id} decoded to "
            f"{type(response).__name__}, not a Response"
        )
    return response


def delete_response(directory: Union[str, Path], submission_id: int) -> None:
    """Remove one spill entry (both files); missing files are fine."""
    path = spill_path(directory, submission_id)
    for target in (path, _sidecar(path)):
        try:
            target.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass
