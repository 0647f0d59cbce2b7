"""The correctness gate: served answers against the rounds-interpreter oracle.

Every check runs outside the timed phases, with tracing removed.  The
oracle is reached through the same validation path a phone-side manager
uses: :func:`repro.api.manager.validate_condition` then
:func:`repro.sim.simulator.run_wakeup_condition` (the round-by-round
interpreter, no shared context) for raw IL, and ``Sidewinder.run`` for
registry apps.
"""

from __future__ import annotations

import pickle
import random
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.api.manager import validate_condition
from repro.apps import all_applications
from repro.errors import SidewinderError
from repro.power.phone import NEXUS4
from repro.serve import HUB_CATALOGS, Submission
from repro.sim.configs.sidewinder import Sidewinder
from repro.sim.simulator import run_wakeup_condition
from repro.traces.base import Trace
from repro.traces.stream import StreamBuffer

from perfbench.workloads import Device, expects_failure, submission


def content_key(req: tuple) -> tuple:
    """What a request asks for, independent of who asked."""
    return req[1:4]


def value(answer: tuple, payloads: Sequence[object]) -> object:
    """The comparable content of a compact answer (see
    :meth:`perfbench.drive.FleetDriver.record`)."""
    return payloads[answer[5]] if answer[2] == "completed" else answer[5]


def reference(submission: Submission, traces: Mapping[str, Trace]) -> object:
    """The oracle's answer for one submission, computed afresh."""
    trace = traces[submission.trace]
    if submission.app is not None:
        apps = {app.name: app for app in all_applications()}
        config = Sidewinder(catalog=HUB_CATALOGS[submission.hub])
        return config.run(apps[submission.app], trace, NEXUS4)
    try:
        _, graph, _ = validate_condition(
            submission.il, HUB_CATALOGS[submission.hub]
        )
        return tuple(
            run_wakeup_condition(graph, trace, submission.chunk_seconds)
        )
    except SidewinderError as error:
        return (type(error).__name__, str(error))


def sample(keys: Sequence, budget: int, seed: int) -> List:
    """Every key when ``budget`` covers them, else a seeded sample."""
    if len(keys) <= budget:
        return list(keys)
    return random.Random(seed).sample(list(keys), budget)


def check_fleet(
    requests: Sequence[tuple],
    answers: Mapping[int, tuple],
    payloads: Sequence[object],
    traces: Mapping[str, Trace],
    budget: int,
    seed: int,
) -> Dict[str, object]:
    """Verify every answered request.

    ``answers`` maps an index into ``requests`` to its compact answer.
    An answer is wrong when its kind contradicts its input (broken IL
    that completed), when it disagrees with another answer to the same
    request, or when its request's answer differs from the oracle; a
    valid condition that failed is counted apart.  The oracle runs on
    every distinct request when ``budget`` covers them, else on a
    seeded sample.

    Returns ``wrong`` and ``failed_valid`` (sets of request indices)
    and the ``checked`` / ``distinct`` request counts.
    """
    wrong: Set[int] = set()
    failed_valid: Set[int] = set()
    groups: Dict[tuple, List[int]] = {}
    for index, answer in answers.items():
        req = requests[index]
        if expects_failure(req):
            if answer[2] != "failed":
                wrong.add(index)
        elif answer[2] != "completed":
            failed_valid.add(index)
            continue
        groups.setdefault(content_key(req), []).append(index)
    for members in groups.values():
        first = value(answers[members[0]], payloads)
        for index in members[1:]:
            other = value(answers[index], payloads)
            if other is not first and other != first:
                wrong.update(members)
                break
    checked = sample(sorted(groups, key=repr), budget, seed)
    for key in checked:
        members = groups[key]
        expected = reference(submission(requests[members[0]]), traces)
        if value(answers[members[0]], payloads) != expected:
            wrong.update(members)
    return {
        "wrong": wrong,
        "failed_valid": failed_valid,
        "checked": len(checked),
        "distinct": len(groups),
    }


def assemble(device: Device, chunks: int, per_chunk: int,
             rate_hz: Mapping[str, float]) -> Trace:
    """The device's first ``chunks`` chunks as one whole trace."""
    buffer = StreamBuffer(device.stream, dict(rate_hz))
    for seq in range(chunks):
        buffer.push(seq, device.chunk(seq, per_chunk))
    return buffer.to_trace()


def check_streams(
    devices: Sequence[Device],
    logs: Mapping[Tuple[int, int], tuple],
    chunks: Sequence[int],
    per_chunk: int,
    rate_hz: Mapping[str, float],
    budget: int,
    seed: int,
) -> Dict[str, object]:
    """Each closed subscription log against the oracle over the
    assembled stream (seeded sample of ``budget`` subscriptions).

    ``logs`` maps ``(device index, subscription index)`` to the closed
    event log; ``chunks[d]`` is how many chunks device ``d`` pushed.
    Returns the devices whose logs are missing or wrong.
    """
    wrong: Set[int] = set()
    keys = [(d, s) for d, device in enumerate(devices)
            for s in range(len(device.subscriptions))]
    for key in keys:
        if key not in logs:
            wrong.add(key[0])
    checked = sample([k for k in keys if k in logs], budget, seed)
    traces: Dict[int, Trace] = {}
    for d, s in checked:
        trace = traces.get(d)
        if trace is None:
            trace = traces[d] = assemble(
                devices[d], chunks[d], per_chunk, rate_hz
            )
        submission = devices[d].subscriptions[s]
        _, graph, _ = validate_condition(
            submission.il, HUB_CATALOGS[submission.hub]
        )
        expected = tuple(
            run_wakeup_condition(graph, trace, submission.chunk_seconds)
        )
        if tuple(logs[(d, s)]) != expected:
            wrong.add(d)
    return {"wrong": wrong, "checked": len(checked), "distinct": len(keys)}


def same_bytes(left: object, right: object) -> bool:
    """Byte-for-byte equality of two answers' pickles."""
    return pickle.dumps(left, protocol=4) == pickle.dumps(right, protocol=4)


def check_recovered(
    requests: Sequence[tuple],
    answers: Mapping[int, tuple],
    payloads: Sequence[object],
    recovered: Iterable[object],
) -> List[int]:
    """Ticket ids whose recovered response is missing or differs from
    the answer the run returned: same kind, ticket, dedup flag and
    latency, and a byte-identical pickled payload."""
    rebuilt = {response.ticket.submission_id: response
               for response in recovered}
    blobs: Dict[int, bytes] = {}
    theirs: Dict[int, bytes] = {}
    mismatched: List[int] = []
    for index, answer in answers.items():
        sid, submitted_at, kind, dedup, latency, payload = answer
        response = rebuilt.get(sid)
        if response is None:
            mismatched.append(sid)
            continue
        ticket = response.ticket
        same = (
            type(response).__name__.lower() == kind
            and ticket.tenant == requests[index][0]
            and ticket.submitted_at == submitted_at
            and getattr(response, "dedup", None) == dedup
            and getattr(response, "latency", None) == latency
        )
        if same and kind == "completed":
            blob = blobs.get(payload)
            if blob is None:
                blob = blobs[payload] = pickle.dumps(payloads[payload],
                                                     protocol=4)
            # ``rebuilt`` keeps every recovered result alive, so ids
            # stay unique while this cache lives.
            other = theirs.get(id(response.result))
            if other is None:
                other = theirs[id(response.result)] = pickle.dumps(
                    response.result, protocol=4)
            same = other == blob
        elif same and kind == "failed":
            same = (response.error_type, response.message) == payload
        if not same:
            mismatched.append(sid)
    return sorted(mismatched)
