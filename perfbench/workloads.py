"""The benchmark's four workloads: seeded inputs, schedules and plans.

Everything here is a pure function of ``(seed, seconds)``: the same
seed gives bit-identical submissions, arrival schedules and chunk plans,
and the program under test receives only these generated inputs.
Sensor data comes from :mod:`repro.traces.library`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.manager import validate_condition
from repro.apps import all_applications
from repro.hub.compile import shape_signature
from repro.serve import Lane, Submission
from repro.traces.base import Trace
from repro.traces.library import audio_corpus, human_corpus, robot_corpus

#: Submissions a round takes (the shard's default batch size).
BATCH = 64

#: Broken IL: a parse error, a dangling node reference and an unknown
#: opcode.  Each must come back as the validator's structured Failed.
INVALID_IL: Tuple[str, ...] = (
    "ACC_X -> movingAvg(id=1, params={8}",
    "ACC_X -> movingAvg(id=1, params={8}); 7 -> OUT;",
    "ACC_X -> frobnicate(id=1, params={}); 1 -> OUT;",
)

#: Valid raw IL a device outside the app registry pushes (sparse).
POPULAR_IL: Tuple[str, ...] = (
    "ACC_X -> movingAvg(id=1, params={8}); "
    "1 -> minThreshold(id=2, params={3.9}); 2 -> OUT;",
    "ACC_Y -> movingAvg(id=1, params={3}); "
    "1 -> maxThreshold(id=2, params={-4.0}); 2 -> OUT;",
    "ACC_X -> movingAvg(id=1, params={10}); ACC_Y -> movingAvg(id=2, "
    "params={10}); ACC_Z -> movingAvg(id=3, params={10}); "
    "1,2,3 -> vectorMagnitude(id=4); 4 -> minThreshold(id=5, "
    "params={11.0}); 5 -> OUT;",
)

#: Accelerometer detector families for ``fleet_retuned``: one shape
#: each, the threshold (a liftable parameter) drawn per tenant from a
#: range that keeps wake events sparse on the robot and human corpus.
RETUNED_FAMILIES: Tuple[Tuple[str, float, float], ...] = (
    ("ACC_X -> movingAvg(id=1, params={10}); ACC_Y -> movingAvg(id=2, "
     "params={10}); ACC_Z -> movingAvg(id=3, params={10}); "
     "1,2,3 -> vectorMagnitude(id=4); 4 -> minThreshold(id=5, "
     "params={%s}); 5 -> OUT;", 10.4, 11.4),
    ("ACC_Y -> movingAvg(id=1, params={3}); "
     "1 -> maxThreshold(id=2, params={%s}); 2 -> OUT;", -4.6, -3.6),
    ("ACC_X -> movingAvg(id=1, params={8}); "
     "1 -> minThreshold(id=2, params={%s}); 2 -> OUT;", 3.4, 4.2),
)

#: Audio condition families for ``fleet_audio``: the siren FFT chain
#: and the music / phrase variance+ZCR chains, each with the tenant's
#: own band limits (placeholders filled per submission).
AUDIO_FAMILIES: Tuple[str, ...] = (
    "MIC -> window(id=1, params={hop=256, shape=hamming, size=512}); "
    "1 -> highPass(id=2, params={cutoff_hz=750.0}); 2 -> fft(id=3); "
    "3 -> dominantFrequency(id=4, params={max_hz=%(hi)s, min_hz=%(lo)s, "
    "mode=ratio}); 4 -> sustainedThreshold(id=5, params={count=10, "
    "threshold=15.0}); 5 -> OUT;",
    "MIC -> window(id=1, params={shape=rectangular, size=2048}); "
    "1 -> stat(id=2, params={name=variance}); "
    "2 -> bandIndicator(id=3, params={high=%(hi)s, low=%(lo)s}); "
    "MIC -> window(id=4, params={shape=rectangular, size=256}); "
    "4 -> zeroCrossingRate(id=5); "
    "5 -> window(id=6, params={shape=rectangular, size=8}); "
    "6 -> stat(id=7, params={name=variance}); "
    "7 -> bandIndicator(id=8, params={high=%(zhi)s, low=0.0}); "
    "3,8 -> minOf(id=9); 9 -> minThreshold(id=10, params={threshold=1.0}); "
    "10 -> OUT;",
    "MIC -> window(id=1, params={shape=rectangular, size=2048}); "
    "1 -> stat(id=2, params={name=variance}); "
    "2 -> bandIndicator(id=3, params={high=1000000000.0, low=%(lo)s}); "
    "MIC -> window(id=4, params={shape=rectangular, size=256}); "
    "4 -> zeroCrossingRate(id=5); "
    "5 -> window(id=6, params={shape=rectangular, size=8}); "
    "6 -> stat(id=7, params={name=variance}); "
    "7 -> bandIndicator(id=8, params={high=1000000000.0, low=%(zlo)s}); "
    "3,8 -> minOf(id=9); 9 -> minThreshold(id=10, params={threshold=1.0}); "
    "10 -> OUT;",
)

#: Streaming subscription families that run incrementally (bounded
#: replay); instances differ only in a liftable threshold, so each
#: family shares one ``batch_key`` across the fleet.
STREAM_INCREMENTAL: Tuple[Tuple[str, float, float], ...] = (
    ("ACC_X -> movingAvg(id=1, params={10}); "
     "1 -> minThreshold(id=2, params={%s}); 2 -> OUT;", 3.0, 3.8),
    ("ACC_Y -> movingAvg(id=1, params={12}); "
     "1 -> maxThreshold(id=2, params={%s}); 2 -> OUT;", -3.8, -3.0),
    ("ACC_X -> sustainedThreshold(id=1, params={%s, 7}); 1 -> OUT;",
     3.0, 3.6),
)

#: Streaming templates that fall back to whole-graph replay:
#: ``localExtrema`` (chunk-invariant: persistent interpreter) and
#: ``expMovingAvg`` (not chunk-invariant: canonical round replica).
STREAM_REPLAY: Tuple[Tuple[str, float, float], ...] = (
    ("ACC_X -> localExtrema(id=1, params={max, 1.0, %s, 10}); 1 -> OUT;",
     3.4, 4.0),
    ("ACC_Y -> expMovingAvg(id=1, params={0.5}); "
     "1 -> maxThreshold(id=2, params={%s}); 2 -> OUT;", -3.8, -3.0),
)


def request(tenant: str, trace: str, app: Optional[str] = None,
            il: Optional[str] = None, interactive: bool = False) -> tuple:
    """A fleet request as a plain tuple ``(tenant, trace, app, il,
    interactive)``.  Tuples of strings are untracked by the garbage
    collector, so the pre-generated input pool adds nothing to the
    collection pauses the measured latencies include."""
    return (tenant, trace, app, il, interactive)


def submission(req: tuple) -> Submission:
    """The wire-form :class:`Submission` of a request tuple."""
    tenant, trace, app, il, interactive = req
    return Submission(tenant=tenant, trace=trace, app=app, il=il,
                      lane=Lane.INTERACTIVE if interactive else Lane.BULK)


def expects_failure(req: tuple) -> bool:
    """True for requests whose correct answer is a structured Failed."""
    return req[3] in INVALID_IL


@dataclass(frozen=True)
class Sizing:
    """A workload's fixed constants, identical on every commit.

    Both phases do a fixed amount of work, so a run's journal, memory
    and history are the same whatever the speed of the commit measured.

    Attributes:
        open_rate: Offered operations per second in the open-loop phase.
        open_share: Share of ``--seconds`` the open-loop phase lasts; its
            arrival count is ``open_rate * open_share * seconds``.
        saturated_rate: Nominal capacity (about the shard's measured
            goodput) that sizes the saturated phase: it runs
            ``saturated_rate * (1 - open_share) * seconds`` operations,
            however long they take.
        blocks: The measured phases run as this many blocks, each an
            open-loop window (its share of the arrivals) then a
            saturated run (its share of the operations).  Every
            end-to-end rate and latency is the median over blocks.
    """

    open_rate: float
    open_share: float
    saturated_rate: float
    blocks: int

    def open_count(self, seconds: float) -> int:
        """Arrivals in the open-loop phase."""
        return max(1, int(round(self.open_rate * self.open_share * seconds)))

    def saturated_count(self, seconds: float) -> int:
        """Operations the saturated phase runs."""
        return max(1, int(round(
            self.saturated_rate * (1.0 - self.open_share) * seconds
        )))


@dataclass
class FleetPlan:
    """Inputs of one ``fleet_*`` workload run.

    Requests are :func:`request` tuples.  ``open_times`` are scheduled
    send offsets (seconds from the start of the open-loop phase) of
    ``open_ops``; the saturated phase sends ``saturated_ops`` in order.
    ``cost_table`` pins execution tiers by fingerprint or shape key
    (:class:`repro.hub.costmodel.CostModel` ``table``).
    """

    traces: Dict[str, Trace]
    warmup: List[tuple]
    open_ops: List[tuple]
    open_times: List[float]
    saturated_ops: List[tuple]
    cost_table: Dict[str, str] = field(default_factory=dict)


@dataclass
class Device:
    """One streaming device: its stream, subscriptions and signal."""

    tenant: str
    stream: str
    subscriptions: Tuple[Submission, ...]
    source: Dict[str, np.ndarray]
    offset: int

    def chunk(self, seq: int, per_chunk: int) -> Dict[str, np.ndarray]:
        """Samples of chunk ``seq`` (the source signal, wrapped)."""
        index = np.arange(
            self.offset + seq * per_chunk,
            self.offset + (seq + 1) * per_chunk,
        )
        return {
            name: np.take(values, index, mode="wrap")
            for name, values in self.source.items()
        }


@dataclass
class StreamPlan:
    """Inputs of one ``stream_devices`` run.

    Every device pushes ``warmup_chunks`` chunks during set-up.
    ``deliveries[block]`` lists ``(time, device, chunks)`` for that
    block's open-loop window, times from the window's start: while a
    device is disconnected its chunks wait and are redelivered together
    at the reconnect slot, whose time is their scheduled time.  The
    saturated runs push ``saturated_rounds`` chunks per device in all.
    """

    devices: List[Device]
    rate_hz: Dict[str, float]
    per_chunk: int
    warmup_chunks: int
    saturated_rounds: int
    deliveries: List[List[Tuple[float, int, int]]]


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, its sizing, its input generator."""

    name: str
    why: str
    kind: str  # "fleet" or "stream"
    sizing: Sizing
    build: Callable[[int, float], object]
    #: Distinct results checked against the oracle (all when fewer).
    oracle_budget: int


def poisson_times(rng: random.Random, count: int, rate: float) -> List[float]:
    """``count`` arrival offsets with exponential gaps at ``rate``/s."""
    times: List[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def _unique(rng: random.Random, lo: float, hi: float, seen: set) -> str:
    """A threshold in ``[lo, hi]`` whose text no earlier draw used."""
    while True:
        text = f"{rng.uniform(lo, hi):.6f}"
        if text not in seen:
            seen.add(text)
            return text


# -- fleet_popular ----------------------------------------------------------

POPULAR_TENANTS = 4000


def popular_traces() -> Dict[str, Trace]:
    """The paper corpus: robot, human and audio recordings."""
    traces = (
        robot_corpus(duration_s=120.0)
        + human_corpus(duration_s=120.0)
        + audio_corpus(duration_s=60.0)
    )
    return {trace.name: trace for trace in traces}


def build_popular(seed: int, seconds: float) -> FleetPlan:
    """Zipf-popular registry apps plus a few raw-IL submissions."""
    sizing = WORKLOADS["fleet_popular"].sizing
    traces = popular_traces()
    rng = random.Random(seed)
    pairs = [
        (app.name, name)
        for app in all_applications()
        for name, trace in sorted(traces.items())
        if all(channel in trace.data for channel in app.channels)
    ]
    accel = [name for name, trace in sorted(traces.items())
             if "ACC_X" in trace.data]
    # One popularity table for every seed (the seed draws from it), so
    # seeds differ in arrivals and tenants, not in which pairs are hot.
    random.Random(0).shuffle(pairs)
    weights = [1.0 / (rank ** 1.1) for rank in range(1, len(pairs) + 1)]

    def draw() -> tuple:
        tenant = f"device-{rng.randrange(POPULAR_TENANTS):04d}"
        interactive = rng.random() < 0.05
        roll = rng.random()
        if roll < 0.02:
            return request(tenant, rng.choice(sorted(traces)),
                           il=rng.choice(INVALID_IL), interactive=interactive)
        if roll < 0.07:
            return request(tenant, rng.choice(accel),
                           il=rng.choice(POPULAR_IL), interactive=interactive)
        app, trace = rng.choices(pairs, weights=weights)[0]
        return request(tenant, trace, app=app, interactive=interactive)

    # Warm-up: every distinct valid request once, so the memo holds the
    # whole popularity table before timing starts.
    warmup = [request(f"warm-{i:03d}", trace, app=app)
              for i, (app, trace) in enumerate(sorted(pairs))]
    warmup += [request(f"warm-il-{i:03d}", trace, il=il)
               for i, (il, trace) in enumerate(
                   (il, trace) for il in POPULAR_IL for trace in accel)]
    count = sizing.open_count(seconds)
    open_ops = [draw() for _ in range(count)]
    open_times = poisson_times(rng, count, sizing.open_rate)
    return FleetPlan(traces, warmup, open_ops, open_times,
                     [draw() for _ in range(sizing.saturated_count(seconds))])


# -- fleet_retuned ----------------------------------------------------------

RETUNED_DEVICES = 2000
CLIP_SECONDS = 16.0
ROUND_SECONDS = 4.0


def build_retuned(seed: int, seconds: float) -> FleetPlan:
    """Every tenant its own detector over its own short recording."""
    sizing = WORKLOADS["fleet_retuned"].sizing
    rng = random.Random(seed)
    sources = robot_corpus(duration_s=120.0) + human_corpus(duration_s=120.0)
    offsets = int((120.0 - CLIP_SECONDS) // ROUND_SECONDS) + 1
    traces: Dict[str, Trace] = {}
    for device in range(RETUNED_DEVICES):
        source = sources[rng.randrange(len(sources))]
        start = ROUND_SECONDS * rng.randrange(offsets)
        name = f"clip-{device:04d}"
        traces[name] = source.slice(start, start + CLIP_SECONDS, name=name)
    seen: set = set()
    drawn = itertools.count()

    def draw() -> tuple:
        # Families take turns, so every seed has the same mix; the
        # device and the threshold are drawn.
        device = rng.randrange(RETUNED_DEVICES)
        template, lo, hi = RETUNED_FAMILIES[
            next(drawn) % len(RETUNED_FAMILIES)]
        return request(f"device-{device:04d}", f"clip-{device:04d}",
                       il=template % _unique(rng, lo, hi, seen))

    warmup = [draw() for _ in range(4 * BATCH)]
    count = sizing.open_count(seconds)
    open_ops = [draw() for _ in range(count)]
    open_times = poisson_times(rng, count, sizing.open_rate)
    return FleetPlan(traces, warmup, open_ops, open_times,
                     [draw() for _ in range(sizing.saturated_count(seconds))])


# -- fleet_audio ------------------------------------------------------------

AUDIO_TENANTS = 1000


def build_audio(seed: int, seconds: float) -> FleetPlan:
    """Per-tenant audio conditions over minute-long recordings."""
    sizing = WORKLOADS["fleet_audio"].sizing
    rng = random.Random(seed)
    traces = {trace.name: trace for trace in audio_corpus(duration_s=60.0)}
    names = sorted(traces)
    seen: set = set()
    bands = (
        {"lo": (800.0, 900.0), "hi": (1700.0, 1900.0)},
        {"lo": (0.0015, 0.0025), "hi": (0.06, 0.1), "zhi": (0.0004, 0.0006)},
        {"lo": (0.0006, 0.0008), "zlo": (0.0013, 0.0017)},
    )

    drawn = itertools.count()

    def draw() -> tuple:
        # Families and recordings take turns, so every seed has the same
        # mix; the tenant and the band limits are drawn.
        number = next(drawn)
        family = number % len(AUDIO_FAMILIES)
        trace = names[(number // len(AUDIO_FAMILIES)) % len(names)]
        while True:
            limits = {key: f"{rng.uniform(*span):.6g}"
                      for key, span in sorted(bands[family].items())}
            il = AUDIO_FAMILIES[family] % limits
            if il not in seen:
                seen.add(il)
                break
        return request(f"device-{rng.randrange(AUDIO_TENANTS):04d}",
                       trace, il=il)

    warmup = [draw() for _ in range(2 * len(AUDIO_FAMILIES) * 4)]
    count = sizing.open_count(seconds)
    open_ops = [draw() for _ in range(count)]
    # Evenly spaced, so every open-loop round holds one condition: a
    # lone fresh fingerprint runs the compiled tier, while two
    # same-shape conditions sharing a round take their shape key's
    # tier, so Poisson clumping would change the path run to run.
    open_times = [(i + 1) / sizing.open_rate for i in range(count)]
    return FleetPlan(traces, warmup, open_ops, open_times,
                     [draw() for _ in range(sizing.saturated_count(seconds))],
                     cost_table=audio_cost_table())


def audio_cost_table() -> Dict[str, str]:
    """The round interpreter for every audio shape key.

    Left to probe, the cost model settles a shape key from one
    wall-clock sample per tier and keeps comparing its running mean
    against those single probes.  The compiled tier runs these chains
    only 1.3-1.6x slower than the round interpreter, well inside the
    shared host's drift, so the siren key settled on either tier about
    equally often and moved goodput by a quarter from run to run.  A
    calibrated table, as a deployment would ship, holds the choice the
    probes make on a calm host.  Lone fresh fingerprints still run the
    compiled tier unprobed.
    """
    probe = {"lo": "1", "hi": "2", "zhi": "1", "zlo": "1"}
    return {shape_signature(validate_condition(family % probe)[1]): "rounds"
            for family in AUDIO_FAMILIES}


# -- stream_devices ---------------------------------------------------------

STREAM_DEVICES = 90
STREAM_RATE_HZ = 50.0
STREAM_CHUNK_S = 2.0
#: Wall seconds between a device's chunks in the open-loop phase; sensor
#: time runs ``STREAM_CHUNK_S / STREAM_PERIOD_S`` times faster than wall.
STREAM_PERIOD_S = 1.0
STREAM_WARMUP_CHUNKS = 3
#: Devices offline at the start of every open-loop window.
STREAM_OFFLINE = 6


def build_stream(seed: int, seconds: float) -> StreamPlan:
    """Devices pushing accelerometer chunks with connectivity gaps."""
    sizing = WORKLOADS["stream_devices"].sizing
    rng = random.Random(seed)
    sources = robot_corpus(duration_s=120.0) + human_corpus(duration_s=120.0)
    per_chunk = int(round(STREAM_RATE_HZ * STREAM_CHUNK_S))
    seen: set = set()
    drawn = itertools.count()
    devices: List[Device] = []
    for index in range(STREAM_DEVICES):
        tenant = f"device-{index:04d}"
        stream = f"stream-{index:04d}"
        source = sources[rng.randrange(len(sources))]
        subs = []
        # One or two subscriptions per device, every fifth a replay
        # template and the families in turn: the same mix for every seed.
        for _ in range(1 + index % 2):
            number = next(drawn)
            families = STREAM_REPLAY if number % 5 == 4 else STREAM_INCREMENTAL
            template, lo, hi = families[(number // 5) % len(families)]
            subs.append(Submission(
                tenant=tenant, trace=stream,
                il=template % _unique(rng, lo, hi, seen),
                chunk_seconds=ROUND_SECONDS,
            ))
        devices.append(Device(
            tenant=tenant, stream=stream, subscriptions=tuple(subs),
            source={name: source.data[name] for name in ("ACC_X", "ACC_Y")},
            offset=rng.randrange(len(source.data["ACC_X"])),
        ))
    # Open-loop slots: in each block, device d's k-th chunk is due at
    # its phase + k * period.  Phases are staggered evenly over the
    # period in a seeded order, so every seed offers the same load shape
    # (random phases made the queueing behind coinciding pushes, and
    # with it the latency tail, differ from seed to seed).  In every
    # block STREAM_OFFLINE seeded devices are offline until its last
    # slot, which redelivers their held chunks in one burst.
    blocks = sizing.blocks
    per_block = max(1, sizing.open_count(seconds) // STREAM_DEVICES // blocks)
    deliveries: List[List[Tuple[float, int, int]]] = [
        [] for _ in range(blocks)]
    order = rng.sample(range(STREAM_DEVICES), STREAM_DEVICES)
    for block in range(blocks):
        offline = set(rng.sample(range(STREAM_DEVICES), STREAM_OFFLINE))
        for index in range(STREAM_DEVICES):
            phase = (order[index] + 0.5) * STREAM_PERIOD_S / STREAM_DEVICES
            last = phase + (per_block - 1) * STREAM_PERIOD_S
            if index in offline:
                deliveries[block].append((last, index, per_block))
                continue
            for slot in range(per_block):
                deliveries[block].append(
                    (phase + slot * STREAM_PERIOD_S, index, 1))
    for block in deliveries:
        block.sort()
    return StreamPlan(
        devices=devices,
        rate_hz={"ACC_X": STREAM_RATE_HZ, "ACC_Y": STREAM_RATE_HZ},
        per_chunk=per_chunk,
        warmup_chunks=STREAM_WARMUP_CHUNKS,
        saturated_rounds=max(
            1, sizing.saturated_count(seconds) // STREAM_DEVICES),
        deliveries=deliveries,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fleet_popular",
            why="Zipf-popular registry apps: the memo answers ~98%, so "
                "admit, dedup, journal and store do the work; bypasses "
                "every engine tier",
            kind="fleet",
            sizing=Sizing(open_rate=300.0, open_share=0.6,
                          saturated_rate=10000.0, blocks=20),
            build=build_popular,
            oracle_budget=300,
        ),
        Workload(
            name="fleet_retuned",
            why="every tenant its own sparse accelerometer detector: dedup "
                "~0, so validation and the shape-batched compiled tier work",
            kind="fleet",
            sizing=Sizing(open_rate=100.0, open_share=0.6,
                          saturated_rate=1200.0, blocks=10),
            build=build_retuned,
            oracle_budget=150,
        ),
        Workload(
            name="fleet_audio",
            why="per-tenant audio conditions over minute-long recordings: "
                "the round interpreter and window/fft/stat/ZCR opcodes work",
            kind="fleet",
            sizing=Sizing(open_rate=15.0, open_share=2 / 3,
                          saturated_rate=45.0, blocks=3),
            build=build_audio,
            oracle_budget=12,
        ),
        Workload(
            name="stream_devices",
            why="devices push accelerometer chunks with disconnection "
                "bursts: ingest, incremental executors, stream buffers and "
                "chunk journaling work",
            kind="stream",
            sizing=Sizing(open_rate=STREAM_DEVICES / STREAM_PERIOD_S,
                          open_share=0.6, saturated_rate=3400.0,
                          blocks=9),
            build=build_stream,
            oracle_budget=40,
        ),
    )
}
