"""Self-tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import hashlib
import json
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import hostspeed, spans, stats
from perfbench.drive import window_arrivals
from perfbench.workloads import WORKLOADS, FleetPlan, audio_cost_table

SECONDS = 1.0
#: The run length the benchmark is driven at.
RUN_SECONDS = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["run_seconds"]


def plan_digest(plan) -> str:
    """SHA-256 over everything a plan hands the program."""
    digest = hashlib.sha256()
    if isinstance(plan, FleetPlan):
        for name in sorted(plan.traces):
            trace = plan.traces[name]
            digest.update(name.encode())
            for channel in sorted(trace.data):
                digest.update(trace.data[channel].tobytes())
        digest.update(pickle.dumps(
            (plan.warmup, plan.open_ops, plan.open_times,
             plan.saturated_ops), protocol=4))
    else:
        for device in plan.devices:
            digest.update(pickle.dumps(
                (device.tenant, device.stream, device.subscriptions,
                 device.offset), protocol=4))
            for seq in (0, 7, 500):
                for values in device.chunk(seq, plan.per_chunk).values():
                    digest.update(values.tobytes())
        digest.update(pickle.dumps(
            (plan.deliveries, plan.saturated_rounds),
            protocol=4))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_different(name):
    build = WORKLOADS[name].build
    first = plan_digest(build(3, SECONDS))
    assert plan_digest(build(3, SECONDS)) == first
    assert plan_digest(build(4, SECONDS)) != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_window_supports_a_tail_percentile(name):
    workload = WORKLOADS[name]
    for seed in (1, 2):
        windows = window_arrivals(workload, workload.build(seed, RUN_SECONDS))
        assert len(windows) == workload.sizing.blocks
        assert stats.tail_percentile(min(windows)) is not None


def test_tail_rule_keeps_ten_samples_beyond():
    for n in range(1, 30001):
        q = stats.tail_percentile(n)
        if q is None:
            assert all(stats.beyond(n, p) < stats.MIN_BEYOND
                       for p in stats.TAIL_PERCENTILES)
            continue
        values = list(range(n))
        cut = stats.percentile(values, q)
        assert sum(1 for v in values if v > cut) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_PERCENTILES if p > q]
        assert all(stats.beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_self_time_is_span_minus_covered_child_time():
    tracer = spans.Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, -1, ("round", 0), "open"],
        ["child", 1.0, 3.0, 0, None, "open"],
        ["child", 2.0, 4.0, 0, None, "open"],   # overlaps the first
        ["child", 6.0, 7.0, 0, None, "open"],
        ["grandchild", 6.2, 6.5, 3, None, "open"],
    ]
    own = tracer.self_times()
    assert own[0] == pytest.approx(10.0 - (3.0 + 1.0))
    assert own[3] == pytest.approx(1.0 - 0.3)
    assert own[4] == pytest.approx(0.3)
    assert tracer.requests() == [("round", 0)] * 5
    totals = tracer.layer_totals(("open",))
    assert totals["child"]["calls"] == 3


class _Layer:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.004)


def test_live_nested_spans_link_children_to_their_root():
    hooks = (
        spans.Hook(__name__, "_Layer", "outer", "outer",
                   request=lambda a, k, r: ("req", r)),
        spans.Hook(__name__, "_Layer", "inner", "inner"),
    )
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, hooks)
    try:
        tracer.phase = "open"
        assert _Layer().outer() == "done"
    finally:
        installed.remove()
    names = [record[0] for record in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.requests() == [("req", "done")] * 2
    outer, inner = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert outer + inner == pytest.approx(total)
    assert inner >= 0.004


def test_removing_wrappers_restores_every_attribute():
    before = spans.snapshot()
    installed = spans.Installed(spans.Tracer())
    during = spans.snapshot()
    assert all(during[key] is not before[key] for key in before)
    installed.remove()
    after = spans.snapshot()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_pass_through_outside_a_phase():
    tracer = spans.Tracer()
    hooks = (spans.Hook(__name__, "_Layer", "inner", "inner"),)
    installed = spans.Installed(tracer, hooks)
    try:
        _Layer().inner()
    finally:
        installed.remove()
    assert tracer.spans == []


def test_host_factor_is_the_median_job_time_around_a_stretch():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    pad = hostspeed.PAD_S
    # (sample end time, job seconds): one sample far before the
    # stretch, three within the pad or inside it, one far after.
    for at, factor in ((0.0, 9.0), (100.0 - pad / 2, 1.0), (101.0, 2.0),
                       (102.0 + pad / 2, 4.0), (200.0, 9.0)):
        speed.at.append(at)
        speed.seconds.append(factor * ref)
    assert speed.factor(100.0, 102.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speed.factor(150.0, 151.0)


def test_reference_job_leaves_its_inputs_unchanged():
    before = hostspeed._LARGE.copy(), hostspeed._SIGNAL.copy()
    first = hostspeed.job()
    assert hostspeed.job() == first
    assert (hostspeed._LARGE == before[0]).all()
    assert (hostspeed._SIGNAL == before[1]).all()


def test_audio_cost_table_pins_only_shape_keys_to_rounds():
    table = audio_cost_table()
    assert len(table) == 2  # siren; music and phrase share one shape
    assert all(key.startswith("shape:") for key in table)
    assert set(table.values()) == {"rounds"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(spans.__file__.rsplit("/", 1)[0], tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_popular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
