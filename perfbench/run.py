"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_popular --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload twice with the same seed and settings — untraced, then traced —
and prints the per-layer metrics plus the tracing overhead (traced minus
untraced end-to-end metrics).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Any
answer that fails the correctness gate exits with status 1.

Each pass runs in a child process so that its peak resident memory is
its own; the child writes its result record to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: A pass that runs longer than this is killed and the run fails (two
#: passes of a traced run must end within three minutes).
PASS_TIMEOUT_S = 85.0

#: The end-to-end metrics, in print order.
E2E = ("setup_s", "goodput_per_s", "latency_p50_ms", "latency_tail_ms",
       "peak_rss_mb", "recover_s")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the full result record as JSON")
    parser.add_argument("--pass-out", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args) -> int:
    """Run one pass in this process and pickle its record."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.drive import run_pass

    work = OUT / f"work-{os.getpid()}"
    result = run_pass(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    with open(args.pass_out, "wb") as handle:
        pickle.dump(result, handle)
    return 0


def run_child(args, traced: bool) -> dict:
    """One pass in a child process; its record, or ``None`` on failure."""
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"pass-{os.getpid()}-{int(traced)}.pkl"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(int(traced)),
        "--pass-out", str(out),
    ]
    # numpy advises huge pages for large arrays by default; when the
    # kernel collapses them is up to khugepaged, which moved the peak
    # RSS of identical runs by about 40 MB.  The setting is the same on
    # every commit measured.
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    try:
        completed = subprocess.run(command, cwd=str(ROOT), env=env,
                                   timeout=PASS_TIMEOUT_S)
        if completed.returncode != 0 or not out.exists():
            return None
        with open(out, "rb") as handle:
            return pickle.load(handle)
    except subprocess.TimeoutExpired:
        print(f"pass exceeded {PASS_TIMEOUT_S:g} s", file=sys.stderr)
        return None
    finally:
        if out.exists():
            out.unlink()


def describe(result: dict) -> None:
    """Human-readable report: metrics with units and sample counts,
    the error breakdown and the path record."""
    label = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} seed {result['seed']} ({label}, "
          f"{result['seconds']:g} s)")
    print(f"  host factor {result['host_factor']:.3f} over "
          f"{result['host_samples']} reference-job samples; times are "
          "scaled to the reference host (wall figures in brackets)")
    for name in E2E:
        entry = result["e2e"][name]
        extra = ""
        if name == "goodput_per_s":
            extra = f" over {result['blocks']} saturated runs"
        elif name == "latency_p50_ms":
            extra = f" median of {result['blocks']} blocks"
        elif name == "latency_tail_ms":
            extra = (f" median of {result['blocks']} blocks, "
                     f"p{result['tail_percentile']:g} each")
        wall = result["wall"].get(name)
        shown = f" [{wall:.6g}]" if wall is not None else ""
        print(f"  {name:<16} {entry['value']:>14.6g} {entry['unit']:<6}"
              f" n={entry['samples']}{extra}{shown}")
    errors = result["errors"]
    print(f"  {'error_rate':<16} {result['error_rate']:>14.6g} fraction"
          f" n={result['attempted']} "
          + " ".join(f"{key}={value}" for key, value in errors.items()))
    checks = result["checks"]
    print(f"  oracle checked {checks['oracle_checked']} of "
          f"{checks['oracle_distinct']} distinct; recovered "
          f"{checks['recovered']} answers byte-identical")
    path = result["path"]
    runs = " ".join(f"{tier}={count}"
                    for tier, count in path["tier_runs"].items())
    print(f"  path {path['mix']}: tier runs {runs}; batch "
          f"{path['batch_rounds']}/{path['batched_cells']} shape "
          f"{path['shape_rounds']}/{path['shape_cells']} stream "
          f"{path['stream_rounds']}/{path['stream_cells']} "
          "(dispatches/cells)")


def describe_anomaly(result: dict) -> None:
    anomaly = result.get("anomaly") or {}
    if not anomaly:
        return
    print("  self ms per saturated round, by quarter "
          f"(rounds {anomaly['rounds_per_quarter']}):")
    quarters = anomaly["self_ms_per_round"]
    for name in quarters[0]:
        values = [q[name] for q in quarters]
        if any(values):
            print(f"    {name:<34}"
                  + " ".join(f"{v:9.3f}" for v in values))


def main(argv=None) -> int:
    args = parse(argv if argv is not None else sys.argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.pass_out is not None:
        return child(args)
    untraced = run_child(args, traced=False)
    if untraced is None:
        print("benchmark pass failed", file=sys.stderr)
        return 2
    describe(untraced)
    record = {"untraced": untraced}
    result = untraced
    metrics = {
        name: {"value": untraced["e2e"][name]["value"],
               "unit": untraced["e2e"][name]["unit"]}
        for name in E2E
    }
    if args.trace:
        traced = run_child(args, traced=True)
        if traced is None:
            print("traced benchmark pass failed", file=sys.stderr)
            return 2
        describe(traced)
        describe_anomaly(traced)
        record["traced"] = traced
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in traced["layers"].items()
        }
        for name in E2E:
            unit = traced["e2e"][name]["unit"]
            value = traced["e2e"][name]["value"]
            metrics[f"traced.{name}"] = {"value": value, "unit": unit}
            metrics[f"tracing.overhead.{name}"] = {
                "value": value - untraced["e2e"][name]["value"],
                "unit": unit,
            }
        result = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
        }
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


#: Units of the per-layer metrics by name suffix; the rest are counts.
LAYER_UNITS = (
    ("self_s", "s"), ("read_s", "s"), ("rebuild_s", "s"),
    ("lag_max_s", "s"), ("_ms", "ms"), ("hit_rate", "fraction"),
    ("occupancy", "ratio"), ("padding_ratio", "ratio"),
    ("batch_mean", "ratio"), ("journal.bytes", "bytes"),
    ("backlog_max", "samples"),
)


def layer_unit(name: str) -> str:
    """The unit of per-layer metric ``name``."""
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
