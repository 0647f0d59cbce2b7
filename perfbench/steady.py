"""Steadiness check: run workloads over several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads fleet_popular,stream_devices \\
        --seeds 1-10 --seconds 10

For every end-to-end metric it prints the median and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  It names every run whose path record (the tier mix
the cost model chose) differs from the workload's usual one, because a
wall-clock near-tie can send one commit down two paths.  Exits non-zero
when a run fails or a spread other than ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out" / "steady"


def seeds(text: str):
    """``"1-10"`` or ``"3,5,8"`` as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float):
    """One untraced run; ``(metrics, record)`` or ``None`` on failure."""
    OUT.mkdir(parents=True, exist_ok=True)
    report = OUT / f"{workload}-seed{seed}.json"
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--report", str(report)]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    result = json.loads(lines[-1])
    record = json.loads(report.read_text())["untraced"]
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        mixes = {}
        for seed in seeds(args.seeds):
            outcome = run_once(workload, seed, seconds)
            if outcome is None or not outcome[0]["correct"]:
                print(f"{workload} seed {seed}: FAILED")
                failed = True
                continue
            result, record = outcome
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            mixes[seed] = record["path"]["mix"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}"
                for name in bounds) + f" path={mixes[seed]}", flush=True)
        if not mixes:
            continue
        usual, _ = Counter(mixes.values()).most_common(1)[0]
        odd = [seed for seed, mix in mixes.items() if mix != usual]
        print(f"{workload}: usual path {usual}; differing runs: "
              + (", ".join(f"seed {s} ({mixes[s]})" for s in odd)
                 if odd else "none"))
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within" if spread <= bounds[name] else "WIDE")
            if verdict == "WIDE" and name != "setup_s":
                failed = True
            print(f"  {name:<16} median {mid:.6g} spread {spread:.3f} "
                  f"bound {bounds[name]} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
