"""Integration: CLI report commands on miniature corpora."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def test_cli_table2_small(capsys):
    assert main(["table2", "--duration", "60"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "sidewinder" in out and "paper" in out


def test_cli_figure6_small(capsys):
    assert main(["figure6", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "headbutts" in out


def test_cli_figure7_small(capsys):
    assert main(["figure7", "--duration", "240"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "commute" in out


def test_cli_figure5_small(capsys):
    assert main(["figure5", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "Group 1" in out and "Sw=" in out


def test_cli_execution_tiers_render_identically(capsys):
    # The compiled hub path is escape-hatched by --no-compile, which
    # runs every condition on the round interpreter; both tiers must
    # render the exact same report.
    assert main(["figure6", "--duration", "120"]) == 0
    compiled = capsys.readouterr().out
    assert main(["figure6", "--duration", "120", "--no-compile"]) == 0
    interpreted = capsys.readouterr().out
    assert "Figure 6" in compiled
    assert compiled == interpreted


def test_cli_pooled_sweep_releases_shared_memory():
    # A pooled sweep's command owns its context's pool and shuts it
    # down on exit, so the workers' shared-memory trace export is
    # unlinked rather than reported leaked at interpreter exit.
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "figure5",
            "--duration", "120", "--jobs", "2", "--verbose",
        ],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Figure 5" in proc.stdout
    assert "# engine: pool" in proc.stderr
    assert "leaked shared_memory" not in proc.stderr
