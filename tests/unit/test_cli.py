"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def test_inventory(capsys):
    assert main(["inventory"]) == 0
    out = capsys.readouterr().out
    assert "ACC_X" in out and "MIC" in out
    assert "movingAvg" in out and "fft" in out
    assert "steps" in out and "sirens" in out


def test_compile_known_app(capsys):
    assert main(["compile", "--app", "headbutts"]) == 0
    out = capsys.readouterr().out
    assert "maxThreshold" in out
    assert "OUT;" in out
    assert "TI MSP430" in out


def test_compile_siren_places_on_lm4f120(capsys):
    assert main(["compile", "--app", "sirens"]) == 0
    assert "TI LM4F120" in capsys.readouterr().out


def test_compile_unknown_app(capsys):
    assert main(["compile", "--app", "nonexistent"]) == 2
    assert "unknown application" in capsys.readouterr().err


def test_simulate(capsys):
    code = main([
        "simulate", "--app", "headbutts", "--config", "sidewinder",
        "--trace", "robot:1", "--duration", "120", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sidewinder" in out and "recall" in out and "mW" in out


def test_simulate_duty_cycling_interval(capsys):
    code = main([
        "simulate", "--app", "steps", "--config", "duty_cycling",
        "--sleep-interval", "5", "--trace", "robot:2",
        "--duration", "120", "--seed", "1",
    ])
    assert code == 0
    assert "duty_cycling_5s" in capsys.readouterr().out


def test_simulate_bad_config(capsys):
    code = main([
        "simulate", "--app", "steps", "--config", "wishful",
        "--trace", "robot:1", "--duration", "120",
    ])
    assert code == 1
    assert "unknown configuration" in capsys.readouterr().err


def test_simulate_bad_trace_kind(capsys):
    code = main([
        "simulate", "--app", "steps", "--trace", "satellite",
        "--duration", "120",
    ])
    assert code == 1
    assert "unknown trace kind" in capsys.readouterr().err


def test_trace_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "run"
    code = main([
        "trace", "--kind", "robot:3", "--duration", "90",
        "--seed", "2", "--out", str(out_path),
    ])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    from repro.traces.io import load_trace
    trace = load_trace(out_path)
    assert trace.metadata["group"] == 3


def test_trace_audio_variant(tmp_path, capsys):
    code = main([
        "trace", "--kind", "audio:outdoors", "--duration", "60",
        "--out", str(tmp_path / "snd"),
    ])
    assert code == 0


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "323" in out and "9.7" in out


def test_merge(capsys):
    code = main(["merge", "--apps", "music_journal,phrase_detection"])
    assert code == 0
    out = capsys.readouterr().out
    assert "taps" in out and "shared 6" in out


def test_merge_unknown_app(capsys):
    assert main(["merge", "--apps", "music_journal,nope"]) == 2


def test_serve_bench_quick(capsys):
    code = main(["serve-bench", "--fleet", "8", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet 8 devices" in out
    assert "dedup hit-rate" in out
    assert "submissions/s" in out


def test_serve_bench_gives_each_shard_its_own_cost_model(
    monkeypatch, capsys
):
    # Shards pump on a thread pool, so a shared model's ledger would
    # race; every shard context gets a fresh model.
    from repro.hub.costmodel import CALIBRATED_TABLE
    from repro.sim import engine

    models = []

    class RecordingContext(engine.RunContext):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            models.append(self.cost_model)

    monkeypatch.setattr(engine, "RunContext", RecordingContext)
    assert main(["serve-bench", "--fleet", "8", "--quick", "--shards", "2",
                 "--no-shape-batch"]) == 0
    assert len(models) >= 2
    assert len({id(model) for model in models}) == len(models)
    assert all(dict(model.table) == CALIBRATED_TABLE for model in models)


def test_figure6_verbose_prints_cache_counters(capsys):
    code = main(["figure6", "--duration", "120", "--verbose"])
    assert code == 0
    captured = capsys.readouterr()
    assert "# engine:" in captured.err
    assert "# engine cache hits/misses:" in captured.err
    assert "detect" in captured.err


def test_figure6_quiet_without_verbose(capsys):
    code = main(["figure6", "--duration", "120"])
    assert code == 0
    assert "# engine" not in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
