"""Tier selection: a calibrated table over a static order, plus a ledger.

The cost model decides which bit-identical hub tier runs a condition.
These tests pin its decision procedure:

* with no table entry, the first allowed tier of ``compiled > rounds``
  runs, and ``fused`` is no longer a tier;
* a table entry wins when its tier is allowed and is ignored
  otherwise; a table passed in is laid over the shipped one;
* the shipped :data:`CALIBRATED_TABLE` still names the registry's
  audio conditions and their shapes, which run fastest on the round
  interpreter;
* observed runs accumulate in a ledger that never moves a choice.
"""

import pytest

from repro.apps import AUDIO_APPS
from repro.hub.costmodel import (
    CALIBRATED_TABLE,
    TIER_PREFERENCE,
    CostModel,
)
from repro.sim.engine import RunContext

ALL = list(TIER_PREFERENCE)
FP = "fp:test"


class TestChoose:
    def test_static_order_without_a_table_entry(self):
        assert TIER_PREFERENCE == ("compiled", "rounds")
        assert CostModel().choose(FP, ALL) == "compiled"

    def test_respects_allowed_subset(self):
        assert CostModel().choose(FP, ["compiled"]) == "compiled"
        assert CostModel().choose(FP, ["rounds"]) == "rounds"

    def test_no_allowed_tiers_raises(self):
        with pytest.raises(ValueError):
            CostModel().choose(FP, [])

    def test_observed_runs_never_move_the_choice(self):
        model = CostModel()
        model.observe(FP, "compiled", 10.0, 10)
        model.observe(FP, "rounds", 0.001, 10_000)
        assert model.choose(FP, ALL) == "compiled"

    def test_order_of_allowed_does_not_matter(self):
        # The static preference ranks the tiers, not the caller's list.
        assert CostModel().choose(FP, ["rounds", "compiled"]) == "compiled"
        model = CostModel(table={FP: "rounds"})
        assert model.choose(FP, ["rounds", "compiled"]) == "rounds"

    def test_unknown_tiers_are_ignored(self):
        assert CostModel().choose(FP, ["gpu", "rounds"]) == "rounds"
        assert CostModel().choose(FP, ["fused", "rounds"]) == "rounds"
        assert CostModel().selection(FP, ["gpu"]) is None
        with pytest.raises(ValueError):
            CostModel().choose(FP, ["gpu"])
        # A table entry naming no known tier is ignored like a
        # disallowed one.
        assert CostModel(table={FP: "gpu"}).choose(FP, ALL) == "compiled"


class TestSelection:
    def test_is_choose_when_a_tier_is_allowed(self):
        model = CostModel(table={FP: "rounds"})
        assert model.selection(FP, ALL) == "rounds"
        assert model.selection("fp:other", ["rounds", "compiled"]) == (
            "compiled"
        )

    def test_no_allowed_tiers_is_none(self):
        assert CostModel().selection(FP, []) is None


class TestTable:
    def test_override_wins(self):
        model = CostModel(table={FP: "rounds"})
        assert model.choose(FP, ALL) == "rounds"
        assert model.choose("fp:other", ALL) == "compiled"

    def test_override_outside_allowed_is_ignored(self):
        model = CostModel(table={FP: "compiled"})
        assert model.choose(FP, ["rounds"]) == "rounds"
        assert model.selection(FP, ["rounds"]) == "rounds"

    def test_default_is_the_calibrated_table(self):
        assert dict(CostModel().table) == CALIBRATED_TABLE
        fingerprint = next(iter(CALIBRATED_TABLE))
        assert CostModel().choose(fingerprint, ALL) == "rounds"

    def test_passed_table_is_laid_over_the_default(self):
        first, second = list(CALIBRATED_TABLE)[:2]
        model = CostModel(table={first: "compiled", FP: "rounds"})
        assert model.choose(first, ALL) == "compiled"
        assert model.choose(second, ALL) == "rounds"
        assert model.choose(FP, ALL) == "rounds"
        assert dict(CostModel(table={}).table) == CALIBRATED_TABLE

    def test_calibrated_table_is_not_stale(self):
        # Keyed by the registry's audio conditions as they compile
        # today, and by their shapes (which retuned copies share):
        # changing one of them must re-calibrate the table.
        apps = [cls() for cls in AUDIO_APPS]
        assert sorted(app.name for app in apps) == [
            "music_journal", "phrase_detection", "sirens",
        ]
        context = RunContext()
        graphs = [context.compile(app.build_wakeup_pipeline()) for app in apps]
        keys = {context.fingerprint(graph.program) for graph in graphs}
        keys |= {context.shape_sig(graph) for graph in graphs}
        assert set(CALIBRATED_TABLE) == keys
        assert set(CALIBRATED_TABLE.values()) == {"rounds"}


class TestLedger:
    def test_as_dict_accumulates_runs(self):
        model = CostModel()
        model.observe(FP, "compiled", 0.25, 500)
        model.observe(FP, "compiled", 0.25, 500)
        dump = model.as_dict()
        assert dump[FP]["compiled"]["runs"] == 2
        assert dump[FP]["compiled"]["seconds"] == pytest.approx(0.5)
        assert dump[FP]["compiled"]["items"] == pytest.approx(1000)

    def test_keys_and_tiers_are_filed_apart(self):
        model = CostModel()
        model.observe("fp:b", "rounds", 0.5, 50)
        model.observe(FP, "rounds", 0.25, 20)
        model.observe(FP, "compiled", 0.125, 10)
        assert model.as_dict() == {
            "fp:b": {"rounds": {"seconds": 0.5, "items": 50.0, "runs": 1}},
            FP: {
                "compiled": {"seconds": 0.125, "items": 10.0, "runs": 1},
                "rounds": {"seconds": 0.25, "items": 20.0, "runs": 1},
            },
        }

    def test_negative_readings_count_as_zero(self):
        model = CostModel()
        model.observe(FP, "rounds", -1.0, -5)
        assert model.as_dict()[FP]["rounds"] == {
            "seconds": 0.0, "items": 0.0, "runs": 1,
        }

