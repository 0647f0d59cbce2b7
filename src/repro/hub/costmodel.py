"""Tier selection for hub execution: a calibrated table and a run ledger.

The engine can run a wake-up condition two ways — ``compiled`` (one
whole-trace array program) and ``rounds`` (the paper's round-by-round
interpreter, the semantics oracle) — both bit-identical, so the choice
only decides how fast the same events arrive.  Sidewinder places a
condition by static analysis, so a developer sees the same behaviour
on every run; this model keeps that property.  :meth:`CostModel.choose`
is a pure function of its inputs: a calibrated ``table`` entry for the
key wins when its tier is allowed, otherwise the first allowed tier in
:data:`TIER_PREFERENCE`.

The static order is right for the accelerometer suites, where the
compiled tier removes the per-round interpreter overhead.  The
FFT-heavy audio conditions are memory-bandwidth-bound instead: on the
engine's batched path the round interpreter runs them about twice as
fast as the compiled tier, so :data:`CALIBRATED_TABLE` pins them — and
their retuned copies, through their shape signatures — to ``rounds``.

The engine still times every run and files it with
:meth:`CostModel.observe` in a ledger of seconds, items and runs per
(key, tier).  The ledger is for reports only: it never feeds a choice,
so timing noise cannot change the path a run takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: Execution tiers in static preference order: with no table entry, the
#: first allowed one runs.
TIER_PREFERENCE = ("compiled", "rounds")

#: Calibrated tiers for the registry's audio conditions, keyed by IL
#: fingerprint (:func:`repro.sim.engine.program_fingerprint`) and by
#: shape signature (:func:`repro.hub.compile.shape_signature`), which
#: retuned copies share.  Over the paper's audio traces
#: ``results/BENCH_compile.json`` times the engine's batched path
#: fastest on the round interpreter for each condition, and shape groups
#: of retuned copies also run slower as compiled shape dispatches than
#: row by row on the round interpreter.
CALIBRATED_TABLE: Dict[str, str] = {
    # sirens
    "a640f55d629b3ba920d465b528a6961040e52be7b9bbc768a68e5f3559b66dbb":
        "rounds",
    "shape:01220495c23babfc52e2c32a15c502ce2ed13b3b6dddf8a496c948ee8bdd398a":
        "rounds",
    # music_journal
    "10205635f8f2ad22c24c2afdc807ec96dda902b72d8e630dcddf522f1c37fa30":
        "rounds",
    # phrase_detection
    "5ab90453722f1351bdb36939b0a64c090aa000f8567a81fba2fbc7fa403593f5":
        "rounds",
    # music_journal and phrase_detection share one shape
    "shape:df813bf368ecf4151b5fe53cb8adc9eb43fa9981e1bb34e43d230a9a2a56b49c":
        "rounds",
}


@dataclass
class _Entry:
    """Accumulated runs of one (key, tier) pair."""

    seconds: float = 0.0
    items: float = 0.0
    runs: int = 0


@dataclass
class CostModel:
    """Calibrated tier selection plus a ledger of observed runs.

    Args:
        table: Calibrated ``key -> tier`` entries, keyed by IL
            fingerprint or shape signature
            (:func:`repro.hub.compile.shape_signature`; the key spaces
            are disjoint).  They are laid over
            :data:`CALIBRATED_TABLE`: an entry here wins over the
            shipped one for the same key, and the other shipped
            entries stay.
    """

    table: Mapping[str, str] = field(default_factory=dict)
    _ledger: Dict[Tuple[str, str], _Entry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.table = {**CALIBRATED_TABLE, **self.table}

    def observe(
        self, key: str, tier: str, seconds: float, items: float
    ) -> None:
        """File one run in the ledger: ``tier`` processed ``items``
        input items of ``key``'s work in ``seconds``."""
        entry = self._ledger.get((key, tier))
        if entry is None:
            entry = self._ledger[(key, tier)] = _Entry()
        entry.seconds += max(float(seconds), 0.0)
        entry.items += max(float(items), 0.0)
        entry.runs += 1

    def choose(self, key: str, allowed: Sequence[str]) -> str:
        """The tier ``key``'s work runs on.

        ``allowed`` lists the tiers the context's switches permit for
        the graph (no ``compiled`` entry when it is not compile-eligible
        or ``compiled`` is off).
        Returns the table entry when it is allowed, else the first
        allowed tier in :data:`TIER_PREFERENCE`.  Reads neither the
        ledger nor any clock.

        Raises:
            ValueError: when no known tier is allowed.
        """
        tier = self.selection(key, allowed)
        if tier is None:
            raise ValueError(f"no allowed tiers for {key!r}")
        return tier

    def selection(self, key: str, allowed: Sequence[str]) -> Optional[str]:
        """:meth:`choose`, or ``None`` when no known tier is allowed."""
        ordered = [tier for tier in TIER_PREFERENCE if tier in allowed]
        if not ordered:
            return None
        pinned = self.table.get(key)
        return pinned if pinned in ordered else ordered[0]

    def as_dict(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """The ledger as ``{key: {tier: {seconds, items, runs}}}``
        (benchmarks record it beside timings)."""
        out: Dict[str, Dict[str, Dict[str, object]]] = {}
        for (key, tier), entry in sorted(self._ledger.items()):
            out.setdefault(key, {})[tier] = {
                "seconds": entry.seconds,
                "items": entry.items,
                "runs": entry.runs,
            }
        return out
