"""Per-tenant audio wake-up conditions for the merged-execution tests.

Three families, each a registry audio detector's shape with the tenant's
own band limits: the siren FFT chain, and the music and phrase
variance + zero-crossing chains (those two share one graph shape).
Conditions of one recording share their ``window -> highPass -> fft``
or ``window -> variance`` / ``window -> ZCR -> window -> variance``
front ends, which is what pipeline merging removes.
"""

from typing import Dict, Tuple

from repro.api.compile import compile_pipeline
from repro.apps import all_applications
from repro.il.text import format_program
from repro.traces.audio import (
    AudioEnvironment,
    AudioTraceConfig,
    generate_audio_trace,
)
from repro.traces.base import Trace

#: IL templates, one per family, with ``%(...)s`` band-limit slots.
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

#: Band-limit ranges per family, as ``{slot: (low, high)}``.
AUDIO_BANDS: Tuple[Dict[str, Tuple[float, float]], ...] = (
    {"lo": (800.0, 900.0), "hi": (1700.0, 1900.0)},
    {"lo": (0.0015, 0.0025), "hi": (0.06, 0.1), "zhi": (0.0004, 0.0006)},
    {"lo": (0.0006, 0.0008), "zlo": (0.0013, 0.0017)},
)

#: The registry's audio applications, whose fingerprints the shipped
#: cost table pins to the round interpreter.
REGISTRY_AUDIO_APPS: Tuple[str, ...] = (
    "sirens", "music_journal", "phrase_detection",
)


def audio_condition(family: int, fractions: Tuple[float, ...]) -> str:
    """IL text of ``family`` with each band slot placed at a fraction
    (in ``[0, 1]``, slots in sorted order) of its range."""
    bands = AUDIO_BANDS[family]
    limits = {
        slot: f"{lo + (hi - lo) * fraction:.6g}"
        for (slot, (lo, hi)), fraction in zip(sorted(bands.items()), fractions)
    }
    return AUDIO_FAMILIES[family] % limits


def registry_condition(app_name: str) -> str:
    """IL text of a registry audio application's wake-up condition."""
    app = next(app for app in all_applications() if app.name == app_name)
    return format_program(compile_pipeline(app.build_wakeup_pipeline()))


#: (environment, seed, recording s, clip start s, clip end s) of each
#: clip: two sirens, and a stretch of music followed by speech.
_CLIPS = (
    (AudioEnvironment.OFFICE, 2, 120.0, 44.0, 64.0),
    (AudioEnvironment.COFFEE_SHOP, 0, 120.0, 8.0, 28.0),
    (AudioEnvironment.OFFICE, 3000, 60.0, 36.0, 60.0),
)


def audio_clips() -> Tuple[Trace, ...]:
    """Three short recordings on which every family fires."""
    return tuple(
        generate_audio_trace(
            AudioTraceConfig(environment, duration_s=duration, seed=seed)
        ).slice(start, end, name=f"{environment.value}-{seed}")
        for environment, seed, duration, start, end in _CLIPS
    )
