"""Order statistics the benchmark reports.

Percentiles are nearest-rank (no interpolation), the same convention as
:func:`repro.serve.metrics.percentile_sorted`, so "samples beyond the
percentile" is an exact count.  The benchmark keeps its own copy so its
figures cannot change when the program's helpers do.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Tail percentiles, highest first; the tail metric reports the highest
#: one the open-loop sample supports.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` in ``n`` samples."""
    return max(1, min(n, math.ceil(n * q / 100.0 - 1e-9)))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` percentile's rank."""
    return n - rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest tail percentile with at least ``MIN_BEYOND`` samples
    beyond it in a sample of ``n``, or ``None`` when even p90 has too
    few (the sample is then too small for a tail figure)."""
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]
