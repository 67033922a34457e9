"""Sample summaries: nearest-rank percentiles and the supported tail."""

from __future__ import annotations

import math
from typing import Optional, Sequence

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, percent: float) -> int:
    """1-based nearest rank; the tiny offset undoes float noise such as
    ``99.9 / 100 * 1000 == 999.0000000000001``."""
    return max(1, math.ceil(percent / 100.0 * count - 1e-9))


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent`` % of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), percent) - 1]


def supported_tail(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(percent, value)`` of the highest of p90/p95/p99/p99.9 that still has
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None``."""
    for percent in TAIL_PERCENTILES:
        if samples and len(samples) - _rank(len(samples), percent) >= MIN_SAMPLES_BEYOND:
            return percent, percentile(samples, percent)
    return None


def describe(samples: Sequence[float]) -> str:
    """``n=…, pXX=…`` — the sample count and supported tail printed beside a median."""
    tail = supported_tail(samples)
    text = f"n={len(samples)}"
    if tail is not None:
        text += f", p{tail[0]:g}={tail[1]:.3f}"
    return text
