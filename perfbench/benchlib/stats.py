"""Nearest-rank percentiles and the tail-percentile rule."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles a tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def ladder_from(q: float) -> tuple:
    """:data:`TAIL_LADDER` from percentile ``q`` down.  A gated tail keeps
    one percentile from run to run; the full ladder would move it up a
    rung whenever a faster run holds more samples."""
    return (q,) + tuple(x for x in TAIL_LADDER if x < q)


#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer make the tail a handful of outliers.
MIN_BEYOND = 10


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` among ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    # round() strips float noise such as 99.9 * 1000 / 100 = 999.0000000000001.
    return min(n, max(1, math.ceil(round(q * n / 100.0, 9))))


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest percentile of ``ladder`` with ``min_beyond`` samples above it.

    With ``n`` samples, percentile ``q`` sits at rank ``ceil(q n / 100)``
    and ``n - rank`` samples lie beyond it.  Returns None when even the
    lowest rung has too few samples behind it.
    """
    for q in ladder:
        if n >= 1 and n - nearest_rank(n, q) >= min_beyond:
            return q
    return None


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[nearest_rank(len(sorted_values), q) - 1]


def summarize_ms(latencies_s: Sequence[float], cap_ms: float = math.inf,
                 ladder: Sequence[float] = TAIL_LADDER) -> dict:
    """p50 and the :func:`tail_percentile` of latencies given in seconds.

    Infinite latencies (failed operations) sort last and are reported
    as ``cap_ms``.  With too few samples for any rung of the ladder the
    tail is the maximum (``tail_q`` 100).
    """
    ordered = sorted(latencies_s)
    q = tail_percentile(len(ordered), ladder) or 100.0
    ms = lambda s: min(1000.0 * s, cap_ms)   # noqa: E731
    return {
        "samples": len(ordered),
        "p50_ms": ms(percentile(ordered, 50.0)),
        "tail_q": q,
        "tail_ms": ms(percentile(ordered, q)),
    }
