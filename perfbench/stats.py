"""Summary statistics for the benchmark: percentiles with their sample rule.

Percentiles use the nearest-rank definition on the sorted samples, so a
reported value is always one that was actually measured.  A percentile
``q`` is *supported* by ``n`` samples only when at least ten samples lie
beyond it, i.e. ``n * (1 - q) >= 10``; p99 therefore needs 1000 samples.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

MIN_TAIL_SAMPLES = 10
"""Samples that must lie beyond a percentile for it to be supported."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond the ``q`` quantile."""
    return n * (1.0 - q) >= MIN_TAIL_SAMPLES - 1e-9


def highest_supported(n: int) -> Optional[float]:
    """The largest of p50, p90, p99 and p99.9 that ``n`` samples support."""
    best = None
    for q in (0.5, 0.9, 0.99, 0.999):
        if supported(n, q):
            best = q
    return best


def latency_summary(samples_s: Sequence[float]) -> Dict[str, object]:
    """p50/p90/p95/p99 in milliseconds plus the sample count and the rule.

    Every percentile is computed; the ``*_supported`` flags and
    ``highest_supported`` name the ones the sample count backs, so a
    report can flag a percentile it had to print anyway.
    """
    n = len(samples_s)
    summary: Dict[str, object] = {
        "samples": n,
        "highest_supported": highest_supported(n),
    }
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)):
        summary[f"{label}_ms"] = percentile(samples_s, q) * 1e3
        summary[f"{label}_supported"] = supported(n, q)
    return summary


