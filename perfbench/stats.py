"""Summary statistics of the benchmark: percentiles, self time, goodput.

Everything here is plain Python over lists of numbers so that the
self-tests in :mod:`selftest` can pin it down exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile(values, q)`` (its default "linear"
    method).  Raises ``ValueError`` on an empty sample.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th
    percentile's rank; a tail percentile is trustworthy when this is at
    least ten."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def summarize(values, percentiles=(50.0, 99.0)) -> dict:
    """Percentiles of a sample together with its size and tail counts."""
    values = list(values)
    out = {"count": len(values)}
    for q in percentiles:
        key = f"p{q:g}"
        out[key] = percentile(values, q) if values else None
        out[f"{key}_beyond"] = samples_beyond(len(values), q) if values else 0
    return out


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and
    ``end``; children are clipped to their parent's interval, and
    overlapping children (concurrent work) are counted once.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        lo = max(s["start"], parent["start"])
        hi = min(s["end"], parent["end"])
        if hi > lo:
            children.setdefault(parent["id"], []).append((lo, hi))
    return {s["id"]: (s["end"] - s["start"])
            - union_length(children.get(s["id"], ()))
            for s in spans}


def goodput(latencies, limit: float, window: float) -> float:
    """Operations answered within ``limit`` per second of ``window``.

    ``latencies`` holds one entry per attempted operation: its latency
    in seconds, or ``None`` when it failed (shed, error, timed out),
    which misses the limit by definition.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    return sum(1 for lat in latencies
               if lat is not None and lat <= limit) / window


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failed correctness check is one failed operation.  ``correct``
    holds only when nothing failed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check(self, condition: bool, reason: str) -> bool:
        """Count one correctness check; returns ``condition``."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return bool(condition)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
