"""Self-tests of the benchmark's own arithmetic.

Run before every measurement (a failure counts as a failed operation)
and on their own with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import math
import sys

from stats import Tally, goodput, percentile, samples_beyond, self_times, summarize


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _expect(condition: bool) -> None:
    # not ``assert``: the checks must hold under ``python -O`` too
    if not condition:
        raise AssertionError("self-test expectation failed")


def test_percentiles_with_counts():
    values = list(range(1, 101))            # 1..100
    _expect(_close(percentile(values, 50), 50.5))
    _expect(_close(percentile(values, 99), 99.01))
    _expect(_close(percentile(values, 0), 1.0))
    _expect(_close(percentile(values, 100), 100.0))
    _expect(_close(percentile([3.0], 99), 3.0))
    _expect(_close(percentile([4, 1, 3, 2], 50), 2.5))   # order-free
    _expect(samples_beyond(100, 50) == 50)
    _expect(samples_beyond(100, 99) == 1)
    _expect(samples_beyond(1001, 99) == 10)
    s = summarize(values)
    _expect(s["count"] == 100 and s["p99_beyond"] == 1)
    _expect(summarize([])["p50"] is None)
    try:
        percentile([], 50)
    except ValueError:
        pass
    else:
        raise AssertionError("empty sample must raise")


def test_self_time_from_nested_spans():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},   # overlaps 2
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},   # grandchild
        {"id": 5, "parent": 1, "start": 9.0, "end": 12.0},  # runs past 1
    ]
    selfs = self_times(spans)
    _expect(_close(selfs[1], 10.0 - 5.0 - 1.0))   # [1, 6] and [9, 10]
    _expect(_close(selfs[2], 3.0 - 0.5))
    _expect(_close(selfs[3], 3.0))
    _expect(_close(selfs[4], 0.5))
    _expect(_close(selfs[5], 3.0))


def test_goodput_under_a_limit():
    # 3 within 0.1 s, one too slow, two failed, over a 2 s window
    outcomes = [0.01, 0.05, 0.1, 0.2, None, None]
    _expect(_close(goodput(outcomes, 0.1, 2.0), 1.5))
    _expect(_close(goodput([None, None], 10.0, 1.0), 0.0))
    try:
        goodput([0.1], 1.0, 0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("a zero window must raise")


def test_failure_accounting():
    tally = Tally()
    _expect(not tally.correct)                     # nothing attempted
    tally.ok(5)
    _expect(tally.correct and tally.attempted == 5)
    _expect(tally.check(True, "never"))
    _expect(not tally.check(False, "digest"))
    tally.fail("apply shed client_inflight", 2)
    _expect((tally.attempted, tally.failed) == (9, 3))
    _expect(tally.reasons == {"digest": 1, "apply shed client_inflight": 2})
    _expect(not tally.correct)


TESTS = [test_percentiles_with_counts, test_self_time_from_nested_spans,
         test_goodput_under_a_limit, test_failure_accounting]


def run_all() -> list[str]:
    """Run every self-test; returns the names of those that failed."""
    failed = []
    for test in TESTS:
        try:
            test()
        except AssertionError:
            failed.append(test.__name__)
    return failed


if __name__ == "__main__":
    failures = run_all()
    print("self-tests:", "ok" if not failures else ", ".join(failures))
    sys.exit(1 if failures else 0)
