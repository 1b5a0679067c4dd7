"""Blocked-PME apply under execution contexts: one worker vs threads.

There is one PME pipeline.  An ExecutionContext splits its stages
across a thread pool: the gather-form spread and interpolate over row
ranges of ``P^T`` and ``P`` (GIL-releasing C kernel), the stacked FFTs
with ``workers=`` parallelism and the real-space BCSR SpMM by block
rows (paper Sections IV.B.2, IV.C).  This benchmark times the same
``(3n, s)`` blocked apply through

* ``context=None`` — the pipeline on one worker, inline (the
  reference row), and
* ``threads`` contexts at 1, 2 and 4 workers,

and asserts the headline invariant along the way: every run produces
**bit-identical** velocities.

The speedup column is honest about the machine it ran on: on a
single-CPU host the thread rows measure dispatch overhead, not
parallel gain, and the recorded ``cpus`` field lets the CI comparison
interpret the numbers.  Run ``python benchmarks/bench_parallel_pme.py``
for the table; ``BENCH_parallel_pme.json`` is written via
``repro.bench.record``.
"""

import hashlib
import os
import time

import numpy as np

from repro.bench import (
    bench_scale,
    cached_suspension,
    print_table,
    record_benchmark,
)
from repro.exec import ExecutionContext
from repro.pme.operator import PMEOperator, PMEParams
from repro.sparse import kernel_available

N = 1000
PHI = 0.2
S = 8

#: Real-space-heavy split (most of the pipeline parallelizes): matched
#: truncation accuracy with the committed blocked-PME points.
XI, R_MAX, K, P = 0.30, 13.0, 24, 6

#: Worker counts measured under the threads backend.
THREAD_WORKERS = (1, 2, 4)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(fn, repeats):
    fn()                                  # warmup (plans, workspaces)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def parallel_rows(n=N, s=S, repeats=None):
    repeats = repeats or (7 if bench_scale() == "paper" else 3)
    susp = cached_suspension(n, volume_fraction=PHI)
    params = PMEParams(xi=XI, r_max=min(R_MAX, susp.box.length / 2),
                       K=K, p=P)
    f = np.random.default_rng(0).standard_normal((3 * n, s))

    op = PMEOperator(susp.positions, susp.box, params)
    reference = _digest(op.apply_block(f))
    t_ref = _best_of(lambda: op.apply_block(f), repeats)
    rows = [["none", 1, t_ref, 1.0]]

    for workers in THREAD_WORKERS:
        with ExecutionContext(backend="threads", workers=workers) as ctx:
            op = PMEOperator(susp.positions, susp.box, params, context=ctx)
            assert _digest(op.apply_block(f)) == reference, \
                f"threads/{workers} differs bitwise from context=None"
            t = _best_of(lambda: op.apply_block(f), repeats)
            rows.append([f"threads/{workers}", workers, t, t_ref / t])
    return rows


def main():
    rows = parallel_rows()
    headers = ["context", "workers", "t block (s)", "speedup vs none"]
    print_table(f"Blocked-PME apply under execution contexts "
                f"(n={N}, s={S}, cpus={_cpus()}, "
                f"native kernel: {kernel_available()})",
                headers, rows)
    threads = {r[1]: r[-1] for r in rows[1:]}
    best_threads = max(threads.values())
    record_benchmark("parallel_pme", headers, rows,
                     meta={"n": N, "s": S, "phi": PHI,
                           "xi": XI, "r_max": R_MAX, "K": K, "p": P,
                           "cpus": _cpus(),
                           "kernel_available": kernel_available(),
                           "threads_speedups": threads,
                           "best_threads_speedup": best_threads,
                           "bit_identical": True})
    print(f"\nbest threads speedup vs one worker: {best_threads:.2f}x "
          f"on {_cpus()} cpu(s)")


if __name__ == "__main__":
    main()
