"""Ablation — spreading strategies: gather form vs 8-color scatter.

Section IV.B.2's independent-set schedule exists to make the *scatter*
form of spreading parallel-safe.  The PME pipeline spreads in *gather*
form instead — each mesh row of the stored ``P^T`` sums its own
particles — which splits across workers with no coloring.  This
ablation compares them on the host:

* all strategies (sparse ``P^T f``, the gather form on 1 and 2
  workers, the colored scatter) produce the same mesh,
* the per-color write footprints are disjoint (the scatter schedule's
  race-freedom invariant, re-verified here at benchmark scale),
* relative costs are reported.

Run ``python benchmarks/bench_ablation_coloring.py`` for the table.
"""

import numpy as np

from repro.bench import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.exec import ExecutionContext
from repro.parallel.coloring import ColoredSpreader
from repro.pme.spread import InterpolationMatrix
from repro.pme.tuning import tune_parameters


def _setup(n):
    susp = cached_suspension(n)
    params = tune_parameters(n, susp.box, target_ep=1e-3)
    return susp, params


def experiment_rows(n=None):
    n = n or (20000 if bench_scale() == "paper" else 3000)
    susp, params = _setup(n)
    K, p = params.K, params.p
    f = np.random.default_rng(0).standard_normal(n)

    interp = InterpolationMatrix(susp.positions, susp.box, K, p)
    colored = ColoredSpreader(susp.positions, susp.box, K, p)
    fm = f[:, None]

    reference = interp.spread(f)
    rows = []
    with ExecutionContext("threads", workers=2) as ctx:
        for name, fn in (
                ("sparse P^T f", lambda: interp.spread(f)),
                ("gather, 1 worker", lambda: interp.spread_batch(fm)[0]),
                ("gather, 2 workers",
                 lambda: interp.spread_batch(fm, context=ctx)[0]),
                ("8-color scatter", lambda: colored.spread(f))):
            t = measure_seconds(fn, repeats=3, warmup=1).best
            max_dev = float(np.abs(fn() - reference).max())
            rows.append([name, t, f"{max_dev:.1e}"])
    return rows, colored


def main():
    rows, colored = experiment_rows()
    headers = ["strategy", "t (s)", "max deviation"]
    print_table("Ablation: spreading strategies (identical results "
                "required)",
                headers, rows)
    disjoint = all(
        not np.intersect1d(a, b).size
        for c in range(colored.n_colors)
        for idx, a in enumerate(colored.block_footprints(c))
        for b in colored.block_footprints(c)[idx + 1:])
    print(f"per-color block write footprints disjoint: {disjoint} "
          "(the schedule's race-freedom invariant)")
    record_benchmark("ablation_coloring", headers, rows,
                     meta={"footprints_disjoint": bool(disjoint)})


def test_sparse_spreading(benchmark):
    susp, params = _setup(2000)
    interp = InterpolationMatrix(susp.positions, susp.box, params.K,
                                 params.p)
    f = np.random.default_rng(0).standard_normal(2000)
    benchmark(interp.spread, f)


def test_colored_spreading(benchmark):
    susp, params = _setup(2000)
    colored = ColoredSpreader(susp.positions, susp.box, params.K, params.p)
    f = np.random.default_rng(0).standard_normal(2000)
    benchmark(colored.spread, f)


def test_strategies_identical(benchmark):
    rows, _ = benchmark.pedantic(experiment_rows, kwargs=dict(n=1500),
                                 rounds=1, iterations=1)
    for row in rows:
        assert float(row[2]) < 1e-12


if __name__ == "__main__":
    main()
