"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload bd-mesh --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` runs the traced variant and prints
every per-layer metric.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is ``# info {...}`` with the environment, sample counts and failure
reasons.  Everything the run writes goes under ``.perfbench-out/`` in
the repository root (spans, the server's work directory, the compiled
kernel cache, temporary files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("bd-mesh", "bd-small", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_CKERNEL_CACHE"] = os.path.join(OUT, "ckernels")
    tempfile.tempdir = None          # re-read TMPDIR
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _environment(kernel: bool) -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return {"nproc": usable, "cpu_count": os.cpu_count(),
            "kernel_available": kernel,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _run(args, tally, scratch: str, prefix: str) -> tuple[dict, dict]:
    if args.workload == "serve-mixed":
        import serve_mixed
        if args.trace:
            return serve_mixed.run_traced(ROOT, scratch, args.seed,
                                          args.seconds, tally, prefix)
        return serve_mixed.run_untraced(ROOT, scratch, args.seed,
                                        args.seconds, tally)
    import bd
    if args.trace:
        return bd.run_traced(args.workload, args.seed, args.seconds, tally,
                             prefix)
    return bd.run_untraced(args.workload, args.seed, args.seconds, tally)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(layers) != {m["name"] for m in spec["per_layer"]}:
        print("error: layers.json and BENCHMARK.json per_layer differ",
              file=sys.stderr)
        return 2

    _prepare_environment()
    from selftest import run_all
    from stats import Tally
    from repro.sparse.kernels import kernel_available

    tally = Tally()
    for name in run_all():
        tally.fail(f"self-test {name}")
    kernel = kernel_available()      # compiles into the cache once
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-")
    prefix = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}")
    try:
        measured, info = _run(args, tally, scratch, prefix)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = sorted(set(units) - set(measured))
    if args.trace:
        # a layer this workload does not pass through reads 0
        measured.update({name: 0 for name in missing})
        info["layers_not_exercised"] = missing
    elif missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {}
    for name, unit in units.items():
        value = measured[name]
        if not math.isfinite(value):
            tally.fail(f"non-finite {name}")
            value = 0
        metrics[name] = {"value": value, "unit": unit}

    info.update(environment=_environment(kernel), reasons=tally.reasons,
                workload=args.workload, seed=args.seed, trace=args.trace)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    print("# info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
