"""The BD workloads: ``bd-mesh`` and ``bd-small``.

Both run the paper's recipe through the public ``Simulation`` API:
matrix-free BD (the default algorithm) at volume fraction 0.2 with
repulsive-harmonic forces, target ``e_p = 1e-3``, ``e_k = 1e-2`` and
``lambda_RPY = 10``.  The benchmark calls ``Simulation.run`` once per
``lambda_RPY`` block, so every block is one call; a step callback
timestamps every inner step.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import numpy as np
from repro import Simulation, make_suspension
from repro.exec import ExecutionContext
from repro.perfmodel import HOST, PMECostModel
from repro.pme.accuracy import pme_relative_error
from repro.runtime.tasks import positions_digest

from spans import Recorder, instrument
from stats import goodput, percentile, self_times, summarize

PHI = 0.2
TARGET_EP = 1e-3
E_K = 1e-2
LAMBDA_RPY = 10
DT = 1e-3
SETUPS = 3

#: n, whether to run on a two-thread ExecutionContext, and the per-step
#: latency limit (seconds) behind ``apply_goodput_rps``.  The limit sits
#: in the gap between an ordinary step (forces + drift apply, ~0.07 s on
#: bd-mesh, ~0.007 s on bd-small) and a block's first step, which also
#: rebuilds the operator and runs block Lanczos (~4 s and ~0.4 s).
WORKLOADS = {
    "bd-mesh": {"n": 2000, "threads": True, "step_limit": 1.0},
    "bd-small": {"n": 256, "threads": False, "step_limit": 0.1},
}

PHASES = ("spread", "fft", "influence", "ifft", "interpolate")


def _context(threads: bool):
    if not threads:
        return None
    return ExecutionContext("threads",
                            workers=min(2, len(os.sched_getaffinity(0))))


def _setup(n: int, seed: int, context):
    """Suspension, tuning, construction and one warm-up block."""
    t0 = time.perf_counter()
    suspension = make_suspension(n, PHI, seed=seed)
    kwargs = {} if context is None else {"context": context}
    sim = Simulation(suspension, dt=DT, lambda_rpy=LAMBDA_RPY,
                     seed=seed + 1, target_ep=TARGET_EP, e_k=E_K, **kwargs)
    sim.run(LAMBDA_RPY, record_interval=LAMBDA_RPY)
    return sim, time.perf_counter() - t0


def _measure(sim, seconds: float | None = None, blocks: int | None = None,
             after_block=None) -> dict:
    """Run whole blocks for ``seconds`` (or exactly ``blocks`` blocks).

    In timed mode a block is started only if the last one would still
    fit in the window, so the measured wall time stays within it.
    """
    step_lat: list[float] = []
    block_s: list[float] = []
    iterations: list[int] = []
    mark = [0.0]

    def on_step(step, wrapped, unwrapped):
        t = time.perf_counter()
        step_lat.append(t - mark[0])
        mark[0] = t

    start = time.perf_counter()
    while True:
        t0 = mark[0] = time.perf_counter()
        traj, stats = sim.run(LAMBDA_RPY, record_interval=LAMBDA_RPY,
                              extra_callback=on_step)
        block_s.append(time.perf_counter() - t0)
        iterations.extend(stats.krylov_iterations)
        if after_block is not None:
            after_block()
        if blocks is not None:
            if len(block_s) >= blocks:
                break
        elif time.perf_counter() - start + block_s[-1] > seconds:
            break
    wall = time.perf_counter() - start
    return {"wall": wall, "blocks": block_s, "step_lat": step_lat,
            "steps": len(block_s) * LAMBDA_RPY, "iterations": iterations,
            "final": traj.positions[-1]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_result(tally, op, final) -> float:
    """Correctness checks outside the timed region; returns e_p."""
    tally.check(bool(np.all(np.isfinite(final))), "non-finite positions")
    ep = pme_relative_error(op)
    tally.check(ep <= TARGET_EP, f"e_p {ep:.3g} above target {TARGET_EP}")
    return ep


def run_untraced(name: str, seed: int, seconds: float, tally) -> tuple:
    cfg = WORKLOADS[name]
    context = _context(cfg["threads"])
    try:
        setups = []
        for _ in range(SETUPS):
            sim = None  # release the previous simulation first
            sim, took = _setup(cfg["n"], seed, context)
            setups.append(took)
        first_op = sim.integrator.operator
        res = _measure(sim, seconds=seconds)
        rss = _peak_rss_mb()
        tally.ok(res["steps"])
        ep = _check_result(tally, first_op, res["final"])
    finally:
        if context is not None:
            context.close()
    lat = res["step_lat"]
    metrics = {
        "steps_per_s": res["steps"] / res["wall"],
        "block_s_p50": statistics.median(res["blocks"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "apply_p50_ms": percentile(lat, 50) * 1e3,
        "apply_goodput_rps": goodput(lat, cfg["step_limit"], res["wall"]),
        "simulate_s_p50": statistics.median(res["blocks"]),
    }
    info = {"setups_s": setups, "blocks": len(res["blocks"]),
            "wall_s": res["wall"],
            "step_latency": summarize(lat, (50.0, 95.0, 99.0)),
            "krylov_iterations": res["iterations"],
            "step_limit_s": cfg["step_limit"], "ep_achieved": ep}
    return metrics, info


def run_traced(name: str, seed: int, seconds: float, tally,
               out_prefix: str) -> tuple:
    """Untraced then traced segment from the same seed and block count.

    The traced segment's spans give the per-layer numbers; its final
    positions must match the untraced segment's bit for bit.
    """
    cfg = WORKLOADS[name]
    context = _context(cfg["threads"])
    harvested: list[dict] = []
    first_op = None

    try:
        sim, _took = _setup(cfg["n"], seed, context)
        plain = _measure(sim, seconds=seconds / 2)
        sim = None
        tally.ok(plain["steps"])

        recorder = Recorder()
        inst = instrument(recorder)

        def harvest():
            nonlocal first_op
            for op in inst.take_operators():
                if first_op is None:
                    first_op = op
                harvested.append({
                    "n": op.n, "K": op.params.K, "p": op.params.p,
                    "apps": op.n_applications,
                    "pairs": op.real.n_pairs,
                    "phases": op.phase_breakdown()})

        try:
            sim, _took = _setup(cfg["n"], seed, context)
            harvest()
            traced = _measure(sim, blocks=len(plain["blocks"]),
                              after_block=harvest)
            sim = None
        finally:
            inst.close()
        tally.ok(traced["steps"])
        tally.check(positions_digest(traced["final"])
                    == positions_digest(plain["final"]),
                    "traced digest differs from untraced")
        ep = _check_result(tally, first_op, traced["final"])
        workers = 1 if context is None else context.workers
    finally:
        if context is not None:
            context.close()
    recorder.write(f"{out_prefix}.spans.jsonl")

    spans = recorder.spans
    selfs = self_times(spans)

    def self_total(span_name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == span_name)

    def phase_total(phase):
        return sum(h["phases"].get(phase, 0.0) for h in harvested)

    model = PMECostModel(HOST)
    metrics = {
        "pme.tune_s": recorder.total("pme.tune"),
        "pme.build_s": recorder.total("pme.build"),
        "pme.builds": len(recorder.named("pme.build")),
        "pme.construct_p_s": phase_total("construct_p"),
        "pme.construct_real_s": phase_total("construct_real"),
        "pme.apply_block_s": recorder.total("pme.apply_block"),
        "pme.apply_block_cols": sum(s["attrs"]["cols"] for s in
                                    recorder.named("pme.apply_block")),
        "pme.real_s": phase_total("real"),
        "pme.apply_s": recorder.total("pme.apply"),
        "pme.apply_calls": len(recorder.named("pme.apply")),
        "pme.ep_achieved": ep,
        "krylov.generate_s": recorder.total("krylov.generate"),
        "krylov.iterations": sum(s["attrs"]["iterations"] for s in
                                 recorder.named("krylov.generate")),
        "krylov.self_s": self_total("krylov.generate"),
        "core.forces_s": recorder.total("core.forces"),
        "core.forces_calls": len(recorder.named("core.forces")),
        "core.unattributed_s": self_total("core.run"),
        "exec.workers": workers,
        "sparse.real_pairs": harvested[0]["pairs"],
        "bench.trace_overhead": ((traced["steps"] / traced["wall"])
                                 / (plain["steps"] / plain["wall"])),
    }
    for phase in PHASES:
        measured = phase_total(phase)
        predicted = sum(h["apps"] * model.breakdown(h["n"], h["K"], h["p"])
                        [phase] for h in harvested)
        metrics[f"pme.{phase}_s"] = measured
        metrics[f"pme.{phase}_model_ratio"] = (measured / predicted
                                               if predicted else math.nan)
    info = {"blocks": len(plain["blocks"]), "operators": len(harvested),
            "spans": len(spans), "untraced_wall_s": plain["wall"],
            "traced_wall_s": traced["wall"], "model_machine": HOST.name}
    return metrics, info
