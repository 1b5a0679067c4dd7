"""Tests for the execution-context layer (repro.exec).

The headline invariant: for a fixed kernel configuration the one PME
pipeline produces **bit-identical** results with no context and under
every context, at any worker count.
"""

import hashlib

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.config import get_config
from repro.exec import (
    ExecutionContext,
    default_context,
    reset_default_context,
    run_ranges,
)
from repro.pme.operator import PMEOperator, PMEParams
from repro.sparse.kernels import kernel_available, reset_kernel_cache

#: Contexts compared against ``context=None`` (one worker, inline).
CONTEXTS = [("serial", 1), ("threads", 1), ("threads", 2), ("threads", 3)]


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture
def system():
    box = Box(10.0)
    rng = np.random.default_rng(7)
    r = rng.uniform(0, box.length, size=(150, 3))
    params = PMEParams(xi=1.0, r_max=3.0, K=16, p=4)
    f = rng.standard_normal((3 * r.shape[0], 4))
    return box, r, params, f


@pytest.fixture(params=[False, True], ids=["ckernel", "fallback"])
def kernel_mode(request, monkeypatch):
    if request.param:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    reset_kernel_cache()
    yield request.param
    reset_kernel_cache()


# ---------------------------------------------------------------------------
# ExecutionContext basics
# ---------------------------------------------------------------------------

def test_context_defaults_from_config(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    ctx = ExecutionContext()
    assert ctx.backend == "threads" and ctx.workers == 3
    ctx.close()


def test_serial_context_single_worker():
    ctx = ExecutionContext(backend="serial", workers=8)
    assert ctx.workers == 1
    ctx.close()


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError, match="backend"):
        ExecutionContext(backend="gpu")


def test_close_is_idempotent_and_guards_use():
    ctx = ExecutionContext(backend="threads", workers=2)
    ctx.run_tasks([lambda: None])
    ctx.close()
    ctx.close()
    assert ctx.closed
    with pytest.raises(ConfigurationError, match="closed"):
        ctx.run_tasks([lambda: None])


def test_processes_backend_rejected(monkeypatch):
    with pytest.raises(ConfigurationError, match=r"serial\|threads"):
        ExecutionContext(backend="processes")
    monkeypatch.setenv("REPRO_BACKEND", "processes")
    with pytest.raises(ConfigurationError, match=r"serial\|threads"):
        get_config()


def test_run_tasks_is_a_barrier():
    done = []
    with ExecutionContext(backend="threads", workers=4) as ctx:
        ctx.run_tasks([lambda i=i: done.append(i) for i in range(16)])
    assert sorted(done) == list(range(16))


def test_default_context_none_on_serial(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    reset_default_context()
    assert default_context() is None


def test_default_context_shared_and_rebuilt(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    reset_default_context()
    try:
        ctx = default_context()
        assert ctx is not None and ctx.backend == "threads"
        assert default_context() is ctx
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        rebuilt = default_context()
        assert rebuilt is not ctx and rebuilt.workers == 3
    finally:
        reset_default_context()


# ---------------------------------------------------------------------------
# the headline invariant: bit-identity across backends
# ---------------------------------------------------------------------------

def test_spread_interpolate_digest_bit_identity(system, kernel_mode):
    from repro.pme.spread import InterpolationMatrix

    box, r, params, _ = system
    K, p = params.K, params.p
    interp = InterpolationMatrix(r, box, K, p)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((r.shape[0], 6))
    mesh_in = rng.standard_normal((6, K ** 3))

    spread_digests, interp_digests = set(), set()
    for config in [None] + CONTEXTS:
        ctx = None if config is None else ExecutionContext(*config)
        mesh_out = interp.spread_batch(vals, context=ctx)
        spread_digests.add(digest(mesh_out))
        interp_digests.add(digest(interp.interpolate_batch(mesh_in,
                                                           context=ctx)))
        # the gather form is the sparse-matrix product, bit for bit
        np.testing.assert_array_equal(mesh_out,
                                      (interp._transpose @ vals).T)
        if ctx is not None:
            ctx.close()
    assert len(spread_digests) == 1
    assert len(interp_digests) == 1


def test_apply_bit_identity_across_contexts(system, kernel_mode):
    box, r, params, f = system
    op = PMEOperator(r, box, params)
    block, single = op.apply_block(f), op.apply(f[:, 0])
    for config in CONTEXTS:
        with ExecutionContext(*config) as ctx:
            op = PMEOperator(r, box, params, context=ctx)
            assert digest(op.apply_block(f)) == digest(block), config
            assert digest(op.apply(f[:, 0])) == digest(single), config


def _ranges(ctx, n):
    seen = []
    run_ranges(ctx, n, lambda lo, hi: seen.append((lo, hi)))
    return sorted(seen)


def test_run_ranges_partition_rows():
    # uneven splits cover every row exactly once, in order
    for n, workers in ((4913, 2), (4913, 3), (10, 4), (2, 3), (0, 2)):
        with ExecutionContext("threads", workers=workers) as ctx:
            seen = _ranges(ctx, n)
        assert [i for lo, hi in seen for i in range(lo, hi)] == \
            list(range(n))
        assert len(seen) == max(1, min(workers, n))
    assert _ranges(None, 7) == [(0, 7)]


def test_parallel_apply_repeatable(system):
    # repeated applications on the same threaded operator are bitwise
    # stable (no scheduling-order dependence)
    box, r, params, f = system
    with ExecutionContext(backend="threads", workers=4) as ctx:
        op = PMEOperator(r, box, params, context=ctx)
        first = op.apply_block(f)
        for _ in range(3):
            np.testing.assert_array_equal(op.apply_block(f), first)


def test_real_spmm_context_matches_serial(system):
    if not kernel_available():
        pytest.skip("parallel SpMM chunking needs the C kernel")
    box, r, params, f = system
    op = PMEOperator(r, box, params)
    serial = op.real.apply_block(f)
    with ExecutionContext(backend="threads", workers=3) as ctx:
        np.testing.assert_array_equal(op.real.apply_block(f, context=ctx),
                                      serial)


def test_exec_metrics_and_spans_recorded(system):
    from repro import obs

    box, r, params, f = system
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    prev_t = obs.set_tracer(tracer)
    prev_m = obs.set_metrics(registry)
    try:
        with ExecutionContext(backend="threads", workers=2) as ctx:
            op = PMEOperator(r, box, params, context=ctx)
            op.apply_block(f)
    finally:
        obs.set_tracer(prev_t)
        obs.set_metrics(prev_m)
    spread = [e for e in tracer.events
              if e.name == "pme.spread" and e.phase == "X"]
    assert spread and spread[0].args["backend"] == "threads"
    assert spread[0].args["workers"] == 2
    if kernel_available():   # stages dispatch to workers via the C kernel
        names = {fam["name"] for fam in registry.to_json()["metrics"]}
        assert "exec_tasks_total" in names
        assert "exec_queue_lag_seconds" in names


# ---------------------------------------------------------------------------
# integrator / ensemble integration
# ---------------------------------------------------------------------------

def test_simulation_accepts_context(system):
    from repro.core.simulation import Simulation
    from repro.systems.suspension import make_suspension

    susp = make_suspension(60, 0.1, seed=5)
    params = PMEParams(xi=0.9, r_max=3.0, K=16, p=4)
    with ExecutionContext(backend="threads", workers=2) as ctx:
        sim = Simulation(susp, dt=1e-3, lambda_rpy=4, seed=1,
                         pme_params=params, context=ctx)
        traj, stats = sim.run(4, record_interval=2)
        assert stats.n_steps == 4
        assert sim.integrator.operator.context is ctx


def test_ensemble_soak_1_vs_2_workers_threads(tmp_path, monkeypatch):
    """1-vs-N ensemble workers under the threads backend: same digests."""
    from repro.pme.operator import PMEParams
    from repro.runtime.supervisor import Supervisor
    from repro.runtime.tasks import TaskSpec

    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    pme = PMEParams(xi=0.9, r_max=3.0, K=16, p=4)
    specs = [TaskSpec(task_id=i, n=40, phi=0.1, n_steps=4, dt=1e-3,
                      lambda_rpy=2, seed=100 + i, system_seed=7, pme=pme)
             for i in range(3)]
    digests = []
    for n_workers in (1, 2):
        d = tmp_path / f"w{n_workers}"
        d.mkdir()
        sup = Supervisor(specs, str(d), n_workers=n_workers)
        result = sup.run()
        assert all(t.state.value == "done" for t in result.manifest.tasks)
        digests.append(result.digests)
    assert digests[0] == digests[1]
