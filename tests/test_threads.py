"""Threaded gather-form spreading and interpolation.

Spreading is a row gather over the stored ``P^T`` (each mesh point sums
its own particles) and interpolation a row gather over ``P``, so
splitting rows across workers needs no coloring and cannot change a
bit.  The tests run under both kernel modes: the compiled
``csr_gather_range`` kernel and the SciPy fallback.
"""

import shutil
import sys

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.exec import ExecutionContext
from repro.pme.spread import InterpolationMatrix
from repro.sparse.kernels import (
    gather_kernel,
    kernel_available,
    reset_kernel_cache,
)

KERNEL_MODES = ("ckernel", "fallback")


@pytest.fixture
def use_kernel_mode(monkeypatch):
    def use(mode):
        if mode == "fallback":
            monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        else:
            monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        reset_kernel_cache()
    yield use
    monkeypatch.undo()
    reset_kernel_cache()


@pytest.fixture
def system():
    # K = 17: the 4913 mesh rows split unevenly over 2, 3 and 4 workers,
    # and 60 particles leave most rows of P^T empty
    box = Box(16.0)
    r = np.random.default_rng(33).uniform(0, box.length, size=(60, 3))
    interp = InterpolationMatrix(r, box, 17, 4)
    assert np.any(np.diff(interp._transpose.indptr) == 0)
    return interp


def _operands(interp, lanes, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((interp.n, lanes))
    mesh = rng.standard_normal((lanes, interp.K ** 3))
    return vals, mesh


def _references(interp, vals, mesh):
    spread = np.ascontiguousarray((interp._transpose @ vals).T)
    interp_ref = np.stack([interp.matrix @ m for m in mesh])
    return spread, interp_ref


def test_gather_kernel_loads_where_a_compiler_exists(use_kernel_mode):
    # the kernel degrades silently to SciPy when its bitwise self-test
    # fails; with a compiler present that would hide a broken build
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        pytest.skip("no C compiler")
    use_kernel_mode("ckernel")
    assert gather_kernel() is not None


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_threaded_matches_matrix(system, use_kernel_mode, n_workers):
    vals, mesh = _operands(system, 7, seed=0)   # lane passes 6 + 1
    spread_ref, interp_ref = _references(system, vals, mesh)
    for mode in KERNEL_MODES:
        use_kernel_mode(mode)
        for ctx in (None, ExecutionContext("threads", workers=n_workers)):
            np.testing.assert_array_equal(
                system.spread_batch(vals, context=ctx), spread_ref)
            np.testing.assert_array_equal(
                system.interpolate_batch(mesh, context=ctx), interp_ref)
            if ctx is not None:
                ctx.close()


def test_threaded_multivector(system, use_kernel_mode):
    # 71 lanes run the kernel's 12-, 9- and 2-lane passes
    vals, mesh = _operands(system, 71, seed=1)
    spread_ref, interp_ref = _references(system, vals, mesh)
    for mode in KERNEL_MODES:
        use_kernel_mode(mode)
        with ExecutionContext("threads", workers=3) as ctx:
            np.testing.assert_array_equal(
                system.spread_batch(vals, context=ctx), spread_ref)
            np.testing.assert_array_equal(
                system.interpolate_batch(mesh, context=ctx), interp_ref)


def test_threaded_deterministic(system):
    # thread scheduling must not change the result (disjoint writes):
    # more workers than cores, and frequent thread switches
    vals, mesh = _operands(system, 6, seed=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ExecutionContext("threads", workers=8) as ctx:
            first = system.spread_batch(vals, context=ctx)
            back = system.interpolate_batch(mesh, context=ctx)
            for _ in range(5):
                np.testing.assert_array_equal(
                    system.spread_batch(vals, context=ctx), first)
                np.testing.assert_array_equal(
                    system.interpolate_batch(mesh, context=ctx), back)
    finally:
        sys.setswitchinterval(interval)


def test_gather_rejects_mismatched_shapes(system):
    vals, mesh = _operands(system, 3, seed=6)
    with pytest.raises(ConfigurationError, match="values"):
        system.spread_batch(vals[1:])
    with pytest.raises(ConfigurationError, match="out"):
        system.spread_batch(vals, out=np.empty((3, 10)))
    with pytest.raises(ConfigurationError, match="mesh_values"):
        system.interpolate_batch(mesh[:, 1:])
    with pytest.raises(ConfigurationError, match="out"):
        system.interpolate_batch(mesh, out=np.empty((system.n, 3)))


def test_spreader_owns_persistent_pool(system):
    # spreading borrows the context's pool, created once, not per call
    vals, _ = _operands(system, 3, seed=3)
    with ExecutionContext("threads", workers=2) as ctx:
        system.spread_batch(vals, context=ctx)
        pool = ctx.thread_pool()
        system.spread_batch(vals, context=ctx)
        assert ctx.thread_pool() is pool


def test_spreader_close_is_idempotent(system):
    if not kernel_available():
        pytest.skip("only the C kernel path dispatches to the context")
    vals, _ = _operands(system, 3, seed=4)
    ctx = ExecutionContext("threads", workers=2)
    ctx.close()
    ctx.close()
    with pytest.raises(ConfigurationError, match="closed"):
        system.spread_batch(vals, context=ctx)


def test_spreader_borrowed_context_left_open(system):
    vals, mesh = _operands(system, 3, seed=5)
    with ExecutionContext("threads", workers=2) as ctx:
        system.spread_batch(vals, context=ctx)
        system.interpolate_batch(mesh, context=ctx)
        assert not ctx.closed  # borrowed: the owner closes it
        ctx.run_tasks([lambda: None])
