"""Runtime-compiled native kernels for the PME hot path.

``scipy.sparse``'s CSR ``matmat`` walks the right-hand-side *columns*
one at a time (``csr_matvecs``), so it amortizes nothing across the
``s`` vectors of a block — exactly the cost the paper's Section IV.C
("SpMV on blocks of vectors", reference [24]) eliminates.  This module
compiles, at import-on-demand time, a small C library with the entry
points the PME pipeline needs:

``bcsr_matmat`` / ``bcsr_matmat_range``
    Multi-RHS BCSR SpMM streaming each 3x3 block once against all
    ``s`` lanes.  Lane counts common in Algorithm 2 (1, 2, 4, 6, 8,
    12, 16) get fully specialized inner loops; the ``_range`` variant
    computes only block rows ``[lo, hi)`` so an execution context can
    chunk the product over workers (row results are independent, so
    any partition is bit-identical to the serial product).
``csr_gather_range``
    Rows ``[lo, hi)`` of a CSR product with a strided multi-lane
    operand.  Spreading is this gather over the rows of ``P^T`` (mesh
    points) writing the batch-first ``(lanes, K^3)`` mesh directly;
    interpolation is the same gather over the rows of ``P``
    (particles).  Each output element is a sum over its own row, so
    workers never write the same element and no coloring is needed —
    the 8-color schedule of Section IV.B.2 exists for the *scatter*
    form.  Summation follows SciPy's CSR order, and the library is
    built with ``-ffp-contract=off``, so the gather equals the SciPy
    product bitwise (the self-test checks it) at any row split.

Every entry point is called through ``ctypes``, which releases the GIL
for the duration of the C call — this is what makes the ``threads``
backend of :mod:`repro.exec` genuinely parallel on CPython.

The kernels are strictly optional: compilation requires a C compiler
(``cc``/``gcc``/``clang``) on ``PATH``, and every failure — no
compiler, sandboxed temp dir, exotic platform — degrades silently to
the pure SciPy/NumPy paths.  The ``no_ckernel`` knob of
:class:`repro.config.RuntimeConfig` (``REPRO_NO_CKERNEL=1``) disables
them explicitly (useful to benchmark the fallback or rule the kernels
out when debugging).  Compiled libraries are cached on disk keyed by a
hash of the source and compiler flags (directory overridable via the
``ckernel_cache`` knob), so the cost is one ``cc`` invocation per
machine, not per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.ctypeslib import ndpointer

from ..config import get_config

__all__ = [
    "spmm_kernel", "spmm_range_kernel", "gather_kernel",
    "kernel_available", "reset_kernel_cache", "SPECIALIZED_LANES",
]

#: Lane counts with fully specialized (compile-time ``s``) inner loops.
SPECIALIZED_LANES = (1, 2, 4, 6, 8, 12, 16)

_SOURCE = r"""
#include <stddef.h>

#define DEFINE_SPMM(S)                                                   \
static void bcsr_matmat_##S(const long long lo, const long long hi,      \
                            const long long *restrict indptr,            \
                            const long long *restrict indices,           \
                            const double *restrict blocks,               \
                            const double *restrict x,                    \
                            double *restrict y)                          \
{                                                                        \
    for (long long r = lo; r < hi; ++r) {                                \
        double acc[3 * S];                                               \
        for (int c = 0; c < 3 * S; ++c) acc[c] = 0.0;                    \
        const long long k1 = indptr[r + 1];                              \
        for (long long k = indptr[r]; k < k1; ++k) {                     \
            const double *restrict b = blocks + 9 * (size_t)k;           \
            const double *restrict xc = x + (size_t)(3 * S) * indices[k];\
            for (int u = 0; u < 3; ++u)                                  \
                for (int v = 0; v < 3; ++v) {                            \
                    const double buv = b[3 * u + v];                     \
                    for (int j = 0; j < S; ++j)                          \
                        acc[S * u + j] += buv * xc[S * v + j];           \
                }                                                        \
        }                                                                \
        double *restrict yr = y + (size_t)(3 * S) * r;                   \
        for (int c = 0; c < 3 * S; ++c) yr[c] = acc[c];                  \
    }                                                                    \
}

DEFINE_SPMM(1)
DEFINE_SPMM(2)
DEFINE_SPMM(4)
DEFINE_SPMM(6)
DEFINE_SPMM(8)
DEFINE_SPMM(12)
DEFINE_SPMM(16)

void bcsr_matmat_range(const long long lo, const long long hi,
                       const long long *indptr, const long long *indices,
                       const double *blocks, const double *x, double *y,
                       const long long s)
{
    switch (s) {
    case 1:  bcsr_matmat_1(lo, hi, indptr, indices, blocks, x, y);  return;
    case 2:  bcsr_matmat_2(lo, hi, indptr, indices, blocks, x, y);  return;
    case 4:  bcsr_matmat_4(lo, hi, indptr, indices, blocks, x, y);  return;
    case 6:  bcsr_matmat_6(lo, hi, indptr, indices, blocks, x, y);  return;
    case 8:  bcsr_matmat_8(lo, hi, indptr, indices, blocks, x, y);  return;
    case 12: bcsr_matmat_12(lo, hi, indptr, indices, blocks, x, y); return;
    case 16: bcsr_matmat_16(lo, hi, indptr, indices, blocks, x, y); return;
    }
    for (long long r = lo; r < hi; ++r) {
        double *yr = y + (size_t)(3 * s) * r;
        for (long long c = 0; c < 3 * s; ++c) yr[c] = 0.0;
        for (long long k = indptr[r]; k < indptr[r + 1]; ++k) {
            const double *b = blocks + 9 * (size_t)k;
            const double *xc = x + (size_t)(3 * s) * indices[k];
            for (int u = 0; u < 3; ++u)
                for (int v = 0; v < 3; ++v) {
                    const double buv = b[3 * u + v];
                    for (long long j = 0; j < s; ++j)
                        yr[s * u + j] += buv * xc[s * v + j];
                }
        }
    }
}

void bcsr_matmat(const long long nb, const long long *indptr,
                 const long long *indices, const double *blocks,
                 const double *x, double *y, const long long s)
{
    bcsr_matmat_range(0, nb, indptr, indices, blocks, x, y, s);
}

/* Row-range gather over a CSR matrix (spreading with P^T, interpolation
 * with P): out[b * olane + r] = sum_k data[k] * x[indices[k] * xrow +
 * b * xlane] for rows r in [lo, hi) and lanes b in [0, lanes).  Every
 * output element sums its row's nonzeros in stored order starting from
 * 0.0 -- the order of SciPy's CSR product -- so the result equals
 * A @ x bitwise and is independent of how rows are split across
 * workers.  Lanes run in passes of a compile-time width W (12, 9, 6,
 * 3, 2 or 1: the pipeline's lane counts are multiples of 3) so the
 * lane loop unrolls, and rows in tiles of GATHER_ROWS so the
 * lane-major writes fill whole cache lines. */
#define GATHER_ROWS 8
#define GATHER_MAXW 12

static inline __attribute__((always_inline)) void
gather_pass(const long long W, const int unit, const long long lo,
            const long long hi, const long long *restrict indptr,
            const long long *restrict indices, const double *restrict data,
            const double *restrict x, const long long xrow,
            const long long xlane, double *restrict out,
            const long long olane)
{
    double acc[GATHER_ROWS * GATHER_MAXW];
    for (long long r0 = lo; r0 < hi; r0 += GATHER_ROWS) {
        const long long nr = hi - r0 < GATHER_ROWS ? hi - r0 : GATHER_ROWS;
        for (long long t = 0; t < nr; ++t) {
            double *restrict a = acc + t * W;
            for (long long b = 0; b < W; ++b) a[b] = 0.0;
            const long long k1 = indptr[r0 + t + 1];
            for (long long k = indptr[r0 + t]; k < k1; ++k) {
                const double w = data[k];
                const double *restrict v = x + (size_t)indices[k] * xrow;
                for (long long b = 0; b < W; ++b)
                    a[b] += w * v[unit ? b : (size_t)b * xlane];
            }
        }
        for (long long b = 0; b < W; ++b) {
            double *restrict o = out + (size_t)b * olane + r0;
            for (long long t = 0; t < nr; ++t) o[t] = acc[t * W + b];
        }
    }
}

#define GATHER_PASS(W)                                                    \
    do {                                                                  \
        if (xlane == 1)                                                   \
            gather_pass(W, 1, lo, hi, indptr, indices, data, xb, xrow,    \
                        xlane, ob, olane);                                \
        else                                                              \
            gather_pass(W, 0, lo, hi, indptr, indices, data, xb, xrow,    \
                        xlane, ob, olane);                                \
        b0 += W;                                                          \
    } while (0)

void csr_gather_range(const long long lo, const long long hi,
                      const long long *restrict indptr,
                      const long long *restrict indices,
                      const double *restrict data,
                      const double *restrict x, const long long xrow,
                      const long long xlane, const long long lanes,
                      double *restrict out, const long long olane)
{
    long long b0 = 0;
    while (b0 < lanes) {
        const long long left = lanes - b0;
        const double *restrict xb = x + (size_t)b0 * xlane;
        double *restrict ob = out + (size_t)b0 * olane;
        if (left >= 12) GATHER_PASS(12);
        else if (left >= 9) GATHER_PASS(9);
        else if (left >= 6) GATHER_PASS(6);
        else if (left >= 3) GATHER_PASS(3);
        else if (left == 2) GATHER_PASS(2);
        else GATHER_PASS(1);
    }
}
"""

#: ``-ffp-contract=off`` keeps ``a += w * v`` a separate multiply and
#: add (no FMA), which the gather needs to match SciPy bitwise.
_BASE_FLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]

#: Memoized load result: unset / a _Kernels bundle / None (unavailable).
_UNSET = object()
_kernels: object = _UNSET


class _Kernels:
    """The loaded entry points of one compiled library."""

    __slots__ = ("spmm", "spmm_range", "gather")

    def __init__(self, spmm: object, spmm_range: object, gather: object):
        self.spmm = spmm
        self.spmm_range = spmm_range
        self.gather = gather


def _cache_dir() -> Path:
    """Directory caching compiled kernels (``ckernel_cache`` knob)."""
    override = get_config().ckernel_cache
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-ckernels"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(compiler: str, flags: list[str], out: Path) -> bool:
    """Compile the kernel source to ``out``; True on success."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "repro_kernels.c"
        src.write_text(_SOURCE, encoding="utf-8")
        obj = Path(tmp) / out.name
        try:
            result = subprocess.run(
                [compiler, *flags, str(src), "-o", str(obj)],
                capture_output=True, timeout=120, check=False)
        except (OSError, subprocess.SubprocessError):
            return False
        if result.returncode != 0 or not obj.exists():
            return False
        out.parent.mkdir(parents=True, exist_ok=True)
        # atomic-ish publish so concurrent processes never load a
        # half-written library
        partial = out.with_suffix(f".{os.getpid()}.tmp")
        shutil.copy2(obj, partial)
        os.replace(partial, out)
        return True


def _load(path: Path) -> _Kernels | None:
    try:
        lib = ctypes.CDLL(str(path))
        spmm = lib.bcsr_matmat
        spmm_range = lib.bcsr_matmat_range
        gather = lib.csr_gather_range
    except (OSError, AttributeError):
        return None
    i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    ll = ctypes.c_longlong
    spmm.argtypes = [ll, i64, i64, f64, f64, f64, ll]
    spmm.restype = None
    spmm_range.argtypes = [ll, ll, i64, i64, f64, f64, f64, ll]
    spmm_range.restype = None
    gather.argtypes = [ll, ll, i64, i64, f64, f64, ll, ll, ll, f64, ll]
    gather.restype = None
    return _Kernels(spmm, spmm_range, gather)


def _selftest(kernels: _Kernels) -> bool:
    """Check every loaded entry point against tiny NumPy references."""
    rng = np.random.default_rng(7)

    # SpMM (full + range must agree with the dense product)
    indptr = np.array([0, 2, 3], dtype=np.int64)
    indices = np.array([0, 1, 1], dtype=np.int64)
    blocks = np.ascontiguousarray(rng.standard_normal((3, 3, 3)))
    x = np.ascontiguousarray(rng.standard_normal((2, 3, 2)))
    y = np.empty_like(x)
    kernels.spmm(2, indptr, indices, blocks, x, y, 2)
    dense = np.zeros((6, 6))
    dense[0:3, 0:3] = blocks[0]
    dense[0:3, 3:6] = blocks[1]
    dense[3:6, 3:6] = blocks[2]
    ref = (dense @ x.reshape(6, 2)).reshape(2, 3, 2)
    if not np.allclose(y, ref, rtol=1e-12, atol=1e-12):
        return False
    y2 = np.zeros_like(x)
    kernels.spmm_range(0, 1, indptr, indices, blocks, x, y2, 2)
    kernels.spmm_range(1, 2, indptr, indices, blocks, x, y2, 2)
    if not np.array_equal(y, y2):
        return False

    # gather: both operand layouts must equal SciPy's CSR product
    # bitwise, split into two row ranges (row 3 is empty)
    rows, cols, lanes = 5, 7, 3
    dense = rng.standard_normal((rows, cols)) * (rng.random((rows, cols))
                                                 < 0.6)
    dense[3] = 0.0
    a = sp.csr_matrix(dense)
    ptr = np.ascontiguousarray(a.indptr, dtype=np.int64)
    idx = np.ascontiguousarray(a.indices, dtype=np.int64)
    row_major = np.ascontiguousarray(rng.standard_normal((cols, lanes)))
    lane_major = np.ascontiguousarray(row_major.T)
    want = np.ascontiguousarray((a @ row_major).T)
    got = np.empty((lanes, rows))
    for x, xrow, xlane in ((row_major, lanes, 1), (lane_major, 1, cols)):
        got.fill(np.nan)
        kernels.gather(0, 2, ptr, idx, a.data, x, xrow, xlane, lanes,
                       got, rows)
        kernels.gather(2, rows, ptr, idx, a.data, x, xrow, xlane, lanes,
                       got, rows)
        if not np.array_equal(got, want):
            return False
    return True


def _bundle() -> _Kernels | None:
    """Compile/load/memoize the kernel library (None when unavailable)."""
    global _kernels
    if _kernels is not _UNSET:
        return None if _kernels is None else _kernels  # type: ignore[return-value]
    if get_config().no_ckernel:
        _kernels = None
        return None
    compiler = _compiler()
    if compiler is None:
        _kernels = None
        return None
    for flags in ([*_BASE_FLAGS, "-march=native"], _BASE_FLAGS):
        tag = hashlib.sha256(
            (_SOURCE + compiler + " ".join(flags)).encode()).hexdigest()[:16]
        lib_path = _cache_dir() / f"repro-kernels-{tag}.so"
        if not lib_path.exists() and not _compile(compiler, flags, lib_path):
            continue
        kernels = _load(lib_path)
        if kernels is not None and _selftest(kernels):
            _kernels = kernels
            return kernels
    _kernels = None
    return None


def reset_kernel_cache() -> None:
    """Forget the memoized load result (test helper).

    The bundle is memoized for the process lifetime, so flipping
    ``REPRO_NO_CKERNEL`` at runtime has no effect until this is called;
    the backend-equivalence tests use it to exercise both paths in one
    process.  The on-disk compilation cache is untouched.
    """
    global _kernels
    _kernels = _UNSET


def spmm_kernel() -> object | None:
    """The compiled SpMM entry point, or ``None`` when unavailable.

    The returned callable has the C signature ``bcsr_matmat(nb, indptr,
    indices, blocks, x, y, s)`` with ``x``/``y`` row-major ``(nb, 3, s)``
    float64 arrays.  The result is memoized for the process lifetime.
    """
    kernels = _bundle()
    return None if kernels is None else kernels.spmm


def spmm_range_kernel() -> object | None:
    """Row-range SpMM ``bcsr_matmat_range(lo, hi, indptr, indices,
    blocks, x, y, s)`` — computes block rows ``[lo, hi)`` only."""
    kernels = _bundle()
    return None if kernels is None else kernels.spmm_range


def gather_kernel() -> object | None:
    """Row-range CSR gather ``csr_gather_range(lo, hi, indptr, indices,
    data, x, xrow, xlane, lanes, out, olane)``: for rows ``r`` in
    ``[lo, hi)`` and lanes ``b``, ``out[b * olane + r] = sum_k data[k] *
    x[indices[k] * xrow + b * xlane]``."""
    kernels = _bundle()
    return None if kernels is None else kernels.gather


def kernel_available() -> bool:
    """True when the native kernels compiled and passed self-test."""
    return _bundle() is not None
