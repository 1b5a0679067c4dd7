"""Spreading and interpolation as sparse-matrix products (paper Section IV.A).

The key reformulation of the paper: the B-spline spreading of forces
onto the mesh is ``F = P^T f`` and the interpolation of mesh velocities
back to the particles is ``u = P U``, with ``P`` the ``n x K^3``
interpolation matrix of Eq. 7 (``p^3`` nonzeros per row).  Because the
Krylov method applies the same PME operator to many vectors, ``P`` is
precomputed once per mobility update and reused — the optimization
measured in Fig. 4.  On-the-fly variants that never store ``P`` are
provided for that comparison.

``P`` is stored as a ``scipy.sparse.csr_matrix``: as the paper notes,
row pointers are redundant (every row has exactly ``p^3`` nonzeros) but
CSR keeps the compiled SpMV available; the redundancy is one ``intp``
per particle.  ``P^T`` is stored too, so spreading is a row *gather*
over mesh points rather than a scatter over particles: the batched
products split their output rows across an
:class:`~repro.exec.ExecutionContext`'s workers through the
GIL-releasing ``csr_gather_range`` kernel of
:mod:`repro.sparse.kernels`, with no write conflicts and no coloring,
and the result is bit-identical at any worker count.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..errors import ConfigurationError
from ..exec import run_ranges
from ..geometry.box import Box
from ..lint.contracts import positions_arg
from ..sparse.kernels import gather_kernel
from ..utils.validation import as_positions
from .bspline import bspline_weights

__all__ = ["InterpolationMatrix", "spread_on_the_fly", "interpolate_on_the_fly"]


def _weights_and_columns(positions, box: Box, K: int, p: int,
                         kind: str = "bspline"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle interpolation weights and flattened mesh indices.

    Returns ``(data, cols)`` with shapes ``(n, p^3)``: row ``i`` holds
    the ``p^3`` spreading weights of particle ``i`` and the flat
    (row-major) indices of the mesh points they address.

    ``kind`` selects cardinal B-splines (smooth PME, default) or
    Lagrange polynomials (the original PME of Darden et al.; see
    :mod:`repro.pme.lagrange`).
    """
    if p < 2:
        raise ConfigurationError(f"interpolation order must be >= 2, got {p}")
    if K < p:
        raise ConfigurationError(
            f"mesh dimension K={K} must be at least the order p={p}")
    r = as_positions(positions)
    u = box.fractional(r, K)                     # (n, 3) in [0, K)
    base = np.floor(u).astype(np.intp)
    frac = u - base

    if kind == "bspline":
        w = [bspline_weights(frac[:, d], p) for d in range(3)]  # 3 x (n, p)
        j = np.arange(p, dtype=np.intp)
        idx = [np.mod(base[:, d][:, None] - j[None, :], K) for d in range(3)]
    elif kind == "lagrange":
        from .lagrange import lagrange_weights, lagrange_window_offsets
        w = [lagrange_weights(frac[:, d], p) for d in range(3)]
        j = lagrange_window_offsets(p)
        idx = [np.mod(base[:, d][:, None] + j[None, :], K) for d in range(3)]
    else:
        raise ConfigurationError(f"unknown interpolation kind {kind!r}")

    data = np.einsum("ia,ib,ic->iabc", w[0], w[1], w[2]).reshape(-1, p ** 3)
    cols = ((idx[0][:, :, None, None] * K + idx[1][:, None, :, None]) * K
            + idx[2][:, None, None, :]).reshape(-1, p ** 3)
    return data, cols


class InterpolationMatrix:
    """Precomputed interpolation matrix ``P`` for one particle configuration.

    Parameters
    ----------
    positions:
        Particle positions, shape ``(n, 3)``.
    box:
        Periodic box.
    K:
        Mesh dimension.
    p:
        B-spline order.

    kind:
        ``"bspline"`` (smooth PME, default) or ``"lagrange"`` (original
        PME interpolation).

    Notes
    -----
    Construction is step 1 of the paper's six-step reciprocal-space
    pipeline; :meth:`spread` is step 2 and :meth:`interpolate` step 6.
    """

    @positions_arg()
    def __init__(self, positions, box: Box, K: int, p: int,
                 kind: str = "bspline"):
        with obs.span("pme.build_p", K=int(K), p=int(p), kind=kind):
            data, cols = _weights_and_columns(positions, box, K, p,
                                              kind=kind)
            n = data.shape[0]
            self.n = n
            self.K = int(K)
            self.p = int(p)
            self.kind = kind
            indptr = np.arange(0, n * p ** 3 + 1, p ** 3, dtype=np.intp)
            #: The sparse ``n x K^3`` matrix (CSR).
            self.matrix = sp.csr_matrix(
                (data.ravel(), cols.ravel(), indptr), shape=(n, K ** 3))
            self._transpose = self.matrix.T.tocsr()
            #: int64 (indptr, indices, data) of ``P`` and ``P^T`` for the
            #: gather kernel, materialized on first batched product.
            self._kernel_arrays: dict[bool, tuple] = {}
        obs.set_gauge("pme_p_nnz", self.matrix.nnz)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Spread per-particle values onto the mesh: ``P^T values``.

        Parameters
        ----------
        values:
            Shape ``(n,)`` or ``(n, s)`` — one force component for each
            particle (and optionally ``s`` simultaneous vectors).

        Returns
        -------
        Mesh array of shape ``(K^3,)`` or ``(K^3, s)``.
        """
        return self._transpose @ values

    def interpolate(self, mesh_values: np.ndarray) -> np.ndarray:
        """Interpolate mesh values at the particle locations: ``P mesh``."""
        return self.matrix @ mesh_values

    @staticmethod
    def _operand(a: np.ndarray, axis: int, size: int, name: str
                 ) -> np.ndarray:
        """``a`` as a C-contiguous float64 2-D array with ``size``
        entries along ``axis``: the C kernel trusts these shapes, so a
        mismatch raises here."""
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[axis] != size:
            raise ConfigurationError(
                f"{name} must be 2-D with {size} entries on axis {axis}, "
                f"got shape {a.shape}")
        return a

    @staticmethod
    def _output(out: np.ndarray | None, shape: tuple[int, int]
                ) -> np.ndarray:
        if out is None:
            return np.empty(shape)
        if (out.shape != shape or out.dtype != np.float64
                or not out.flags.c_contiguous):
            raise ConfigurationError(
                f"out must be a C-contiguous float64 array of shape "
                f"{shape}, got {out.dtype} {out.shape}")
        return out

    def _gather_arrays(self, transpose: bool) -> tuple:
        """``(indptr, indices, data)`` of ``P^T`` (or ``P``) as the
        gather kernel takes them (cached; int64 copies only where SciPy
        chose 32-bit indices)."""
        arrays = self._kernel_arrays.get(transpose)
        if arrays is None:
            m = self._transpose if transpose else self.matrix
            arrays = (np.ascontiguousarray(m.indptr, dtype=np.int64),
                      np.ascontiguousarray(m.indices, dtype=np.int64),
                      m.data)
            self._kernel_arrays[transpose] = arrays
        return arrays

    def spread_batch(self, values: np.ndarray,
                     out: np.ndarray | None = None,
                     context=None) -> np.ndarray:
        """Spread a lane block to *batch-first* mesh layout.

        Parameters
        ----------
        values:
            Shape ``(n, B)`` — ``B`` lanes (components x vectors) of
            per-particle values.
        out:
            Optional preallocated ``(B, K^3)`` output (the batched
            pipeline reuses one across applications).
        context:
            Optional :class:`~repro.exec.ExecutionContext`; the mesh
            rows are split across its workers (``None``: one worker,
            inline).

        Returns
        -------
        ``(B, K^3)`` array: lane ``b`` is the C-contiguous mesh field
        ``P^T values[:, b]``, ready for a contiguous FFT.

        Notes
        -----
        With the C kernel each mesh row gathers its particles in
        ``P^T``'s stored order and writes its lanes straight into the
        batch-first output, bitwise equal to ``P^T @ values``.
        Without it, the SciPy product produces ``(K^3, B)`` (lane-last)
        and a chunked transpose bridges it to lane-first (one strided
        pass over the whole intermediate would thrash the TLB).
        """
        values = self._operand(values, 0, self.n, "values")
        k3, lanes = self.K ** 3, values.shape[1]
        out = self._output(out, (lanes, k3))
        kernel = gather_kernel()
        if kernel is None:
            gm = self._transpose @ values
            for lo in range(0, k3, 16384):
                hi = min(lo + 16384, k3)
                out[:, lo:hi] = gm[lo:hi].T
            return out
        indptr, indices, data = self._gather_arrays(transpose=True)

        def body(lo: int, hi: int) -> None:
            kernel(lo, hi, indptr, indices, data, values, lanes, 1, lanes,
                   out, k3)

        run_ranges(context, k3, body, stage="spread")
        return out

    def interpolate_batch(self, mesh_values: np.ndarray,
                          out: np.ndarray | None = None,
                          context=None) -> np.ndarray:
        """Interpolate a batch-first mesh block back to the particles.

        Parameters
        ----------
        mesh_values:
            Shape ``(B, K^3)`` — one C-contiguous mesh field per lane.
        out:
            Optional preallocated ``(B, n)`` output.
        context:
            Optional :class:`~repro.exec.ExecutionContext`; the particle
            rows of ``P`` are split across its workers.

        Returns
        -------
        ``(B, n)`` array with ``out[b] = P mesh_values[b]``.

        Notes
        -----
        The C kernel reads all lanes of each mesh point a particle
        touches; without it, one compiled SpMV per lane runs on the
        already-contiguous rows (SciPy's multi-vector product would
        first pay a full transposed copy).
        """
        k3 = self.K ** 3
        mesh_values = self._operand(mesh_values, 1, k3, "mesh_values")
        lanes = mesh_values.shape[0]
        out = self._output(out, (lanes, self.n))
        kernel = gather_kernel()
        if kernel is None:
            for lane in range(lanes):
                out[lane] = self.matrix @ mesh_values[lane]
            return out
        indptr, indices, data = self._gather_arrays(transpose=False)

        def body(lo: int, hi: int) -> None:
            kernel(lo, hi, indptr, indices, data, mesh_values, 1, k3, lanes,
                   out, self.n)

        run_ranges(context, self.n, body, stage="interpolate")
        return out

    @property
    def memory_bytes(self) -> int:
        """Bytes held by ``P`` (values + column indices + row pointers).

        The paper's model charges ``12 p^3 n`` bytes for ``P`` (8-byte
        values + 4-byte column indices); SciPy uses 8-byte indices so
        the actual figure is reported here.
        """
        m = self.matrix
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def spread_on_the_fly(positions, box: Box, K: int, p: int,
                      values: np.ndarray, chunk: int = 65536,
                      kind: str = "bspline") -> np.ndarray:
    """Spread without storing ``P`` (recomputes weights every call).

    This is the baseline of the Fig. 4 comparison: lower memory traffic
    per application but the ``O(p^3 n)`` weight computation is repeated
    for every vector.  Processes particles in chunks to bound the
    temporary memory.

    Parameters and return as :meth:`InterpolationMatrix.spread`.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.ndim == 1
    vals = values[:, None] if flat else values
    n, s = vals.shape
    out = np.zeros((K ** 3, s))
    r = as_positions(positions, n)
    with obs.span("pme.spread_otf", n=n, s=s):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            data, cols = _weights_and_columns(r[lo:hi], box, K, p, kind=kind)
            # scatter-add: multiple particles hit the same mesh points
            contrib = data[:, :, None] * vals[lo:hi, None, :]
            np.add.at(out, cols.ravel(),
                      contrib.reshape(-1, s))
    return out[:, 0] if flat else out


def interpolate_on_the_fly(positions, box: Box, K: int, p: int,
                           mesh_values: np.ndarray, chunk: int = 65536,
                           kind: str = "bspline") -> np.ndarray:
    """Interpolate without storing ``P`` (counterpart of
    :func:`spread_on_the_fly`)."""
    mesh_values = np.asarray(mesh_values, dtype=np.float64)
    flat = mesh_values.ndim == 1
    mv = mesh_values[:, None] if flat else mesh_values
    r = as_positions(positions)
    n = r.shape[0]
    out = np.empty((n, mv.shape[1]))
    with obs.span("pme.interpolate_otf", n=n, s=int(mv.shape[1])):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            data, cols = _weights_and_columns(r[lo:hi], box, K, p, kind=kind)
            out[lo:hi] = np.einsum("ie,ies->is", data, mv[cols],
                                   optimize=True)
    return out[:, 0] if flat else out
