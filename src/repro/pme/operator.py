"""The composed matrix-free PME mobility operator (paper Algorithm 2, line 4).

``PMEOperator`` is the software object the paper calls "the PME
operator": built once per mobility update from a particle
configuration, then applied to many force vectors::

    u = PME(f) = mu0 * ( M_real f  +  M_recip f  +  M_self f )

* the real-space term is a BCSR SpMV (:mod:`repro.pme.realspace`),
* the reciprocal-space term is the six-step mesh pipeline of
  Section IV.A: spread (``P^T f``), forward r2c FFT, influence
  function, inverse FFT, interpolate (``P U``),
* the self term is carried on the diagonal blocks of the real-space
  matrix.

There is one pipeline for one vector or a block of them, with or
without an :class:`~repro.exec.ExecutionContext`: spreading gathers
rows of ``P^T`` and interpolation rows of ``P`` on the context's
workers, the stacked FFTs use ``workers=``-parallel :mod:`scipy.fft`,
and the real-space SpMM is chunked by block rows.  ``context=None``
runs the same stages on one worker, so results are bit-identical with
and without a context, at any worker count.

Each phase is timed into :class:`~repro.utils.timing.PhaseTimer` under
the names used by Fig. 5 (``spread``, ``fft``, ``influence``, ``ifft``,
``interpolate``, ``real``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..lint.contracts import force_block_arg, positions_arg
from ..units import FluidParams, REDUCED
from ..utils.params import keyword_only
from ..utils.timing import PhaseTimer
from ..utils.validation import as_force_block, as_positions
from .cache import MobilityCache
from .influence import InfluenceFunction
from .mesh import Mesh
from .realspace import RealSpaceOperator
from .spread import InterpolationMatrix, interpolate_on_the_fly, spread_on_the_fly

__all__ = ["PMEParams", "PMEOperator"]


@keyword_only
@dataclass(frozen=True)
class PMEParams:
    """The PME parameter set of the paper's Table III.

    Parameters
    ----------
    xi:
        Ewald splitting parameter (the paper's ``alpha``).
    r_max:
        Real-space cutoff distance.
    K:
        FFT mesh dimension (mesh is ``K^3``).
    p:
        Cardinal B-spline order (paper uses 4 or 6).
    """

    xi: float
    r_max: float
    K: int
    p: int = 6
    #: Interpolation scheme: ``"bspline"`` (smooth PME, default) or
    #: ``"lagrange"`` (the original PME of paper reference [6]).
    interpolation: str = "bspline"
    #: Hydrodynamic kernel: ``"rpy"`` (the paper) or ``"oseen"`` (the
    #: Stokeslet kernel of the related-work Stokesian PME codes).
    kernel: str = "rpy"

    def __post_init__(self) -> None:
        if self.xi <= 0:
            raise ConfigurationError(f"xi must be positive, got {self.xi}")
        if self.r_max <= 0:
            raise ConfigurationError(f"r_max must be positive, got {self.r_max}")
        if self.K < 2:
            raise ConfigurationError(f"K must be >= 2, got {self.K}")
        if self.p < 2:
            raise ConfigurationError(f"p must be >= 2, got {self.p}")
        if self.K < self.p:
            raise ConfigurationError(
                f"K={self.K} must be at least the spline order p={self.p}")
        if self.interpolation not in ("bspline", "lagrange"):
            raise ConfigurationError(
                f"unknown interpolation {self.interpolation!r}")
        if self.kernel not in ("rpy", "oseen"):
            raise ConfigurationError(f"unknown kernel {self.kernel!r}")


class PMEOperator:
    """Matrix-free periodic RPY mobility operator for one configuration.

    Parameters
    ----------
    positions:
        Particle positions, shape ``(n, 3)``.
    box:
        Periodic simulation box.
    params:
        PME parameters ``(xi, r_max, K, p)``.
    fluid:
        Fluid parameters; the returned velocities include the physical
        ``mu0`` prefactor.
    neighbor_backend:
        Pair-search backend for the real-space matrix.
    store_p:
        Precompute and reuse the interpolation matrix ``P`` (paper
        Section IV.A; the Fig. 4 optimization).  When false, spreading
        and interpolation recompute spline weights on the fly.
    cache:
        Optional :class:`~repro.pme.cache.MobilityCache`: reuses the
        position-independent state (mesh, influence function, batched
        workspaces) across operator rebuilds — the mobility-reuse
        optimization of Algorithm 2, where a fresh operator is built
        every ``lambda_RPY`` steps.
    context:
        Optional :class:`~repro.exec.ExecutionContext` whose workers
        run every stage of the pipeline; results are bit-identical at
        any worker count for a fixed kernel configuration.  ``None``
        (default) uses the process default from
        :func:`repro.exec.default_context`, which is ``None`` — one
        worker, inline — unless the runtime config selects the
        ``threads`` backend.

    Notes
    -----
    The operator is *frozen* to the positions it was built with —
    exactly like line 4 of Algorithm 2, which constructs the PME
    operator once per ``lambda_RPY`` steps.
    """

    @positions_arg()
    def __init__(self, positions, box: Box, params: PMEParams,
                 fluid: FluidParams = REDUCED, neighbor_backend: str = "cells",
                 store_p: bool = True, cache: MobilityCache | None = None,
                 context=None):
        from ..exec import default_context  # deferred: import cycle
        self.positions = as_positions(positions).copy()
        self.n = self.positions.shape[0]
        self.box = box
        self.params = params
        self.fluid = fluid
        self.cache = cache
        self.context = context if context is not None else default_context()
        self._exec_args = ({} if self.context is None
                           else self.context.span_args())
        self.mesh = (cache.mesh(box, params.K) if cache is not None
                     else Mesh(box, params.K))
        self.store_p = bool(store_p)
        self.timers = PhaseTimer(prefix="pme")
        #: Total number of operator applications (column counts included).
        self.n_applications = 0
        #: Batched-pipeline workspaces when no shared cache is set,
        #: keyed by lane count (allocated on first application).
        self._workspaces: dict[tuple[int, int, int], dict] = {}

        with self.timers.phase("construct_p", **self._exec_args):
            self.interp = (InterpolationMatrix(self.positions, box,
                                               params.K, params.p,
                                               kind=params.interpolation)
                           if store_p else None)
        if cache is not None:
            self.influence = cache.influence(
                self.mesh, params.xi, params.p, fluid.radius,
                interpolation=params.interpolation, kernel=params.kernel)
        else:
            self.influence = InfluenceFunction(
                self.mesh, params.xi, params.p, fluid.radius,
                interpolation=params.interpolation, kernel=params.kernel)
        with self.timers.phase("construct_real"):
            self.real = RealSpaceOperator(
                self.positions, box, params.xi, params.r_max, fluid=fluid,
                neighbor_backend=neighbor_backend, engine="bcsr",
                kernel=params.kernel)
        registry = obs.get_metrics()
        if registry is not None:
            self._record_build_metrics(registry)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Operator shape ``(3n, 3n)``."""
        return (3 * self.n, 3 * self.n)

    @force_block_arg()
    def apply(self, forces) -> np.ndarray:
        """``u = M f`` for ``f`` of shape ``(3n,)`` or ``(3n, s)``.

        The result includes the physical prefactor ``mu0`` and all three
        Ewald contributions.  Same pipeline as :meth:`apply_block`.
        """
        return self._apply(forces)

    def __call__(self, forces) -> np.ndarray:
        from ..core.mobility import reject_call_shim  # deferred: import cycle
        reject_call_shim(type(self).__name__)

    def _workspace(self, lanes: int) -> dict:
        """Batched-pipeline scratch arrays for ``lanes = 3 s``."""
        if self.cache is not None:
            return self.cache.workspace(self.params.K, lanes, self.n)
        key = (self.params.K, lanes, self.n)
        ws = self._workspaces.get(key)
        if ws is None:
            K = self.params.K
            ws = {
                "mesh": np.empty((lanes, K ** 3)),
                "spec": np.empty((lanes, K, K, K // 2 + 1),
                                 dtype=np.complex128),
                "particle": np.empty((lanes, self.n)),
            }
            self._workspaces[key] = ws
        return ws

    @force_block_arg()
    def apply_block(self, forces) -> np.ndarray:
        """Batched ``U = M F`` for a block ``F`` of shape ``(3n, s)``.

        Amortizes the whole reciprocal pipeline across the block (paper
        Sections IV.A-IV.C):

        * one gather-form spread for all ``3s`` mesh components,
          written batch-first (one C-contiguous mesh per lane),
        * a forward FFT into one persistent half-spectrum (r2c per
          lane, then one batched c2c pass over the two full axes), and
          a *stacked* inverse transform (one batched c2c pass over the
          two full axes + one batched c2r pass over the half axis),
        * the influence function applied slab-fused over all vectors
          (``khat``/scalar grids read once per slab, not once per
          vector),
        * one BCSR SpMM for the real-space term (each 3x3 block
          streamed once against all ``s`` lanes).

        Every stage splits across the attached context's workers
        (spread: mesh rows of ``P^T``; interpolate: particle rows of
        ``P``; FFTs: ``workers=``; SpMM: block rows); without a
        context the same stages run on one worker.  Workspaces come
        from the :class:`~repro.pme.cache.MobilityCache` when one is
        attached, so repeated block applications reuse them.
        """
        return self._apply(forces)

    def _apply(self, forces) -> np.ndarray:
        """Reciprocal + real + self terms times ``mu0`` (the one
        pipeline behind :meth:`apply` and :meth:`apply_block`)."""
        f, flat = as_force_block(forces, self.n)
        f = np.ascontiguousarray(f)
        s = f.shape[1]
        out = self._reciprocal(f)
        with self.timers.phase("real", vectors=s, **self._exec_args):
            out += self.real.apply_block(f, context=self.context)
        out *= self.fluid.mobility0
        self.n_applications += s
        obs.inc("pme_applications_total", s)
        return out[:, 0] if flat else out

    def _reciprocal(self, f: np.ndarray) -> np.ndarray:
        """Reciprocal-space term of a C-contiguous ``(3n, s)`` block in
        ``mu0`` units: spread, FFT, influence, iFFT, interpolate."""
        n, s = self.n, f.shape[1]
        K = self.params.K
        lanes = 3 * s                       # lane b = component*s + vector
        ws = self._workspace(lanes)
        ctx, xargs = self.context, self._exec_args
        workers = 1 if ctx is None else ctx.workers
        fm = f.reshape(n, lanes)

        with self.timers.phase("spread", vectors=s, **xargs):
            if self.interp is not None:
                g = self.interp.spread_batch(fm, out=ws["mesh"], context=ctx)
            else:
                g = ws["mesh"]
                g[...] = spread_on_the_fly(self.positions, self.box, K,
                                           self.params.p, fm,
                                           kind=self.params.interpolation).T

        with self.timers.phase("fft", vectors=s, **xargs):
            # r2c along the last axis lane by lane into the persistent
            # spectrum (a stacked rfftn would allocate a second
            # lanes x K^3 spectrum per call), then one stacked in-place
            # c2c over the two full axes.  pocketfft splits the
            # independent line transforms across workers, which is
            # bitwise deterministic in the worker count.
            half, gl = ws["spec"], g.reshape(lanes, K, K, K)
            for b in range(lanes):
                half[b] = sfft.rfft(gl[b], axis=-1, workers=workers)
            spec = sfft.fftn(half, axes=(1, 2), overwrite_x=True,
                             workers=workers)

        with self.timers.phase("influence", vectors=s, **xargs):
            self.influence.apply_batch(spec.reshape((3, s) + self.mesh.rshape))

        with self.timers.phase("ifft", vectors=s, **xargs):
            # decomposed inverse: batched c2c over the two full axes,
            # then one batched c2r transform on the half axis
            tmp = sfft.ifftn(spec, axes=(1, 2), overwrite_x=True,
                             workers=workers)
            u = sfft.irfft(tmp, n=K, axis=3, overwrite_x=True,
                           workers=workers).reshape(lanes, K ** 3)

        with self.timers.phase("interpolate", vectors=s, **xargs):
            if self.interp is not None:
                um = self.interp.interpolate_batch(u, out=ws["particle"],
                                                   context=ctx)
            else:
                um = interpolate_on_the_fly(self.positions, self.box, K,
                                            self.params.p, u.T,
                                            kind=self.params.interpolation).T
            return um.reshape(3, s, n).transpose(2, 0, 1).reshape(3 * n, s)

    def apply_real(self, forces) -> np.ndarray:
        """Real-space + self contribution in ``mu0`` units."""
        f, flat = as_force_block(forces, self.n)
        with self.timers.phase("real", **self._exec_args):
            out = self.real.apply_block(f, context=self.context)
        return out[:, 0] if flat else out

    def apply_reciprocal(self, forces) -> np.ndarray:
        """Reciprocal-space contribution in ``mu0`` units (the
        :meth:`apply_block` pipeline without the real-space term)."""
        f, flat = as_force_block(forces, self.n)
        out = self._reciprocal(np.ascontiguousarray(f))
        return out[:, 0] if flat else out

    # ------------------------------------------------------------------
    # adapters and accounting
    # ------------------------------------------------------------------

    def as_linear_operator(self) -> LinearOperator:
        """A :class:`scipy.sparse.linalg.LinearOperator` view of ``M``.

        Multi-vector products go through the batched
        :meth:`apply_block` fast path.
        """
        return LinearOperator(
            shape=self.shape, matvec=self.apply, matmat=self.apply_block,
            rmatvec=self.apply, dtype=np.float64)

    def to_dense(self) -> np.ndarray:
        """Densify by applying to the identity (tests / small n only)."""
        return self.apply(np.eye(3 * self.n))

    def memory_report(self) -> dict[str, int]:
        """Bytes held by each persistent component (Fig. 7a accounting)."""
        report = {
            "real_space_matrix": self.real.memory_bytes,
            "influence_function": self.influence.memory_bytes,
            "interpolation_matrix": (self.interp.memory_bytes
                                     if self.interp is not None else 0),
            # two K^3 x 3 float mesh arrays (forces and velocities)
            "mesh_arrays": 2 * 3 * 8 * self.params.K ** 3,
        }
        report["total"] = sum(report.values())
        return report

    def phase_breakdown(self) -> dict[str, float]:
        """Accumulated seconds per pipeline phase (Fig. 5 data)."""
        return self.timers.breakdown()

    def _record_build_metrics(self, registry) -> None:
        """Publish configuration + Section IV.D cost estimates.

        Gauges carry the *predicted* per-application byte/flop figures
        of the performance model so an exporter scrape (or ``repro
        profile``) can compare them against the measured phase times
        without re-deriving the model inputs.
        """
        from ..perfmodel.model import (
            fft_flops,
            influence_bytes,
            interpolation_bytes,
            pme_memory_bytes,
            spreading_bytes,
        )
        n, K, p = self.n, self.params.K, self.params.p
        registry.counter("pme_operators_built_total",
                         help="PME operator constructions "
                              "(one per mobility update)").inc()
        registry.gauge("pme_particles", help="particles n").set(n)
        registry.gauge("pme_mesh_dim", help="FFT mesh dimension K").set(K)
        registry.gauge("pme_interpolation_order",
                       help="interpolation order p").set(p)
        registry.gauge("pme_real_pairs",
                       help="pairs within r_max").set(self.real.n_pairs)
        bytes_gauge = registry.gauge
        predicted = {
            "spread": spreading_bytes(n, K, p),
            "influence": influence_bytes(K),
            "interpolate": interpolation_bytes(n, K, p),
        }
        for phase, nbytes in predicted.items():
            bytes_gauge("pme_predicted_bytes",
                        help="Eq. 10 per-application memory traffic",
                        phase=phase).set(nbytes)
        registry.gauge("pme_predicted_fft_flops",
                       help="Eq. 10 flops of the three (i)FFTs per "
                            "application").set(fft_flops(K))
        registry.gauge("pme_predicted_memory_bytes",
                       help="Eq. 11 persistent reciprocal-space "
                            "footprint").set(pme_memory_bytes(n, K, p))
        for component, nbytes in self.memory_report().items():
            registry.gauge("pme_memory_bytes",
                           help="measured bytes held per component",
                           component=component).set(nbytes)
