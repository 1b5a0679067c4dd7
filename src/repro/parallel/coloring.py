"""Independent-set (8-color) scheduling of the spreading scatter-add.

Spreading is ``F = P^T f``: many particles accumulate into shared mesh
points, so naive parallelization races.  The paper's solution
(Section IV.B.2, Fig. 2): partition the mesh into cubic blocks of edge
at least ``p`` points, then group blocks into *independent sets* such
that no two blocks in a set are adjacent — 8 sets in 3D (one per
parity class of the block coordinates).  A particle writes only into
its own block and the preceding block per dimension, so particles from
distinct blocks of the same set can never touch the same mesh point,
and each of the 8 stages is embarrassingly parallel.

The requirement for correctness under periodic wrap-around is an
*even* number of blocks per dimension (else the first and last blocks
are adjacent but share parity); the constructor enforces it by merging
blocks when needed.

:class:`ColoredSpreader` executes the schedule on real data; the test
suite verifies it reproduces the sparse-matrix spreading and that the
per-set write footprints are disjoint — the property that makes the
schedule race-free on actual parallel hardware.

The PME pipeline does not use this schedule: it spreads in *gather*
form over the stored ``P^T`` (each mesh point sums its own particles,
:mod:`repro.pme.spread`), which has no write conflicts to color away.
The schedule remains as the artifact of the coloring ablation
(``benchmarks/bench_ablation_coloring.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..utils.validation import as_positions

__all__ = ["IndependentSetColoring", "ColoredSpreader"]


class IndependentSetColoring:
    """Partition of a ``K^3`` mesh into blocks and 8 independent sets.

    Parameters
    ----------
    K:
        Mesh dimension.
    p:
        B-spline order; blocks have edge >= ``p`` mesh points.
    """

    def __init__(self, K: int, p: int):
        if K < p:
            raise ConfigurationError(f"K={K} must be >= p={p}")
        self.K = int(K)
        self.p = int(p)
        nb = max(1, K // p)
        if nb > 1 and nb % 2 == 1:
            nb -= 1          # even block count per dim (periodic parity)
        self.blocks_per_dim = nb
        # block boundaries: nearly equal integer splits of [0, K)
        edges = np.linspace(0, K, nb + 1).astype(np.intp)
        self.block_edges = edges
        #: Number of distinct colors actually used (8, or fewer for tiny meshes).
        self.n_colors = 8 if nb >= 2 else 1

    def block_of(self, mesh_coord: np.ndarray) -> np.ndarray:
        """Block index per dimension for integer mesh coordinates."""
        return np.minimum(
            np.searchsorted(self.block_edges, mesh_coord, side="right") - 1,
            self.blocks_per_dim - 1)

    def color_of_particles(self, base: np.ndarray) -> np.ndarray:
        """Color (0..7) of particles whose spreading window *ends* at ``base``.

        ``base`` is the integer mesh coordinate ``floor(u)`` per
        dimension, shape ``(n, 3)``; the window covers
        ``base - p + 1 .. base``, which lies in the particle's block
        plus (at most) the preceding block — the containment the
        independence argument relies on.
        """
        base = np.asarray(base, dtype=np.intp)
        if self.n_colors == 1:
            return np.zeros(base.shape[0], dtype=np.intp)
        b = np.stack([self.block_of(base[:, d]) for d in range(3)], axis=1)
        parity = b & 1
        return (parity[:, 0] << 2) | (parity[:, 1] << 1) | parity[:, 2]

    def groups(self, positions, box: Box) -> list[np.ndarray]:
        """Particle index arrays, one per color."""
        r = as_positions(positions)
        u = box.fractional(r, self.K)
        base = np.floor(u).astype(np.intp)
        colors = self.color_of_particles(base)
        return [np.flatnonzero(colors == c) for c in range(self.n_colors)]


class ColoredSpreader:
    """Spreading executed color-by-color per the independent-set schedule.

    Functionally identical to ``P^T f`` (tested bit-for-bit); the value
    of the class is that within each color stage the writes of distinct
    blocks are provably disjoint, so a real multicore implementation
    runs each stage with plain (non-atomic) parallel writes.

    Parameters
    ----------
    positions, box, K, p:
        As for :class:`repro.pme.spread.InterpolationMatrix`.
    """

    def __init__(self, positions, box: Box, K: int, p: int):
        from ..pme.spread import _weights_and_columns
        self.K, self.p = int(K), int(p)
        self.coloring = IndependentSetColoring(K, p)
        self.n = as_positions(positions).shape[0]
        self._data, self._cols = _weights_and_columns(positions, box, K, p)
        self._groups = self.coloring.groups(positions, box)

    @property
    def n_colors(self) -> int:
        """Number of independent sets in the schedule."""
        return self.coloring.n_colors

    def color_footprints(self) -> list[np.ndarray]:
        """Unique mesh points written by each color (for disjointness tests
        at the block level use :meth:`block_footprints`)."""
        return [np.unique(self._cols[g]) for g in self._groups]

    def block_footprints(self, color: int) -> list[np.ndarray]:
        """Within one color, the mesh points written per block.

        These sets are pairwise disjoint — the race-freedom property.
        """
        group = self._groups[color]
        if group.size == 0:
            return []
        # recompute each particle's block id from its window end
        ends = self._cols[group][:, 0]  # first column = (base_x, base_y, base_z)
        bx = self.coloring.block_of(ends // (self.K * self.K))
        by = self.coloring.block_of((ends // self.K) % self.K)
        bz = self.coloring.block_of(ends % self.K)
        bid = (bx * self.coloring.blocks_per_dim + by) * \
            self.coloring.blocks_per_dim + bz
        return [np.unique(self._cols[group[bid == b]])
                for b in np.unique(bid)]

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Spread per-particle values onto the mesh in 8 color stages.

        Parameters and return as
        :meth:`repro.pme.spread.InterpolationMatrix.spread`.
        """
        values = np.asarray(values, dtype=np.float64)
        flat = values.ndim == 1
        vals = values[:, None] if flat else values
        out = np.zeros((self.K ** 3, vals.shape[1]))
        for group in self._groups:
            if group.size == 0:
                continue
            contrib = self._data[group][:, :, None] * vals[group][:, None, :]
            np.add.at(out, self._cols[group].ravel(),
                      contrib.reshape(-1, vals.shape[1]))
        return out[:, 0] if flat else out
