"""Uniform rectangular grids over configuration space."""

from math import prod

import numpy as np

from .errors import ConfigurationError, DomainError

# Reject grids whose complex field storage would exceed this (bytes).
MEMORY_BUDGET = 4 << 30


class Grid:
    """Uniform grid with per-axis extents [min, max] and point counts.

    The grid spans the full configuration space of the state that lives on
    it; for an N-particle state the axes are grouped per particle by the
    wavefunction, not by the grid itself.
    """

    def __init__(self, extents, points):
        extents = tuple((float(lo), float(hi)) for (lo, hi) in extents)
        points = tuple(int(n) for n in points)
        if len(extents) != len(points):
            raise ConfigurationError("extents and points must have equal length")
        if not extents:
            raise ConfigurationError("grid needs at least one axis")
        for (lo, hi), n in zip(extents, points):
            if n < 2:
                raise ConfigurationError("each axis needs at least 2 points")
            if not hi > lo:
                raise ConfigurationError(f"empty axis interval [{lo}, {hi}]")
        total = int(np.prod(points, dtype=np.int64))
        if total * 16 > MEMORY_BUDGET:
            raise ConfigurationError(
                f"grid of {total} points exceeds memory budget "
                f"({total * 16} > {MEMORY_BUDGET} bytes)")
        self.extents = extents
        self.points = points
        self.ndim = len(points)
        self.spacing = tuple((hi - lo) / (n - 1)
                             for (lo, hi), n in zip(extents, points))
        self.axes = tuple(np.linspace(lo, hi, n)
                          for (lo, hi), n in zip(extents, points))
        self.shape = points

    def meshgrid(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def nodes(self):
        """Node coordinates, shape (npoints, ndim), in C order of the grid."""
        return np.stack([m.ravel() for m in self.meshgrid()], axis=-1)

    def cell_volume(self):
        return float(np.prod(self.spacing))

    def require_inside(self, config):
        config = np.asarray(config, dtype=float)
        for a, (lo, hi) in enumerate(self.extents):
            x = config[..., a]
            bad = (x < lo) | (x > hi)
            if np.any(bad):
                coord = float(np.asarray(x)[bad][0]) if np.ndim(x) else float(x)
                raise DomainError(
                    f"coordinate {coord} outside axis {a} extents [{lo}, {hi}]",
                    coordinate=coord)

    def corners(self, configs):
        """The 2^ndim cell corners of multilinear interpolation at configs:
        a list of (flat node index, weight) pairs, each shaped (npts,).

        Corner c takes the upper node along axis a when bit a of c is
        set.  Its weight multiplies, in axis order, the fractional
        position in the cell, or one minus it.  The lower index clips to
        n - 2, so a point on an upper face has fraction 1.  Points must
        lie inside the extents."""
        configs = np.atleast_2d(np.asarray(configs, dtype=float))
        self.require_inside(configs)
        base, out = 0, [(0, None)]
        for a, n in enumerate(self.points):
            stride = prod(self.points[a + 1:])
            # pos >= 0 inside the extents, so the cast is the floor
            pos = (configs[:, a] - self.extents[a][0]) / self.spacing[a]
            i = np.minimum(pos.astype(np.intp), n - 2)
            base = base + i * stride
            frac = pos - i
            lower = 1.0 - frac
            out = ([(off, lower if w is None else w * lower) for off, w in out]
                   + [(off + stride, frac if w is None else w * frac)
                      for off, w in out])
        return [(base + off, w) for off, w in out]

    def interpolate(self, values, configs, corners=None):
        """Multilinear interpolation of node values at configurations.

        values has shape (..., *grid.shape); leading axes are carried along.
        The grid axes are read as one flat axis: each of the 2^ndim cell
        corners is one `take` at its flat index.  `corners`, when given, is
        `corners(configs)`, computed once for several value arrays.
        """
        if corners is None:
            corners = self.corners(configs)
        lead = values.shape[:values.ndim - self.ndim]
        flat = values.reshape(lead + (-1,))
        out = np.zeros(lead + corners[0][0].shape, dtype=values.dtype)
        for index, w in corners:
            part = np.take(flat, index, axis=-1)
            part *= w
            out += part
        return out
