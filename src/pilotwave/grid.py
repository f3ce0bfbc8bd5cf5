"""Uniform rectangular grids over configuration space."""

import numpy as np

from .errors import ConfigurationError, DomainError

# Reject grids whose complex field storage would exceed this (bytes).
DEFAULT_MEMORY_BUDGET = 4 << 30


class Grid:
    """Uniform grid with per-axis extents [min, max] and point counts.

    The grid spans the full configuration space of the state that lives on
    it; for an N-particle state the axes are grouped per particle by the
    wavefunction, not by the grid itself.
    """

    def __init__(self, extents, points, memory_budget=DEFAULT_MEMORY_BUDGET):
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
        if total * 16 > memory_budget:
            raise ConfigurationError(
                f"grid of {total} points exceeds memory budget "
                f"({total * 16} > {memory_budget} bytes)")
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

    def interp_weights(self, configs):
        """Indices and fractional offsets for multilinear interpolation.

        Returns (idx, frac): integer lower-corner indices and fractional
        position in the cell, both shaped (npts, ndim).  Points must lie
        inside the extents.
        """
        configs = np.atleast_2d(np.asarray(configs, dtype=float))
        self.require_inside(configs)
        idx = np.empty(configs.shape, dtype=np.intp)
        frac = np.empty(configs.shape)
        for a in range(self.ndim):
            lo, _ = self.extents[a]
            pos = (configs[:, a] - lo) / self.spacing[a]
            i = np.clip(np.floor(pos).astype(np.intp), 0, self.points[a] - 2)
            idx[:, a] = i
            frac[:, a] = pos - i
        return idx, frac

    def interpolate(self, values, configs):
        """Multilinear interpolation of node values at configurations.

        values has shape (..., *grid.shape); leading axes are carried along.
        The grid axes are read as one flat axis: each of the 2^ndim cell
        corners is one `take` at the lower corner's flat index plus the
        corner's stride offset.
        """
        idx, frac = self.interp_weights(configs)
        npts = idx.shape[0]
        lead = values.shape[:values.ndim - self.ndim]
        flat = values.reshape(lead + (-1,))
        base = np.ravel_multi_index(tuple(idx.T), self.points)
        strides = np.cumprod((1,) + self.points[:0:-1])[::-1]
        out = np.zeros(lead + (npts,), dtype=values.dtype)
        for corner in range(1 << self.ndim):
            offset = 0
            w = np.ones(npts)
            for a in range(self.ndim):
                if corner >> a & 1:
                    offset += strides[a]
                    w = w * frac[:, a]
                else:
                    w = w * (1.0 - frac[:, a])
            out += np.take(flat, base + offset, axis=-1) * w
        return out
