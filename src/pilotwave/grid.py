"""Uniform rectangular grids over configuration space, and `Box`, the
package's one inside test: of a grid's extents, a velocity source's
domain and the sampler's box."""

from math import prod

import numpy as np

from .errors import ConfigurationError, DomainError

# Reject grids whose complex field storage would exceed this (bytes).
MEMORY_BUDGET = 4 << 30


class Box:
    """Domain lo <= x <= hi per axis; a bound may be infinite."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        # the comparisons `contains` makes, column by column: a bound of
        # -inf below or +inf above holds for every x but NaN, so it is
        # tested only where it is an axis's one NaN test
        self._tests = []
        for a, (lo_a, hi_a) in enumerate(zip(self.lo, self.hi)):
            if lo_a != -np.inf or hi_a == np.inf:
                self._tests.append((a, np.greater_equal, lo_a))
            if hi_a != np.inf:
                self._tests.append((a, np.less_equal, hi_a))

    def contains(self, configs):
        """Boolean mask of the configurations (n, d) inside the box: rows
        with every x in [lo, hi], so a row with a NaN is outside."""
        (a, test, bound), *rest = self._tests
        inside = test(configs[:, a], bound)
        for a, test, bound in rest:
            inside &= test(configs[:, a], bound)
        return inside

    def land(self, inside, outside):
        """Where each segment `inside` -> `outside` (n, d) first leaves the
        box; the crossed coordinate is set to its bound exactly."""
        d = outside - inside
        bound = np.where(outside < self.lo, self.lo, self.hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where((outside < self.lo) | (outside > self.hi),
                         (bound - inside) / d, np.inf)
        rows = np.arange(len(d))
        face = np.argmin(s, axis=1)
        out = np.clip(inside + s[rows, face][:, None] * d, self.lo, self.hi)
        out[rows, face] = bound[rows, face]
        return out


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
        self.box = Box(*zip(*extents))
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

    def require_inside(self, configs):
        """Raise DomainError unless every configuration (npts, ndim) lies
        inside the extents, by `box.contains`: a NaN coordinate is outside,
        and so is an infinite one.  The error's coordinate is the first
        offending coordinate of the first configuration outside."""
        configs = np.atleast_2d(np.asarray(configs, dtype=float))
        inside = self.box.contains(configs)
        if not inside.all():
            row = configs[np.argmin(inside)]
            for a, (lo, hi) in enumerate(self.extents):
                if not lo <= row[a] <= hi:
                    raise DomainError(f"coordinate {row[a]} outside axis {a} "
                                      f"extents [{lo}, {hi}]",
                                      coordinate=float(row[a]))

    def corners(self, configs):
        """The 2^ndim cell corners of multilinear interpolation at configs:
        a list of (flat node index, weight) pairs, each shaped (npts,).

        Corner c takes the upper node along axis a when bit a of c is
        set.  Its weight multiplies, in axis order, the fractional
        position in the cell, or one minus it.  The lower index clips to
        n - 2, so a point on an upper face has fraction 1.  The points
        must lie inside the extents and are not tested here: the caller
        has tested them, with `require_inside` or `box.contains`.  A
        point outside gives a wrong corner, or an index off the grid."""
        configs = np.atleast_2d(np.asarray(configs, dtype=float))
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
        `corners(configs)` of points already inside, computed once for
        several value arrays; otherwise configs are tested here, and one
        outside, NaN included, raises DomainError (`require_inside`).
        """
        if corners is None:
            self.require_inside(configs)
            corners = self.corners(configs)
        lead = values.shape[:values.ndim - self.ndim]
        flat = values.reshape(lead + (-1,))
        out = np.zeros(lead + corners[0][0].shape, dtype=values.dtype)
        for index, w in corners:
            part = np.take(flat, index, axis=-1)
            part *= w
            out += part
        return out
