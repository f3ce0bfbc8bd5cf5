"""Grid: multilinear interpolation against the per-axis corner loop."""

import numpy as np
import pytest

from pilotwave.errors import DomainError
from pilotwave.grid import Grid


def corner_loop(grid, values, configs):
    """Interpolation by fancy indexing with one index array per axis, in
    the same corner and weight order as Grid.interpolate."""
    idx, frac = grid.interp_weights(configs)
    npts = idx.shape[0]
    lead = values.shape[:values.ndim - grid.ndim]
    out = np.zeros(lead + (npts,), dtype=values.dtype)
    for corner in range(1 << grid.ndim):
        sel = []
        w = np.ones(npts)
        for a in range(grid.ndim):
            if corner >> a & 1:
                sel.append(idx[:, a] + 1)
                w = w * frac[:, a]
            else:
                sel.append(idx[:, a])
                w = w * (1.0 - frac[:, a])
        out += values[(Ellipsis, *sel)] * w
    return out


GRIDS = {
    "1d": Grid([(-2.0, 3.0)], [17]),
    "2d": Grid([(-3.0, 3.0), (-1.0, 5.0)], [12, 7]),
    "3d": Grid([(0.0, 1.0), (-2.0, 2.0), (-1.0, 0.5)], [5, 6, 4]),
}


def probe_points(grid, rng):
    """Random interior points, every node, and points on the upper faces
    (where the lower index clips to n - 2 and frac = 1)."""
    lo = np.array([e[0] for e in grid.extents])
    hi = np.array([e[1] for e in grid.extents])
    inner = lo + (hi - lo) * rng.random((200, grid.ndim))
    nodes = np.stack([m.ravel() for m in grid.meshgrid()], axis=-1)
    faces = inner[:grid.ndim + 1].copy()
    for a in range(grid.ndim):
        faces[a, a] = hi[a]
    faces[grid.ndim] = hi
    return np.concatenate([inner, nodes, faces])


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_interpolate_bit_identical_to_corner_loop(name, lead, dtype):
    grid = GRIDS[name]
    rng = np.random.default_rng(7)
    values = rng.standard_normal(lead + grid.shape)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(lead + grid.shape)
    pts = probe_points(grid, rng)
    out = grid.interpolate(values, pts)
    assert out.shape == lead + (len(pts),)
    np.testing.assert_array_equal(out, corner_loop(grid, values, pts))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_interpolate_reproduces_node_values(name):
    grid = GRIDS[name]
    values = np.random.default_rng(3).standard_normal((2,) + grid.shape)
    nodes = np.stack([m.ravel() for m in grid.meshgrid()], axis=-1)
    np.testing.assert_allclose(grid.interpolate(values, nodes),
                               values.reshape(2, -1), rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_point_outside_raises(name):
    grid = GRIDS[name]
    pts = np.array([[e[1] for e in grid.extents]])
    pts[0, -1] += 1e-9
    with pytest.raises(DomainError):
        grid.interpolate(np.zeros(grid.shape), pts)
