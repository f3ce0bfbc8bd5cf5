"""Grid: multilinear interpolation against the per-axis corner loop."""

import numpy as np
import pytest

from pilotwave.errors import DomainError, ShapeError
from pilotwave.grid import Grid
from pilotwave.wavefunction import GridWaveFunction


def cell_positions(grid, configs):
    """Lower-corner indices and fractional offsets in the cell, both
    shaped (npts, ndim); the lower index clips to n - 2."""
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    grid.require_inside(configs)
    idx = np.empty(configs.shape, dtype=np.intp)
    frac = np.empty(configs.shape)
    for a in range(grid.ndim):
        pos = (configs[:, a] - grid.extents[a][0]) / grid.spacing[a]
        i = np.clip(np.floor(pos).astype(np.intp), 0, grid.points[a] - 2)
        idx[:, a] = i
        frac[:, a] = pos - i
    return idx, frac


def reference_corners(grid, configs):
    """Grid.corners by the generic route: the flat base index from
    np.ravel_multi_index, the strides from a cumulative product, and
    every corner's weight as a product started from ones."""
    idx, frac = cell_positions(grid, configs)
    npts = idx.shape[0]
    base = np.ravel_multi_index(tuple(idx.T), grid.points)
    strides = np.cumprod((1,) + grid.points[:0:-1])[::-1]
    out = []
    for corner in range(1 << grid.ndim):
        offset = 0
        w = np.ones(npts)
        for a in range(grid.ndim):
            if corner >> a & 1:
                offset += strides[a]
                w = w * frac[:, a]
            else:
                w = w * (1.0 - frac[:, a])
        out.append((base + offset, w))
    return out


def corner_loop(grid, values, configs):
    """Interpolation by fancy indexing with one index array per axis, in
    the same corner and weight order as Grid.interpolate."""
    idx, frac = cell_positions(grid, configs)
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


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_shared_corners_blend_bit_identical(name):
    """Two snapshots blended in time through one set of corners equal the
    blend of two independent interpolate calls."""
    grid = GRIDS[name]
    rng = np.random.default_rng(11)
    lo, hi = rng.standard_normal((2, 3) + grid.shape)
    pts = probe_points(grid, rng)
    w = 0.3
    corners = grid.corners(pts)
    shared = ((1 - w) * grid.interpolate(lo, pts, corners)
              + w * grid.interpolate(hi, pts, corners))
    apart = ((1 - w) * grid.interpolate(lo, pts)
             + w * grid.interpolate(hi, pts))
    np.testing.assert_array_equal(shared, apart)


LENGTHS = [(5,), (40,), (5, 40), (23, 7), (5, 6, 9), (11, 5, 17)]


@pytest.mark.parametrize("points", LENGTHS, ids=str)
def test_corners_bit_identical_to_the_generic_route(points):
    """Indices and weights of every corner equal the generic route's,
    at random points, every node and points on the upper faces."""
    rng = np.random.default_rng(len(points) * 100 + points[0])
    grid = Grid([(-1.0 - a, 0.7 + 2 * a) for a in range(len(points))],
                points)
    pts = probe_points(grid, rng)
    lean, generic = grid.corners(pts), reference_corners(grid, pts)
    assert len(lean) == len(generic) == 1 << grid.ndim
    for (index, w), (index_ref, w_ref) in zip(lean, generic):
        assert index.dtype == index_ref.dtype
        np.testing.assert_array_equal(index, index_ref)
        np.testing.assert_array_equal(w, w_ref)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_require_inside_refuses_a_point_outside(name):
    """`corners` tests no points; its callers do, with `require_inside`
    or `box.contains`.  A point just below a lower face is refused."""
    grid = GRIDS[name]
    pts = np.array([[e[0] for e in grid.extents]])
    pts[0, 0] -= 1e-9
    with pytest.raises(DomainError) as err:
        grid.require_inside(pts)
    assert err.value.coordinate == pts[0, 0]


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
def test_non_finite_coordinate_is_outside(name, bad):
    """NaN and +-inf in any column lie outside the extents: `interpolate`
    and a grid state's `evaluate` raise DomainError with the coordinate."""
    grid = GRIDS[name]
    psi = GridWaveFunction(grid, np.ones(grid.shape), [1.0])
    for a in range(grid.ndim):
        pts = np.array([[np.mean(e) for e in grid.extents]] * 2)
        pts[1, a] = bad
        for call in (lambda: grid.interpolate(psi.values, pts),
                     lambda: psi.evaluate(pts)):
            with pytest.raises(DomainError) as err:
                call()
            np.testing.assert_equal(err.value.coordinate, bad)


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("extra", [1, -1], ids=["too_many", "too_few"])
def test_wrong_column_count_is_a_shape_error(name, extra):
    """Configurations with more or fewer columns than the grid has axes
    raise ShapeError from `interpolate` and a grid state's `evaluate`."""
    grid = GRIDS[name]
    psi = GridWaveFunction(grid, np.ones(grid.shape), [1.0])
    centre = [np.mean(e) for e in grid.extents]
    pts = np.array([centre + [0.0]] if extra > 0 else [centre[:-1]])
    for call in (lambda: grid.interpolate(psi.values, pts),
                 lambda: psi.evaluate(pts)):
        with pytest.raises(ShapeError):
            call()
