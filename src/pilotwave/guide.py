"""Beable ensembles and trajectory integration.

Velocities come from v = j / rho.  Trajectories use fixed-step RK4 so a
given seed reproduces bit-identical results; adaptive stepping is
deliberately not offered.  Trajectories that hit a node of the
wavefunction (density below floor, velocity singular) are truncated and
reported with status ``node_encounter``; leaving the domain gives
``exited``.

A source's ``domain`` is a `Box`, or None for all of space.  A member
whose full RK4 step leaves the box stops where that step first crosses a
face, on the bound exactly; one whose intermediate stage probes outside
(NaN velocity) stops where the chord to the first such probe crosses a
face.  Both are ``exited``.  A NaN stage inside the domain also stops
the member, at its last position.

The node floor is the constant RHO_FLOOR_REL, relative to the wave at
the evaluated point, never to other members: a closed-form superposition
has a node where |psi|^2 <= RHO_FLOOR_REL * (sum_i |c_i phi_i|)^2, i.e.
where its terms cancel (which is also where Im(grad psi / psi) loses its
digits); a single closed-form term has no floor and is a node only where
the velocity is not finite, so a Gaussian tail is followed past the
point where rho = |psi|^2 underflows to 0, until psi itself does.  Grid
snapshots have no terms to compare against and use RHO_FLOOR_REL times
the largest snapshot density.

The ensemble sampler draws from |psi|^2 by rejection against a fitted
Gaussian (or uniform) envelope using the counter-based Philox generator,
so runs are reproducible across platforms from the recorded seed.
"""

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .currents import current, configuration_velocity, grid_current_nodes
from .errors import (NoFluxError, NotSeparatedError, PilotWaveError,
                     SamplerFailureError, ShapeError)
from .evolve import Propagator, propagate_to, step
from .grid import Grid
from .wavefunction import GridWaveFunction, grid_gradient

KS_CRITICAL_1PCT = 1.628  # sup|F_n - F| * sqrt(n) at the 1% level
RHO_FLOOR_REL = 1e-12

STATUS_OK = "ok"
STATUS_NODE = "node_encounter"
STATUS_EXITED = "exited"


def thread_count():
    """Worker cap from PILOTWAVE_THREADS (default: single-threaded)."""
    try:
        return max(1, int(os.environ.get("PILOTWAVE_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class BeableConfig:
    """One configuration of all particle beables."""
    positions: np.ndarray      # (n_particles, d)
    t: float = 0.0

    def flat(self):
        return np.asarray(self.positions, dtype=float).reshape(-1)


@dataclass(frozen=True)
class Ensemble:
    """Uniformly weighted collection of configurations plus its seed."""
    configs: np.ndarray        # (n, config_dim)
    seed: int
    t: float = 0.0

    def __len__(self):
        return self.configs.shape[0]


@dataclass
class TrajectoryRecord:
    times: np.ndarray          # (T,)
    configs: np.ndarray        # (T, config_dim)
    status: str


@dataclass(frozen=True)
class IntegrationControls:
    """RK4 step and recording stride.  A recorded run keeps every
    record_every-th step and the last one; a member that has stopped (at
    a node, the floor RHO_FLOOR_REL, or its source's domain) repeats its
    final position."""
    dt: float
    record_every: int = 1


# ---------------------------------------------------------------------------
# velocity sources


class Box:
    """Domain lo <= x <= hi per axis; a bound may be infinite."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def contains(self, configs):
        """Boolean mask of the configurations (n, d) inside the box."""
        return np.all((configs >= self.lo) & (configs <= self.hi), axis=1)

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


class ParametricVelocity:
    """Exact pointwise velocities from a closed-form state.

    Scalar states use the per-particle guidance velocity; spinor states
    use the full current (convective + spin) of the `currents` module.
    """

    def __init__(self, psi, spin=None, em=None):
        self.psi = psi
        self.spin = spin
        self.em = em
        self.domain = None

    def velocity(self, configs, t):
        psi = self.psi
        in_phase = psi.in_phase_density(configs, t)
        floor = 0.0 if in_phase is None else RHO_FLOOR_REL * in_phase
        if psi.spin_dim == 1:
            v, rho = configuration_velocity(psi, configs, t, rho_floor=floor)
            return v
        f = current(psi, self.spin, em=self.em, at=configs, t=t)
        d = configs.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = f.j[:, :d] / f.rho[:, None]
        v[~(f.rho > floor)] = np.nan
        return v


class SnapshotVelocity:
    """rho and j sampled on grids at snapshot times; multilinear in space
    and linear in time between snapshots.  `snapshots` is a time-ordered
    iterable of grid states, read once (only the stacked (rho, j) arrays
    are kept); `extra_j(state)` is added to each snapshot's current."""

    def __init__(self, snapshots, spin=None, em=None, extra_j=None):
        self.grid = None
        times, self.fields = [], []
        for s in snapshots:
            if self.grid is None:
                self.grid = s.grid
            elif s.grid.shape != self.grid.shape:
                raise ShapeError("snapshots on mismatched grids")
            j = (_config_current_nodes(s) if s.spin_dim == 1
                 else grid_current_nodes(s, spin, em))
            if extra_j is not None:
                j = j + extra_j(s)
            times.append(s.time)
            self.fields.append(np.concatenate([s.density_nodes()[None], j]))
        if not self.fields:
            raise ShapeError("need at least one snapshot")
        self.domain = Box(*zip(*self.grid.extents))
        self.times = np.array(times)
        if np.any(np.diff(self.times) <= 0):
            raise ShapeError("snapshots must be strictly time ordered")
        self.floor = RHO_FLOOR_REL * max(float(np.max(f[0])) for f in self.fields)

    def _pair(self, t):
        if t <= self.times[0]:
            return 0, 0, 0.0
        if t >= self.times[-1]:
            return len(self.times) - 1, len(self.times) - 1, 0.0
        hi = int(np.searchsorted(self.times, t, side="right"))
        lo = hi - 1
        w = (t - self.times[lo]) / (self.times[hi] - self.times[lo])
        return lo, hi, w

    def velocity(self, configs, t):
        inside = self.domain.contains(configs)
        v = np.full_like(np.asarray(configs, dtype=float), np.nan)
        if np.any(inside):
            pts = configs[inside]
            # interpolate at the points first, then blend in time
            lo, hi, w = self._pair(t)
            f = self.grid.interpolate(self.fields[lo], pts)
            if w:
                f = (1 - w) * f + w * self.grid.interpolate(self.fields[hi], pts)
            rho_p, j_p = f[0], f[1:]                 # j_p: (ndim, npts)
            vv = np.where(rho_p > self.floor, 1.0, np.nan)[None, :] * j_p \
                / np.where(rho_p > self.floor, rho_p, 1.0)[None, :]
            v[inside] = vv.T
        return v


def _config_current_nodes(psi):
    """Configuration-space current of a scalar grid state: per-axis
    (hbar / m_axis) Im(psi* d psi)."""
    grad = grid_gradient(psi.values[0], psi.grid)
    j = np.imag(psi.values[0].conj() * grad)
    for k, axes in enumerate(psi.particle_axes):
        for a in axes:
            j[a] *= psi.units.hbar / psi.masses[k]
    return j


def velocity_source(psi_or_snapshots, spin=None, em=None):
    """Build the appropriate velocity source for a state or snapshot list."""
    if isinstance(psi_or_snapshots, (list, tuple)):
        first = psi_or_snapshots[0]
        if first.representation == "grid":
            return SnapshotVelocity(list(psi_or_snapshots), spin=spin, em=em)
        return ParametricVelocity(first, spin=spin, em=em)
    if psi_or_snapshots.representation == "parametric":
        return ParametricVelocity(psi_or_snapshots, spin=spin, em=em)
    return SnapshotVelocity([psi_or_snapshots], spin=spin, em=em)


# ---------------------------------------------------------------------------
# sampling


def _probe_grid(box, per_axis):
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def sample_equilibrium(psi, n, seed, box=None, envelope="auto",
                       max_batches=2000):
    """Draw n i.i.d. configurations from |psi|^2 by rejection sampling.

    The envelope is fitted from the density's own moments on a probe
    grid: a Gaussian with inflated covariance, or a uniform box when the
    density is nearly flat.  Deterministic for a given seed (Philox).
    """
    if n < 1:
        raise ShapeError("n must be >= 1")
    if box is None:
        if psi.representation != "grid":
            raise ShapeError("parametric states need an explicit sampling box")
        box = psi.grid.extents
    box = [(float(lo), float(hi)) for lo, hi in box]
    dim = len(box)
    per_axis = {1: 512, 2: 128, 3: 33, 4: 17, 5: 11, 6: 9}.get(dim, 7)
    probes = _probe_grid(box, per_axis)
    rho_p = psi.density(probes)
    peak = float(np.max(rho_p))
    if not np.isfinite(peak) or peak <= 0:
        raise SamplerFailureError("density vanished on the probe grid")

    flat = float(np.min(rho_p)) / peak > 0.5
    rng = np.random.default_rng(np.random.Philox(seed))
    widths = np.array([hi - lo for lo, hi in box])
    los = np.array([lo for lo, _ in box])

    if envelope == "uniform" or (envelope == "auto" and flat):
        bound = peak * 1.05
        def draw(k):
            return los + widths * rng.random((k, dim))
        def env_density(x):
            return np.full(x.shape[0], 1.0 / np.prod(widths))
        c = bound * np.prod(widths)
    else:
        w = rho_p / np.sum(rho_p)
        mean = w @ probes
        dev = probes - mean
        cov = (dev * w[:, None]).T @ dev
        cov = cov * 1.8 + np.eye(dim) * 1e-12 * np.max(cov)
        chol = np.linalg.cholesky(cov)
        inv = np.linalg.inv(cov)
        logdet = np.linalg.slogdet(cov)[1]
        def draw(k):
            return mean + rng.standard_normal((k, dim)) @ chol.T
        def env_density(x):
            d = x - mean
            q = np.einsum("ni,ij,nj->n", d, inv, d)
            return np.exp(-0.5 * (q + logdet + dim * np.log(2 * np.pi)))
        c = float(np.max(rho_p / env_density(probes))) * 1.3

    out = np.empty((n, dim))
    got = 0
    proposed = 0
    batch = max(2048, 2 * n)
    for _ in range(max_batches):
        x = draw(batch)
        proposed += batch
        u = rng.random(batch)
        rho = np.zeros(batch)
        inside = np.all((x >= los) & (x <= los + widths), axis=1)
        if np.any(inside):
            rho[inside] = psi.density(x[inside])
        accept = u * c * env_density(x) < rho
        take = x[accept]
        k = min(len(take), n - got)
        out[got:got + k] = take[:k]
        got += k
        if got >= n:
            return Ensemble(configs=out, seed=seed, t=psi.time)
        if proposed >= 16384 and got / proposed < 1e-4:
            raise SamplerFailureError(
                f"acceptance rate {got / proposed:.2e} < 1e-4; retune envelope")
    raise SamplerFailureError("sampler exhausted its batch budget")


# ---------------------------------------------------------------------------
# trajectory integration


def _rk4_step(xa, source, t, h):
    """One RK4 step of the members xa: their new positions, and the masks
    of those that hit a node (not moved) and that left the domain."""
    def probe(stage, frac):
        # a NaN stage (node hit) must not poison the next stage's
        # evaluation point; the member is flagged via dx below
        return xa + frac * h * np.where(np.isfinite(stage), stage, 0.0)

    k1 = source.velocity(xa, t)
    p2 = probe(k1, 0.5)
    k2 = source.velocity(p2, t + 0.5 * h)
    p3 = probe(k2, 0.5)
    k3 = source.velocity(p3, t + 0.5 * h)
    p4 = probe(k3, 1.0)
    k4 = source.velocity(p4, t + h)
    dx = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    # NaN at the member's own point means a node; NaN only at an
    # intermediate stage means the step probed past the boundary.
    node = ~np.all(np.isfinite(k1), axis=1)
    moved = np.all(np.isfinite(dx), axis=1)
    new = np.where(moved[:, None], xa + dx, xa)
    domain = source.domain
    if domain is None:
        return new, ~moved, np.zeros_like(node)
    left = moved & ~domain.contains(new)
    if left.any():
        new[left] = domain.land(xa[left], new[left])
    stopped = ~moved & ~node
    if stopped.any():
        # land on the chord of the first stage probe that left the domain
        # (later probes are landed first, so the earliest one wins); a
        # member whose probes all stayed inside keeps its position
        rows = np.flatnonzero(stopped)
        for p in (p4, p3, p2):
            out = rows[~domain.contains(p[rows])]
            new[out] = domain.land(xa[out], p[out])
    return new, node, stopped | left


def _rk4_many(starts, source, t0, t_final, controls, record=False):
    x = np.array(starts, dtype=float)
    status = np.array([STATUS_OK] * len(x), dtype=object)
    active = np.ones(len(x), dtype=bool)
    nsteps = max(1, int(np.ceil((t_final - t0) / controls.dt - 1e-12)))
    h_last = (t_final - t0) - (nsteps - 1) * controls.dt
    times = [t0]
    track = [x.copy()] if record else None

    t = t0
    for istep in range(nsteps):
        h = controls.dt if istep < nsteps - 1 else h_last
        if active.any():
            idx = np.flatnonzero(active)
            new, node, exited = _rk4_step(x[idx], source, t, h)
            x[idx[~node]] = new[~node]
            status[idx[node]] = STATUS_NODE
            status[idx[exited]] = STATUS_EXITED
            active[idx[node | exited]] = False
        t = t + h
        if record and ((istep + 1) % controls.record_every == 0
                       or istep == nsteps - 1):
            times.append(t)
            track.append(x.copy())
    return x, status, (np.array(times), np.array(track)) if record else None


def integrate_trajectory(start, source, t_final, controls):
    """Integrate one beable configuration; returns a TrajectoryRecord."""
    t0 = start.t
    if not t_final > t0:
        raise ShapeError("t_final must exceed the start time")
    flat = start.flat()[None, :]
    _, status, (times, track) = _rk4_many(
        flat, source, t0, t_final, controls, record=True)
    return TrajectoryRecord(times=times, configs=track[:, 0, :], status=status[0])


def integrate_ensemble(ensemble, source, t_final, controls, record=False):
    """Propagate every member; embarrassingly parallel across members.

    Returns (final_configs, statuses) or (final, statuses, (times, track))
    when record is set.  Members go in at most PILOTWAVE_THREADS chunks of
    at least 4, gathered by member index, so the output does not depend on
    the worker count; a single chunk runs in the calling thread.
    """
    n = len(ensemble)
    chunks = np.array_split(np.arange(n), max(1, min(thread_count(), n // 4)))

    def work(idx):
        return _rk4_many(ensemble.configs[idx], source, ensemble.t, t_final,
                         controls, record=record)

    if len(chunks) == 1:
        final, status, rec = work(chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(work, chunks))
        final = np.concatenate([p[0] for p in parts])
        status = np.concatenate([p[1] for p in parts])
        rec = record and (parts[0][2][0],
                          np.concatenate([p[2][1] for p in parts], axis=1))
    return (final, status, rec) if record else (final, status)


# ---------------------------------------------------------------------------
# equivariance


def marginal_cdf_by_quadrature(psi, axis, box, per_axis=None):
    """CDF of the |psi|^2 marginal along one axis, by trapezoid quadrature
    over the remaining axes of the box."""
    dim = len(box)
    per_axis = per_axis or {1: 4001, 2: 801, 3: 101, 4: 61}.get(dim, 31)
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    rho = psi.density(pts).reshape([per_axis] * dim)
    other = [a for a in range(dim) if a != axis]
    for a in sorted(other, reverse=True):
        rho = np.trapezoid(rho, axes[a], axis=a)
    x = axes[axis]
    cdf = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) * np.diff(x) / 2)])
    if cdf[-1] <= 0:
        raise PilotWaveError("marginal mass vanished; box too small?")
    return x, cdf / cdf[-1]


def ks_statistic(samples, grid_x, cdf):
    samples = np.sort(samples)
    f = np.interp(samples, grid_x, cdf)
    n = len(samples)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(emp_hi - f), np.abs(f - emp_lo))))


def equivariance_check(psi0, propagator, n, t_check, seed=20250101, box=None,
                       spin=None, em=None, controls=None, n_snapshots=48,
                       velocity_scale=1.0):
    """Sample at t=0, co-propagate beables and wavefunction, and compare
    per-axis empirical CDFs at t_check against the |psi(t_check)|^2
    marginals computed by quadrature.  Pass iff every axis's KS statistic
    is below the 1% critical value 1.628/sqrt(n).

    velocity_scale multiplies the guidance velocities; anything other
    than 1 deliberately breaks equivariance (negative-control hook).
    """
    if n < 1000:
        raise ShapeError("equivariance check needs n >= 1e3")
    ens = sample_equilibrium(psi0, n, seed, box=box)
    if t_check == 0:
        final = ens.configs
        psi_t = psi0
    else:
        if propagator.method == "analytic":
            src = ParametricVelocity(psi0, spin=spin, em=em)
            psi_t = psi0.at_time(t_check)
        else:
            snaps = propagate_to(psi0, propagator, t_check,
                                 snapshot_times=list(
                                     np.linspace(psi0.time, t_check,
                                                 n_snapshots)))
            src = SnapshotVelocity(snaps, spin=spin, em=em)
            psi_t = snaps[-1]
        if velocity_scale != 1.0:
            src = _ScaledSource(src, velocity_scale)
        controls = controls or IntegrationControls(dt=(t_check - psi0.time) / 400)
        final, _ = integrate_ensemble(ens, src, t_check, controls)
    if box is None:
        box = psi0.grid.extents
    stats = []
    for axis in range(final.shape[1]):
        x, cdf = marginal_cdf_by_quadrature(psi_t, axis, box)
        stats.append(ks_statistic(final[:, axis], x, cdf))
    critical = KS_CRITICAL_1PCT / np.sqrt(n)
    return {"ks": stats, "critical": critical,
            "pass": bool(max(stats) < critical), "n": n, "t_check": t_check}


class _ScaledSource:
    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.domain = inner.domain

    def velocity(self, configs, t):
        return self.scale * self.inner.velocity(configs, t)


# ---------------------------------------------------------------------------
# arrival times


def arrival_time_stats(states, detector_point, spin, em=None, times=None):
    """Arrival-time distribution |j(x, t)| at a detector and its mean.

    `states` is either a list of time-stamped snapshots or a single
    parametric state together with explicit `times`.  The mean arrival
    time is int |j| t dt / int |j| dt by trapezoid quadrature over the
    snapshot times.
    """
    if not isinstance(states, (list, tuple)):
        if times is None:
            raise ShapeError("a single state needs explicit times")
        states = [states.at_time(t) for t in times]
    tgrid = np.array([s.time for s in states])
    if np.any(np.diff(tgrid) <= 0):
        raise ShapeError("snapshots must be strictly time ordered")
    det = np.atleast_2d(np.asarray(detector_point, dtype=float))
    jmag = np.empty(len(states))
    for i, s in enumerate(states):
        f = current(s, spin, em=em, at=det)
        jmag[i] = np.linalg.norm(f.j[0])
    total = np.trapezoid(jmag, tgrid)
    if total < 1e-12:
        raise NoFluxError(f"integrated flux {total:.2e} < 1e-12 at the detector")
    mean = np.trapezoid(jmag * tgrid, tgrid) / total
    return {"times": tgrid, "flux": jmag, "mean": float(mean), "total": float(total)}


# ---------------------------------------------------------------------------
# measurement branching


def measurement_branching(coefficients, packet_centers, n, seed=20250101,
                          packet_sigma=0.2, packet_k0=0.0, pointer_sigma=0.25,
                          pointer_mass=4.0, system_mass=50.0, coupling=12.0,
                          impulse_time=0.25, free_flight=0.15, grid_points=(256, 512),
                          overlap_tol=1e-6, impulse_substeps=24):
    """Von Neumann measurement on a 2-D (system x pointer) grid.

    The system starts in sum_i c_i phi_i(x) with phi_i Gaussian packets at
    the given centers; the pointer starts in its ready packet chi0(y).
    During the impulse the coupling Hamiltonian kappa a(x) p_y acts, with
    a(x) the channel index over the Voronoi cell of each packet, dragging
    the pointer to y ~ kappa T a_i in channel i.  Beables are sampled
    from |Psi|^2 at t=0 and integrated through the full evolution; the
    fraction ending in each pointer channel is reported next to the Born
    weights |c_i|^2.

    Raises NotSeparatedError when the pointer packets still overlap at
    read-out (inter-channel overlap integral above overlap_tol).
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    coefficients = coefficients / np.linalg.norm(coefficients)
    centers = np.asarray(packet_centers, dtype=float)
    k = len(centers)
    if len(coefficients) != k:
        raise ShapeError("one coefficient per channel packet")
    born = np.abs(coefficients) ** 2

    shift = coupling * impulse_time                      # per unit of a(x)
    # generous margins: the spectral evolution is periodic and the 1e-6
    # separation bound cannot tolerate wrapped Gaussian tails
    x_lo = centers.min() - 10 * packet_sigma
    x_hi = centers.max() + 10 * packet_sigma
    y_lo = -12 * pointer_sigma
    y_hi = shift * (k - 1) + 12 * pointer_sigma + 1e-9
    grid = Grid([(x_lo, x_hi), (y_lo, y_hi)], list(grid_points))
    xg, yg = grid.meshgrid()

    # branch i is c_i phi_i(x) chi0(y); the dynamics is linear, so only
    # the branches are propagated (for the separation check at read-out)
    # and the total wave is their sum
    chi0 = np.exp(-yg**2 / (4 * pointer_sigma**2))
    waves = [c * np.exp(-(xg - x0) ** 2 / (4 * packet_sigma**2)
                        + 1j * packet_k0 * xg) * chi0
             for c, x0 in zip(coefficients, centers)]
    norm = np.sqrt(np.sum(np.abs(sum(waves)) ** 2) * grid.cell_volume())
    branches = [GridWaveFunction(grid, w / norm, [system_mass, pointer_mass])
                for w in waves]

    def total():
        return branches[0].with_values(sum(b.values for b in branches))

    # channel label on the x axis: Voronoi cells of the packet centers
    edges = (centers[1:] + centers[:-1]) / 2
    drag = coupling * np.searchsorted(edges, grid.axes[0]).astype(float)[:, None]
    impulse = Propagator("split-step", impulse_time / impulse_substeps,
                         coupling=(1, drag))
    stages = [(impulse, impulse_substeps)]
    if free_flight > 0:
        nfree = max(4, impulse_substeps // 2)
        stages.append((Propagator("split-step", free_flight / nfree), nfree))

    psi0 = total()

    def snapshots():
        nonlocal branches
        yield psi0
        for prop, nsteps in stages:
            for _ in range(nsteps):
                branches = [step(b, prop) for b in branches]
                yield total()

    # pointer drift kappa a(x) rho along y while the coupling is on, up to
    # and including the snapshot that ends the impulse
    drift = np.array([0.0, 1.0])[:, None, None] * drag
    t_off = impulse_time * (1 + 1e-9)
    source = SnapshotVelocity(
        snapshots(),
        extra_j=lambda s: drift * s.density_nodes() if s.time <= t_off else 0.0)

    # read-out separation: pairwise Bhattacharyya overlap of branch waves
    mods = [np.abs(b.values[0]) for b in branches]
    for i, jdx in itertools.combinations(range(k), 2):
        ov = np.sum(mods[i] * mods[jdx]) / np.sqrt(
            np.sum(mods[i] ** 2) * np.sum(mods[jdx] ** 2))
        if ov > overlap_tol:
            raise NotSeparatedError(
                f"channels {i} and {jdx} overlap {ov:.2e} > {overlap_tol}")

    ens = sample_equilibrium(psi0, n, seed)
    controls = IntegrationControls(dt=impulse.dt / 4)
    t_read = impulse_time + max(free_flight, 0.0)
    final, status = integrate_ensemble(ens, source, t_read, controls)

    y_end = final[:, 1]
    windows = shift * np.arange(k)
    channel = np.argmin(np.abs(y_end[:, None] - windows[None, :]), axis=1)
    fractions = np.array([(channel == i).sum() for i in range(k)]) / n
    return {"fractions": fractions, "born": born, "n": n,
            "statuses": status, "readout_time": t_read,
            "channel_centers": windows}
