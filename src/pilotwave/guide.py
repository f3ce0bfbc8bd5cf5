"""Beable ensembles and trajectory integration.

Velocities come from v = j / rho, of a closed-form state
(`ParametricVelocity`) or of grid snapshots (`SnapshotVelocity`); the
velocity a coupling adds, such as the pointer drift of
`measurement_branching`, is added to j / rho while the coupling acts.
Trajectories use fixed-step RK4 so a given seed reproduces bit-identical
results; adaptive stepping is deliberately not offered.  Trajectories
that hit a node of the wavefunction (density below floor, velocity
singular) are truncated and reported with status ``node_encounter``;
leaving the domain gives ``exited``.

A source's ``domain`` is a `Box`, or None for all of space.  A member
whose full RK4 step leaves the box stops where that step first crosses a
face, on the bound exactly; one whose intermediate stage probes outside
(NaN velocity) stops where the chord to the first such probe crosses a
face.  Both are ``exited``.  A NaN stage inside the domain also stops
the member, at its last position.

The node floor is one rule, relative to the wave at the evaluated point
and never to other members: a closed-form state is at a node where
|psi|^2 <= RHO_FLOOR_REL (sum_i |c_i phi_i|)^2 summed over spin, i.e.
where its terms cancel (`configuration_velocity`).  A single term cannot
cancel, so only its underflow to 0 is a node; a single scalar term never
forms psi at all, and its velocity (hbar/m) grad S, S the phase of psi,
follows a Gaussian tail also where psi underflows.  Grid snapshots have
no terms to compare against and use RHO_FLOOR_REL times the largest
density of the snapshots held.

The ensemble sampler draws from |psi|^2 by rejection against a fitted
Gaussian (or uniform) envelope using the counter-based Philox generator,
so runs are reproducible across platforms from the recorded seed.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .currents import (RHO_FLOOR_REL, current, configuration_velocity,
                       grid_current_nodes)
from .errors import (ConfigurationError, NoFluxError, NotSeparatedError,
                     SamplerFailureError, ShapeError, StabilityError)
from .evolve import Propagator, propagate_to, step
from .grid import Box, Grid
from .wavefunction import GridWaveFunction

KS_CRITICAL_1PCT = 1.628  # sup|F_n - F| * sqrt(n) at the 1% level

STATUS_OK = "ok"
STATUS_NODE = "node_encounter"
STATUS_EXITED = "exited"

# fewest members per worker chunk in `integrate_ensemble`: below about
# 4,000-5,000 members a chunk spends its time in Python between small
# numpy calls, under the GIL, and two threads on two cores ran slower
# than one
MIN_CHUNK = 5000


def thread_count():
    """Worker cap from PILOTWAVE_THREADS, a positive integer; 1 when the
    variable is unset.  Any other value raises ConfigurationError."""
    raw = os.environ.get("PILOTWAVE_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigurationError(
            f"PILOTWAVE_THREADS={raw!r} is not a positive integer")
    return int(raw)


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
    final position.  dt must be positive: runs go forward in time."""
    dt: float
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise StabilityError("dt must be positive")


# ---------------------------------------------------------------------------
# velocity sources


class ParametricVelocity:
    """Exact pointwise velocities of a closed-form state: the guidance law
    `configuration_velocity` with the state's `spin` and `em`.  For a
    single scalar term that is (hbar/m) times its family's
    `phase_gradient`, real arithmetic that never evaluates psi."""

    def __init__(self, psi, spin=None, em=None):
        self.psi = psi
        self.spin = spin
        self.em = em
        self.domain = None

    def velocity(self, configs, t):
        return configuration_velocity(self.psi, configs, t, self.spin, self.em)


class SnapshotVelocity:
    """rho and j sampled on grids at snapshot times; multilinear in space
    and linear in time between snapshots.  `snapshots` is a time-ordered
    iterable of scalar grid states, read once: only each snapshot's
    density and `grid_current_nodes` current, stacked, are kept.
    `measurement_branching` holds two at a time, sliding them on
    interval by interval with `_advance`."""

    def __init__(self, snapshots, em=None):
        self.grid, self.em = None, em
        times, self.fields = [], []
        for s in snapshots:
            times.append(s.time)
            self.fields.append(self._field(s))
        if not self.fields:
            raise ShapeError("need at least one snapshot")
        self.domain = self.grid.box
        self._hold(times)

    def _field(self, s):
        """The snapshot s as one stacked array: its density, then its
        `grid_current_nodes` current."""
        if s.representation != "grid":
            raise ShapeError("snapshots must be grid states")
        if self.grid is None:
            self.grid = s.grid
        elif s.grid.shape != self.grid.shape:
            raise ShapeError("snapshots on mismatched grids")
        return np.concatenate(
            [s.density_nodes()[None], grid_current_nodes(s, None, self.em)])

    def _hold(self, times):
        """Take `times` as those of the fields held; the floor is
        RHO_FLOOR_REL times their largest density."""
        self.times = np.array(times)
        if np.any(np.diff(self.times) <= 0):
            raise ShapeError("snapshots must be strictly time ordered")
        self.floor = RHO_FLOOR_REL * max(float(np.max(f[0])) for f in self.fields)

    def _advance(self, snapshot):
        """Hold only the last snapshot and the next one, `snapshot`: the
        two that bracket one interval.  The older fields are dropped and
        the last one is kept as it is, so no field is built twice."""
        del self.fields[:-1]
        self.fields.append(self._field(snapshot))
        self._hold([self.times[-1], snapshot.time])

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
        """j / rho at configs (n, ndim), interpolated in space at the
        points, then blended linearly in time.  Rows outside the grid or
        at most the floor in rho are NaN.  When every row is inside,
        configs is interpolated as it is, and when every rho is above
        the floor, v is j / rho with no mask."""
        inside = self.domain.contains(configs)
        everywhere = inside.all()
        if not everywhere and not inside.any():
            return np.full_like(np.asarray(configs, dtype=float), np.nan)
        pts = configs if everywhere else configs[inside]
        # interpolate at the points first, then blend in time; both
        # snapshots share the cell corners
        lo, hi, w = self._pair(t)
        corners = self.grid.corners(pts)
        f = self.grid.interpolate(self.fields[lo], pts, corners)
        if w:
            f = (1 - w) * f + w * self.grid.interpolate(
                self.fields[hi], pts, corners)
        rho_p, j_p = f[0], f[1:]                     # j_p: (ndim, npts)
        above = rho_p > self.floor
        if above.all():
            vv = j_p / rho_p
        else:
            vv = (np.where(above, 1.0, np.nan) * j_p
                  / np.where(above, rho_p, 1.0))
        if everywhere:
            return vv.T
        v = np.full_like(np.asarray(configs, dtype=float), np.nan)
        v[inside] = vv.T
        return v


# ---------------------------------------------------------------------------
# sampling


def sample_equilibrium(psi, n, seed, box=None, envelope="auto"):
    """Draw n i.i.d. configurations from |psi|^2 by rejection sampling.

    The envelope is fitted from the density's own moments on a probe
    grid: a Gaussian with inflated covariance, or a uniform box when the
    density is nearly flat.  envelope="uniform" takes the box always;
    any value but "auto" and "uniform" raises ConfigurationError.  A
    density on one probe node raises SamplerFailureError.  Deterministic
    for a given seed (Philox).  Gives up after 2000 batches of
    max(2048, 2n) proposals.
    """
    if n < 1:
        raise ShapeError("n must be >= 1")
    if envelope not in ("auto", "uniform"):
        raise ConfigurationError(f"unknown envelope {envelope!r}")
    if box is None:
        if psi.representation != "grid":
            raise ShapeError("parametric states need an explicit sampling box")
        box = psi.grid.extents
    box = [(float(lo), float(hi)) for lo, hi in box]
    dim = len(box)
    per_axis = {1: 512, 2: 128, 3: 33, 4: 17, 5: 11, 6: 9}.get(dim, 7)
    probes = Grid(box, [per_axis] * dim).nodes()
    rho_p = psi.density(probes)
    peak = float(np.max(rho_p))
    if not np.isfinite(peak) or peak <= 0:
        raise SamplerFailureError("density vanished on the probe grid")

    flat = float(np.min(rho_p)) / peak > 0.5
    rng = np.random.default_rng(np.random.Philox(seed))
    widths = np.array([hi - lo for lo, hi in box])
    los = np.array([lo for lo, _ in box])
    domain = Box(los, los + widths)

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
        if not np.max(cov) > 0:
            raise SamplerFailureError("density on one probe node")
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
    for _ in range(2000):
        x = draw(batch)
        proposed += batch
        u = rng.random(batch)
        rho = np.zeros(batch)
        inside = domain.contains(x)
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


def _probe(xa, c, k):
    """The stage point xa + c k.  A NaN stage (node hit) counts as 0 so
    that it does not poison the next stage's evaluation point; the member
    is flagged via dx in `_rk4_step`."""
    finite = np.isfinite(k)
    if not finite.all():
        k = np.where(finite, k, 0.0)
    return xa + c * k


def _stages(xa, source, t, h, k1, probe):
    """The RK4 stages after k1, with their probe points formed by
    `probe`: (k2, k3, k4, p2, p3, p4)."""
    half = 0.5 * h
    p2 = probe(xa, half, k1)
    k2 = source.velocity(p2, t + half)
    p3 = probe(xa, half, k2)
    k3 = source.velocity(p3, t + half)
    p4 = probe(xa, h, k3)
    return k2, k3, source.velocity(p4, t + h), p2, p3, p4


def _rk4_step(xa, source, t, h):
    """One RK4 step of the members xa: their new positions, and None when
    no member stopped, else the masks of those that hit a node (not
    moved) and that left the domain.  The stage probes are plain
    xa + c k; only when dx is not finite (a finite dx means all four
    stages were) are the stages after k1 formed again through `_probe`,
    which keeps a NaN stage from poisoning the next probe, and the masks
    built.  They are also built when a member left the domain."""
    k1 = source.velocity(xa, t)
    k2, k3, k4, p2, p3, p4 = _stages(xa, source, t, h, k1,
                                     lambda x, c, k: x + c * k)
    dx = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    finite = np.isfinite(dx).all()
    if not finite:
        # the stages agree up to a member's first non-finite one, so the
        # same members have a non-finite dx
        k2, k3, k4, p2, p3, p4 = _stages(xa, source, t, h, k1, _probe)
        dx = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    new = xa + dx
    domain = source.domain
    if finite:
        if domain is None:
            return new, None
        inside = domain.contains(new)
        if inside.all():
            return new, None
        node = np.zeros(len(xa), bool)
        moved, left = ~node, ~inside
    else:
        # NaN at the member's own point means a node; NaN only at an
        # intermediate stage means the step probed past the boundary.
        node = ~np.isfinite(k1).all(axis=1)
        moved = np.isfinite(dx).all(axis=1)
        new[~moved] = xa[~moved]
        if domain is None:
            return new, (~moved, np.zeros_like(node))
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
    return new, (node, stopped | left)


def _rk4_schedule(span, dt):
    """(count, last step) of a fixed-step run over `span`: every step is
    dt but the last, which is at most dt and ends the run on span."""
    nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
    return nsteps, span - (nsteps - 1) * dt


def _rk4_many(starts, source, t0, t_final, controls, record=False):
    """RK4 of the members `starts` from t0 to t_final > t0: their final
    positions and statuses, and (times, track) when record is set.

    Every member starts ``ok`` and active.  While all of them are active
    the active set is the slice of every row, so a step reads and writes
    the positions without a gather or scatter; from the first stop on it
    is the index array of the members still going.  Statuses are written
    only on the steps at which some member stops; a stopped member keeps
    its final position (and repeats it in the track)."""
    if not t_final > t0:
        raise ShapeError("t_final must exceed the start time")
    x = np.array(starts, dtype=float)
    n = len(x)
    status = np.full(n, STATUS_OK, dtype=object)
    active, n_active = slice(None), n
    nsteps, h_last = _rk4_schedule(t_final - t0, controls.dt)
    every = controls.record_every
    if record:
        rows = 1 + nsteps // every + (nsteps % every > 0)
        times, track = np.empty(rows), np.empty((rows,) + x.shape)
        times[0], track[0] = t0, x
        row = 1

    t = t0
    for istep in range(nsteps):
        h = controls.dt if istep < nsteps - 1 else h_last
        if n_active:
            new, stops = _rk4_step(x[active], source, t, h)
            x[active] = new
            if stops is not None:
                node, exited = stops
                stop = node | exited
                ids = np.arange(n)[active]
                status[ids[node]] = STATUS_NODE
                status[ids[exited]] = STATUS_EXITED
                active = ids[~stop]
                n_active = len(active)
        t = t + h
        if record and ((istep + 1) % every == 0 or istep == nsteps - 1):
            times[row], track[row] = t, x
            row += 1
    return x, status, (times, track) if record else None


def integrate_trajectory(start, source, t_final, controls):
    """Integrate one beable configuration; returns a TrajectoryRecord."""
    _, status, (times, track) = _rk4_many(
        start.flat()[None, :], source, start.t, t_final, controls,
        record=True)
    return TrajectoryRecord(times=times, configs=track[:, 0, :], status=status[0])


def integrate_ensemble(ensemble, source, t_final, controls, record=False):
    """Propagate every member; embarrassingly parallel across members.

    Returns (final_configs, statuses) or (final, statuses, (times, track))
    when record is set.  Members go in at most PILOTWAVE_THREADS chunks of
    at least MIN_CHUNK, gathered by member index, so the output does not
    depend on the worker count; a single chunk runs in the calling thread.
    """
    n = len(ensemble)
    chunks = np.array_split(np.arange(n),
                            max(1, min(thread_count(), n // MIN_CHUNK)))

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


def marginal_cdf_by_quadrature(psi, axis, box):
    """CDF of the |psi|^2 marginal along one axis, by trapezoid quadrature
    over the remaining axes of the box; a box that holds no mass raises
    ConfigurationError."""
    dim = len(box)
    per_axis = {1: 4001, 2: 801, 3: 101, 4: 61}.get(dim, 31)
    grid = Grid(box, [per_axis] * dim)
    rho = psi.density(grid.nodes()).reshape(grid.shape)
    other = [a for a in range(dim) if a != axis]
    for a in sorted(other, reverse=True):
        rho = np.trapezoid(rho, grid.axes[a], axis=a)
    x = grid.axes[axis]
    cdf = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) * np.diff(x) / 2)])
    if cdf[-1] <= 0:
        raise ConfigurationError("marginal mass vanished; box too small?")
    return x, cdf / cdf[-1]


def ks_statistic(samples, grid_x, cdf):
    samples = np.sort(samples)
    f = np.interp(samples, grid_x, cdf)
    n = len(samples)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(emp_hi - f), np.abs(f - emp_lo))))


def equivariance_check(psi0, propagator, n, t_check, seed=20250101, box=None):
    """Sample at t=0, co-propagate beables and wavefunction, and compare
    per-axis empirical CDFs at t_check against the |psi(t_check)|^2
    marginals computed by quadrature.  Pass iff every axis's KS statistic
    is below the 1% critical value 1.628/sqrt(n).  The beables take 400
    RK4 steps; a grid state is sampled at 48 snapshot times.
    """
    if n < 1000:
        raise ShapeError("equivariance check needs n >= 1e3")
    ens = sample_equilibrium(psi0, n, seed, box=box)
    if t_check == 0:
        final = ens.configs
        psi_t = psi0
    else:
        if propagator.method == "analytic":
            src = ParametricVelocity(psi0)
            psi_t = psi0.at_time(t_check)
        else:
            snaps = propagate_to(psi0, propagator, t_check,
                                 snapshot_times=list(
                                     np.linspace(psi0.time, t_check, 48)))
            src = SnapshotVelocity(snaps)
            psi_t = snaps[-1]
        controls = IntegrationControls(dt=(t_check - psi0.time) / 400)
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


# ---------------------------------------------------------------------------
# arrival times


def arrival_time_stats(psi, detector_point, spin, times, em=None):
    """Arrival-time distribution |j(x, t)| at a detector and its mean.

    psi is a closed-form state, its current taken at each of the strictly
    increasing `times`.  The mean arrival time is int |j| t dt / int |j| dt
    by trapezoid quadrature over those times.
    """
    tgrid = np.array(times, dtype=float)
    if np.any(np.diff(tgrid) <= 0):
        raise ShapeError("times must be strictly increasing")
    det = np.atleast_2d(np.asarray(detector_point, dtype=float))
    jmag = np.array([np.linalg.norm(current(psi, spin, em=em, at=det, t=t).j[0])
                     for t in tgrid])
    total = np.trapezoid(jmag, tgrid)
    if total < 1e-12:
        raise NoFluxError(f"integrated flux {total:.2e} < 1e-12 at the detector")
    mean = np.trapezoid(jmag * tgrid, tgrid) / total
    return {"times": tgrid, "flux": jmag, "mean": float(mean), "total": float(total)}


# ---------------------------------------------------------------------------
# measurement branching

# the measurement model: packet widths and masses, and the impulse
PACKET_SIGMA, SYSTEM_MASS = 0.2, 50.0
POINTER_SIGMA, POINTER_MASS = 0.25, 4.0
IMPULSE_TIME, IMPULSE_SUBSTEPS = 0.25, 24


def _channel(x, centers):
    """a(x): the index of the packet whose Voronoi cell holds each x."""
    return np.searchsorted((centers[1:] + centers[:-1]) / 2, x)


class _PointerDrift:
    """`inner`'s velocity plus kappa a(x) e_y, the drift of kappa a(x) p_y."""

    def __init__(self, inner, centers, coupling):
        self.inner, self.centers, self.coupling = inner, centers, coupling
        self.domain = inner.domain

    def velocity(self, configs, t):
        v = self.inner.velocity(configs, t)
        v[:, 1] += self.coupling * _channel(configs[:, 0], self.centers)
        return v


def _nearest_window(y, windows):
    """Index of the pointer window nearest to each y: the read-out rule."""
    return np.argmin(np.abs(y[:, None] - windows[None, :]), axis=1)


def measurement_branching(coefficients, packet_centers, n, seed=20250101,
                          coupling=12.0, free_flight=0.15, grid_points=(256, 512)):
    """Von Neumann measurement on a 2-D (system x pointer) grid.

    The system starts in sum_i c_i phi_i(x), phi_i Gaussian packets at rest
    at the centers c_i; the pointer starts in its ready packet chi0(y).
    Up to T = IMPULSE_TIME the coupling kappa a(x) p_y acts, a(x) = i on
    packet i's Voronoi cell; free flight follows.  The split-step
    snapshots of Psi give j / rho, and the coupling adds the velocity
    kappa a(x) along y while it is on.  Beables sampled from |Psi|^2 are
    integrated interval by interval alongside the split step: each step
    yields the next snapshot, whose density and current are built once,
    and the members still ``ok`` run by RK4 across that one interval,
    guided by the two snapshots that bracket it.  The older one is then
    dropped, so two snapshots are held at a time.  The drift acts on the
    impulse intervals only, so it stops at T, on an RK4 step boundary;
    the interval ends are exact, so the impulse ends at T and the
    read-out is at T + free_flight.  Each packet keeps to its cell, so a
    member starting at (x0, y0) in cell i follows Bohm's impulsive
    measurement (Phys. Rev. 85, 180 (1952), Part II, section 2) in
    closed form,

        x(t) = c_i + (x0 - c_i) s_x(t) / s_x(0)
        y(t) = kappa i min(t, T) + y0 s_y(t) / s_y(0)
        s(t) = s sqrt(1 + (t / (2 m s^2))^2)

    with the system's width and mass on x and the pointer's on y.  Each
    beable is read out in the window y = kappa T i nearest its final y;
    the fraction in each channel is reported next to the Born weights
    |c_i|^2, with every member's ``starts`` and ``endpoints``.

    Raises NotSeparatedError after the run, when n (leak + misread) >= 1,
    i.e. when at least one beable is expected in the wrong channel.  leak
    is the Born-weighted share of each packet's |phi_i(x)|^2 at t=0 that
    lies outside its own cell (a(x) drags it to another window); misread
    is the |Psi|^2 mass at read-out in each cell i that lies nearer
    another window than window i.  For centers (-1, 1), equal weights and the
    other defaults, leak is 2.8e-7 and misread 1.8e-6, so the check
    raises from n ~ 480,000.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    coefficients = coefficients / np.linalg.norm(coefficients)
    centers = np.asarray(packet_centers, dtype=float)
    k = len(centers)
    if len(coefficients) != k:
        raise ShapeError("one coefficient per channel packet")
    born = np.abs(coefficients) ** 2

    shift = coupling * IMPULSE_TIME                      # per unit of a(x)
    windows = shift * np.arange(k)
    # generous margins: the spectral evolution is periodic, and wrapped
    # Gaussian tails must stay far below the separation check
    x_lo = centers.min() - 10 * PACKET_SIGMA
    x_hi = centers.max() + 10 * PACKET_SIGMA
    y_lo = -12 * POINTER_SIGMA
    y_hi = shift * (k - 1) + 12 * POINTER_SIGMA + 1e-9
    grid = Grid([(x_lo, x_hi), (y_lo, y_hi)], list(grid_points))
    x, y = grid.axes

    cell = _channel(x, centers)
    drag = coupling * cell.astype(float)[:, None]
    # Psi = sum_i c_i phi_i(x) chi0(y); a(x) is diagonal in x, so channel
    # i's branch is Psi restricted to cell i and one wave carries them all
    phis = np.exp(-(x - centers[:, None]) ** 2 / (4 * PACKET_SIGMA**2))
    psi0 = GridWaveFunction(
        grid, np.outer(coefficients @ phis, np.exp(-y**2 / (4 * POINTER_SIGMA**2))),
        [SYSTEM_MASS, POINTER_MASS]).normalized()

    impulse = Propagator("split-step", IMPULSE_TIME / IMPULSE_SUBSTEPS,
                         coupling=(1, drag))
    props = [impulse] * IMPULSE_SUBSTEPS
    t_read = IMPULSE_TIME + max(free_flight, 0.0)
    # the RK4 clock: interval ends set exactly, not accumulated step by step
    clock = np.linspace(0.0, IMPULSE_TIME, IMPULSE_SUBSTEPS + 1)
    if free_flight > 0:
        nfree = IMPULSE_SUBSTEPS // 2
        props += [Propagator("split-step", free_flight / nfree)] * nfree
        clock = np.concatenate(
            [clock, np.linspace(IMPULSE_TIME, t_read, nfree + 1)[1:]])

    ens = sample_equilibrium(psi0, n, seed)
    final = np.array(ens.configs)
    status = np.full(n, STATUS_OK, dtype=object)
    controls = IntegrationControls(dt=impulse.dt / 4)
    source = SnapshotVelocity([psi0])
    drift = _PointerDrift(source, centers, coupling)
    state = psi0
    for prop, t0, t1 in zip(props, clock[:-1], clock[1:]):
        state = step(state, prop)
        source._advance(state)
        ok = np.flatnonzero(status == STATUS_OK)
        final[ok], status[ok] = integrate_ensemble(
            Ensemble(configs=final[ok], seed=seed, t=t0),
            drift if prop is impulse else source, t1, controls)

    dens = phis ** 2
    outside = cell != np.arange(k)[:, None]
    leak = born @ (np.sum(dens * outside, axis=1) / np.sum(dens, axis=1))
    rho = source.fields[-1][0]                          # |Psi|^2 at read-out
    misread = (np.sum(rho[cell[:, None] != _nearest_window(y, windows)])
               / np.sum(rho))
    expected = n * (leak + misread)
    if expected >= 1:
        raise NotSeparatedError(
            f"{expected:.3g} of {n} beables expected in the wrong channel "
            f"(leak {leak:.2e}, misread {misread:.2e})")

    channel = _nearest_window(final[:, 1], windows)
    fractions = np.array([(channel == i).sum() for i in range(k)]) / n
    return {"fractions": fractions, "born": born, "n": n,
            "statuses": status, "readout_time": t_read,
            "channel_centers": windows, "starts": ens.configs,
            "endpoints": final}
