"""Decaying two-particle systems and the optical-imaging experiment.

A system decaying at rest has fragments with (nearly) opposite momenta;
the pair wavefunction depends only on the separation x1 - x2, beables
depart near each other and travel along straight opposite lines while
the place of departure varies run to run.  A thin lens downstream then
maps the post-detection collapsed wave of the far fragment into a
converging wave focused at the image point, which is how detection of
one fragment localizes its partner (optical / ghost imaging).

Also here: the variance growth and peak-alignment analysis of the pair
distribution, the small/large-time angular-deviation estimates with the
transition distance, and the energy-shell density built from Bessel
functions (the degenerate strict-shell case has identically zero
currents, which is why a finite energy width is kept everywhere else).
"""

import numpy as np
from dataclasses import dataclass

from .bessel import j1
from .errors import ConfigurationError, PhysicsError, ShapeError
from .grid import Grid
from .guide import (STATUS_EXITED, BeableConfig, Box, Ensemble,
                    IntegrationControls, ParametricVelocity,
                    integrate_ensemble, integrate_trajectory, _rk4_clock,
                    sample_equilibrium)
from .wavefunction import ParametricWaveFunction

# stride of the imaging tracks; lens hits and endpoints do not depend on it
IMAGING_RECORD_EVERY = 4


@dataclass(frozen=True)
class DecayPairSpec:
    """Scale parameters of the decaying pair in three dimensions: the
    initial-separation scale alpha and the two fragment masses."""
    alpha: float
    m1: float
    m2: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigurationError("alpha must be positive")
        if self.m1 <= 0 or self.m2 <= 0:
            raise ConfigurationError("masses must be positive")

    @property
    def mu(self):
        return self.m1 * self.m2 / (self.m1 + self.m2)


@dataclass(frozen=True)
class LensSpec:
    """Thin lens: 1/S + 1/S' = 1/f; any one of S, S' may be derived.
    The waist w is the post-lens converging-Gaussian focus width."""
    f: float
    S: float = None
    S_image: float = None
    waist: float = 0.05

    def __post_init__(self):
        if not self.f > 0:
            raise ConfigurationError("focal length must be positive")
        s, si = self.S, self.S_image
        if s is None and si is None:
            raise ConfigurationError("give S or S_image (or both)")
        if s is None:
            s = 1.0 / (1.0 / self.f - 1.0 / si)
        if si is None:
            si = 1.0 / (1.0 / self.f - 1.0 / s)
        if abs(1.0 / s + 1.0 / si - 1.0 / self.f) > 1e-12 * (1.0 / self.f):
            raise ConfigurationError("S, S' and f violate the thin-lens equation")
        if s <= 0 or si <= 0:
            raise ConfigurationError("object/image distances must be positive")
        object.__setattr__(self, "S", float(s))
        object.__setattr__(self, "S_image", float(si))
        if not self.waist > 0:
            raise ConfigurationError("waist must be positive")


@dataclass(frozen=True)
class EnergyShellSpec:
    """Energy window [E_minus, E_plus] of the decaying system.

    a_pm = 2 pi sqrt(2 mu E_pm) / hbar; with equal fragment masses
    2 mu = m.  Lengths are reported in units of the Compton wavelength
    lambda_c = 2 pi hbar / (m c) (so hbar = c = m = 1 makes
    lambda_c = 2 pi)."""
    e_plus: float
    e_minus: float
    mass: float = 1.0

    def __post_init__(self):
        if not (0 < self.e_minus < self.e_plus):
            raise ConfigurationError("need 0 < E_minus < E_plus")
        if self.mass <= 0:
            raise ConfigurationError("mass must be positive")

    @property
    def a_plus(self):
        """In units of 1/lambda_c."""
        return 4 * np.pi**2 * np.sqrt(self.e_plus / self.mass)

    @property
    def a_minus(self):
        return 4 * np.pi**2 * np.sqrt(self.e_minus / self.mass)


def pair_wavefunction(spec, t=0.0):
    """The closed-form pair state, a registered parametric state on
    (x1, x2) in 3-D:

    psi = (pi hbar / beta)^{d/2} exp(-(x1 - x2)^2 / (4 hbar beta)),
    beta = alpha + i t / 2 mu."""
    return ParametricWaveFunction(
        "decaying_pair",
        {"alpha": spec.alpha, "m1": spec.m1, "m2": spec.m2, "d": 3},
        [spec.m1, spec.m2], time=t)


def pair_closed_form(spec, start1, start2, times):
    """Exact trajectories x1(t) = c1 + c2 sqrt(t^2/4mu^2 + alpha^2) and
    x2(t) = c1 - c2' sqrt(...), with the constants fixed by the start
    point (m1 c2 = m2 c2', so the weighted center of mass never moves).

    Returns (x1, x2) arrays shaped (len(times), d)."""
    start1 = np.asarray(start1, dtype=float)
    start2 = np.asarray(start2, dtype=float)
    m1, m2, mu, alpha = spec.m1, spec.m2, spec.mu, spec.alpha
    com = (m1 * start1 + m2 * start2) / (m1 + m2)
    r0 = start1 - start2
    times = np.asarray(times, dtype=float)
    s = np.sqrt(times**2 / (4 * mu**2) + alpha**2)[:, None]
    r = r0[None, :] / alpha * s
    x1 = com[None, :] + (m2 / (m1 + m2)) * r
    x2 = com[None, :] - (m1 / (m1 + m2)) * r
    return x1, x2


def pair_trajectories(spec, start1, start2, times):
    """Numerically integrated pair trajectories from t = 0 to
    t_final = times[-1], in RK4 steps of max(t_final / 2000, 1e-6), next
    to the closed form.  Only times[0], which must be 0, and times[-1] are
    read: the record is on the RK4 step clock, not on `times`.

    Returns dict with the trajectory record, the analytic (x1, x2) at the
    record's times, and the worst relative deviation between them."""
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ShapeError("time grid must start at the decay time 0")
    psi = pair_wavefunction(spec)
    src = ParametricVelocity(psi)
    start = BeableConfig(positions=np.stack([np.atleast_1d(start1),
                                             np.atleast_1d(start2)]))
    dt = max(times[-1] / 2000, 1e-6)
    rec = integrate_trajectory(start, src, float(times[-1]),
                               IntegrationControls(dt=dt))
    x1_exact, x2_exact = pair_closed_form(spec, start1, start2, rec.times)
    numeric = rec.configs.reshape(len(rec.times), 2, 3)
    exact = np.stack([x1_exact, x2_exact], axis=1)
    scale = np.max(np.abs(exact))
    dev = float(np.max(np.abs(numeric - exact))) / max(scale, 1e-300)
    return {"record": rec, "x1_exact": x1_exact, "x2_exact": x2_exact,
            "max_rel_error": dev}


# ---------------------------------------------------------------------------
# variance evolution and alignment


@dataclass(frozen=True)
class MomentumCorrelationSpec:
    """Momentum distribution of the fragments in one dimension: a Gaussian
    total-momentum factor exp(-(p1+p2)^2 / sigma) times the pair's
    relative factor.

    The position-space state is the correlated_pair family with
    center-of-mass width sigma_x = hbar / sqrt(2 sigma), so that
    Var(p1 + p2) = sigma / 2."""
    sigma: float
    alpha: float
    m1: float
    m2: float

    def __post_init__(self):
        if self.sigma <= 0 or self.alpha <= 0:
            raise ConfigurationError("sigma and alpha must be positive")

    @property
    def mu(self):
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @property
    def sigma_x(self):
        return 1.0 / np.sqrt(2.0 * self.sigma)

    def state(self):
        return ParametricWaveFunction(
            "correlated_pair",
            {"alpha": self.alpha, "sigma_x": self.sigma_x, "m1": self.m1,
             "m2": self.m2, "d": 1},
            [self.m1, self.m2])


def _momentum_variance(spec):
    """Var(p1 + p2) of `spec.state()` (see `MomentumCorrelationSpec`)."""
    return spec.sigma / 2


def _position_variance0(spec):
    """Var(m1 x1 + m2 x2) at t = 0, M^2 sigma_x^2: the center of mass X
    carries a Gaussian of width sigma_x, and (x1, x2) -> (X, x1 - x2) has
    unit Jacobian, so the relative factor integrates out."""
    return float((spec.m1 + spec.m2) ** 2 * spec.sigma_x ** 2)


def variance_evolution(spec, times, monte_carlo_n=0, seed=20250101):
    """Var(m1 x1 + m2 x2)(t) = Var(0) + Var(p1 + p2) t^2 of `spec.state()`.

    Var(0) = M^2 sigma_x^2 (M = m1 + m2) and Var(p1 + p2) = sigma / 2,
    both in closed form.
    With monte_carlo_n > 0 the formula is cross-validated by propagating
    an equilibrium ensemble of the same state with the exact guidance
    velocities and measuring the empirical variance at each requested
    time: one pass through the sorted times, with the step
    max(times) / 400."""
    times = np.asarray(times, dtype=float)
    var_p = _momentum_variance(spec)
    var_x0 = _position_variance0(spec)
    curve = var_x0 + var_p * times**2
    out = {"times": times, "variance": curve, "var_p": var_p, "var_x0": var_x0,
           "heisenberg_product": var_p * var_x0,
           "heisenberg_bound": 0.25 * (spec.m1 + spec.m2) ** 2}
    if monte_carlo_n:
        psi = spec.state()
        lim = 6.0 * spec.sigma_x + 6.0 * np.sqrt(spec.alpha)
        ens = sample_equilibrium(psi, monte_carlo_n, seed,
                                 box=[(-lim, lim)] * 2)
        if np.any(times < 0):
            raise ShapeError("Monte Carlo times must be >= 0 (the decay time)")
        src = ParametricVelocity(psi)
        dt = float(np.max(times)) / 400
        mc = np.empty(len(times))
        for i in np.argsort(times, kind="stable"):
            t = float(times[i])
            if t > ens.t:
                cfg, _ = integrate_ensemble(ens, src, t,
                                            IntegrationControls(dt=dt))
                ens = Ensemble(configs=cfg, seed=seed, t=t)
            q = spec.m1 * ens.configs[:, 0] + spec.m2 * ens.configs[:, 1]
            mc[i] = np.var(q)
        out["monte_carlo"] = mc
    return out


def alignment_analysis(spec, t, l0=None, wavenumber=None):
    """Peak alignment and angular-deviation estimates.

    (i) the argmax of |psi(t)|^2 on a 201^2 (x1, x2) grid lies on
    m1 x1 + m2 x2 = 0 within one cell; (ii) the angular deviation is
    tan(theta) ~ L(0) m / (p t) for small t and Delta(p1+p2)/p for large
    t, with the crossover at T = L(0)^2 k_c / c; (iii) the transition
    distance R = L(0)^2 k_c for the supplied wavenumber k_c."""
    psi = spec.state()
    lim = (6.0 * spec.sigma_x + 6.0 * np.sqrt(spec.alpha)
           + 2.0 * np.sqrt(1.0 / spec.alpha) * t / (2 * spec.mu))
    grid = Grid([(-lim, lim)] * 2, [201] * 2)
    x = grid.axes[0]
    rho = psi.at_time(t).density(grid.nodes()).reshape(grid.shape)
    i, j = np.unravel_index(np.argmax(rho), rho.shape)
    peak_offset = abs(spec.m1 * x[i] + spec.m2 * x[j])
    cell = (x[1] - x[0]) * max(spec.m1, spec.m2)
    result = {"peak_offset": peak_offset, "cell": cell,
              "peak_on_locus": bool(peak_offset <= cell)}
    if l0 is not None and wavenumber is not None:
        result["transition_distance"] = l0**2 * wavenumber
        result["transition_time"] = l0**2 * wavenumber  # c = 1 internally
    # angular estimates for equal-mass fragments at momentum p
    p_typ = np.sqrt(1.0 / spec.alpha)
    dp = np.sqrt(_momentum_variance(spec))
    l0_eff = l0 if l0 is not None else np.sqrt(
        _position_variance0(spec)) / ((spec.m1 + spec.m2) / 2.0)
    with np.errstate(divide="ignore"):
        result["theta_small_t"] = np.arctan(
            l0_eff * (2 * spec.mu) / np.maximum(p_typ * t, 1e-300))
        result["theta_large_t"] = np.arctan(dp / p_typ)
    return result


# ---------------------------------------------------------------------------
# energy shell (Appendix-style Bessel analysis)


def energy_shell_density(spec, x):
    """g(x) = [a+ J1(a+ x) - a- J1(a- x)] / x with lengths in lambda_c.

    The x -> 0 limit (a+^2 - a-^2)/2 replaces the ratio below
    x < 1e-8 / a+.  J1 is the first-order Bessel function evaluated to
    better than 1e-10 relative error."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0):
        raise ShapeError("x must be nonnegative")
    ap, am = spec.a_plus, spec.a_minus
    small = x < 1e-8 / ap
    safe = np.where(small, 1.0, x)
    g = (ap * j1(ap * safe) - am * j1(am * safe)) / safe
    g = np.where(small, (ap**2 - am**2) / 2.0, g)
    return float(g[0]) if scalar else g


def energy_shell_profile(spec):
    """Sampled g and g^2 curves on 20001 points of [0, 50] for figure
    output, plus concentration: the fraction of the integral of g^2
    within the first few lambda_c."""
    x = np.linspace(0.0, 50.0, 20001)
    g = energy_shell_density(spec, x)
    g2 = g * g
    cum = np.concatenate([[0.0], np.cumsum((g2[1:] + g2[:-1]) * np.diff(x) / 2)])
    frac5 = float(np.interp(5.0, x, cum) / cum[-1]) if cum[-1] > 0 else 0.0
    return {"x": x, "g": g, "g2": g2, "fraction_within_5": frac5,
            "a_plus": spec.a_plus, "a_minus": spec.a_minus}


# ---------------------------------------------------------------------------
# imaging


class _ConvergingGaussianSource:
    """Guidance velocities of a converging Gaussian beam, and their flow.

    The beam center moves from the lens plane along the chief-ray axis
    at uniform speed v and focuses at t_focus with transverse waist w;
    transverse offsets follow the Gaussian flow d(offset)/dt =
    offset * sigma'/sigma (the exact Bohmian velocity field of a
    contracting Gaussian factor), which `flow` integrates in closed
    form (Holland, The Quantum Theory of Motion, 1993, sec. 4.7)."""

    def __init__(self, axis_point, axis_dir, v, w, t_focus, m):
        self.p0 = axis_point
        self.u = axis_dir / np.linalg.norm(axis_dir)
        self.v = v
        self.w = w
        self.t_focus = t_focus
        self.spread = 1.0 / (2.0 * m * w**2)

    def center(self, t):
        return self.p0 + self.u * self.v * t

    def sigma(self, t):
        return self.w * np.sqrt(1.0 + (self.spread * (t - self.t_focus)) ** 2)

    def dsigma(self, t):
        s = self.sigma(t)
        return self.w**2 * self.spread**2 * (t - self.t_focus) / s

    def velocity(self, configs, t):
        configs = np.atleast_2d(configs)
        off = configs - self.center(t)[None, :]
        off_par = (off @ self.u)[:, None] * self.u[None, :]
        off_perp = off - off_par
        rate = self.dsigma(t) / self.sigma(t)
        return self.v * self.u[None, :] + off_perp * rate

    def _offsets(self, starts):
        off = starts - self.p0
        off_par = (off @ self.u)[:, None] * self.u
        return off_par, off - off_par

    def flow(self, starts, t):
        """Positions at time t of the runs that start at `starts` (n, 3)
        at t = 0: the offset from the center along u stays, the offset
        across u scales as sigma(t)/sigma(0).  t broadcasts against the
        runs: a scalar or (n,) gives (n, 3), (T, 1) gives (T, n, 3)."""
        off_par, off_perp = self._offsets(starts)
        t = np.asarray(t, dtype=float)[..., None]
        return (self.center(t) + off_par
                + off_perp * (self.sigma(t) / self.sigma(0.0)))

    def first_crossing(self, starts, x_plane, t_end):
        """The first time in (0, t_end] at which each run's x falls to
        x_plane (the runs start above it), and whether there is one.

        x(t) - x_plane = g0 + b t + beta sqrt(1 + (spread (t - t_focus))^2)
        is a line plus a hyperbola: convex for beta > 0, concave
        otherwise.  A concave one has at most one root after t = 0; a
        convex one falls until its minimum, so its first root lies before
        that.  Bisection on (0, t_fall], t_fall the earlier of the minimum
        and t_end, finds the root to the last bit."""
        b = self.v * self.u[0]
        beta = self._offsets(starts)[1][:, 0] * self.w / self.sigma(0.0)
        c = self.spread
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # g' = 0 where c s / sqrt(1 + c^2 s^2) = q, s = t - t_focus
            q = np.clip(-b / (beta * c), -1.0, 1.0)
            t_min = self.t_focus + q / (c * np.sqrt(1.0 - q * q))
        t_fall = np.where(beta > 0, np.clip(t_min, 0.0, t_end), t_end)
        reached = self.flow(starts, t_fall)[:, 0] <= x_plane
        lo, hi = np.zeros_like(t_fall), t_fall
        # t_fall / 2^64 is below an ulp of any crossing after t_fall / 2^11
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            past = self.flow(starts, mid)[:, 0] <= x_plane
            lo, hi = np.where(past, lo, mid), np.where(past, mid, hi)
        return hi, reached


def imaging_trajectories(spec, lens, a, n, seed=20250101):
    """Beable-2 trajectories of the massive-particle imaging experiment.

    Geometry (equal masses, axis x): lens plane at x = 0, detector-1
    plane at x = +S, decay centered midway at x = S/2, image plane at
    x = -S'.  Detection of beable 1 at `a` collapses the pair wave, so
    beable 2 rides the spherical-phase wave centered on `a`; because `a`,
    the decay point and beable 2 are collinear, the collapse does not
    kink the path, and the whole pre-lens trajectory is the straight
    line through the per-run decay point (integrated here with RK4 on
    the collapsed-wave velocity field, starting from the decay point).
    At the lens, the wave turns into a Gaussian beam whose center leaves
    the lens center along the chief ray toward the thin-lens image of
    `a` at speed v, contracting to its waist w at t_focus = S'/v, where
    the center is at x = -S'^2 / |image point| (on the image plane only
    for on-axis detection).  Beable 2 follows the beam's flow, taken in
    closed form, to the image plane.

    The pre-lens time axis is parametrized from the collapse-wave birth
    rather than the lab clock (the spatial paths, which are what the
    endpoint statistics and figures use, are unaffected).  `a` is the
    3-vector detection point with a[0] == S.

    `lens_hits` and `endpoints` (n, 3) are where the runs stop, with x
    set to the plane's exactly: a run lands at the lens where its RK4
    step crosses x = 0, and at the image plane at the first time its
    flow reaches x = -S'.  The horizons are only caps (PhysicsError if a
    run has not landed by then).  `post_lens_times` and
    `post_lens_track` (T, n, 3) record the post-lens phase up to its
    cap, every IMAGING_RECORD_EVERY steps of t_focus / 2000 and at the
    cap; rows from a run's landing time on repeat its landing point.
    """
    if abs(spec.m1 - spec.m2) > 1e-12 * spec.m1:
        raise PhysicsError("the imaging geometry assumes equal masses")
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ShapeError("detection point must be a 3-vector")
    s, s_im, w = lens.S, lens.S_image, lens.waist
    if abs(a[0] - s) > 1e-9 * max(s, 1.0):
        raise PhysicsError("detection point must lie in the detector-1 plane x=S")
    m = spec.m2
    rng = np.random.default_rng(np.random.Philox(seed))
    # per-run decay point around the source center (S/2, 0, 0), spread
    # 0.02 S per axis: the lens and the detector are 25 spreads away
    decay = (np.array([s / 2.0, 0.0, 0.0])
             + 0.02 * s * rng.standard_normal((n, 3)))

    # phase 1+2: ride the collapsed wave outward from `a`, starting at
    # the decay point; integrate until every run crossed the lens plane
    collapsed = ParametricWaveFunction(
        "post_collapse_pair",
        {"a": a, "alpha0": spec.alpha, "m": m, "t0": 0.0}, [m])
    src = ParametricVelocity(collapsed)
    tau = 2.0 * m * spec.alpha                      # expansion timescale
    # offsets from `a` grow as sqrt(1 + (t/tau)^2), so run i reaches x = 0
    # at tau sqrt(g_i^2 - 1) with g_i = S / (S - x_i); run to 1.5 times
    # the latest of these, in whole steps
    g = s / (s - decay[:, 0])
    dt = tau / 100
    horizon = dt * np.ceil(1.5 * tau * np.sqrt(np.max(g) ** 2 - 1.0) / dt)
    src.domain = Box([0.0, -np.inf, -np.inf], [np.inf] * 3)
    lens_hit, status, (_, track) = integrate_ensemble(
        Ensemble(configs=decay, seed=0), src, horizon,
        IntegrationControls(dt=dt, record_every=IMAGING_RECORD_EVERY),
        record=True)
    if np.any(status != STATUS_EXITED):
        raise PhysicsError("some runs never reached the lens plane")
    # each run's track up to its landing row, the first with x = 0
    k_lens = np.argmax(track[:, :, 0] <= 0.0, axis=0)
    pre_lens = [track[:k + 1, i] for i, k in enumerate(k_lens)]

    # straightness of the pre-lens paths (integrated, not assumed); the
    # rows after a run lands repeat its lens hit, which is on its chord
    length = np.linalg.norm(lens_hit - decay, axis=1)
    u = (lens_hit - decay) / length[:, None]
    rel = track - decay
    perp = rel - np.sum(rel * u, axis=2)[..., None] * u
    straight_dev = float(np.max(np.linalg.norm(perp, axis=2) / length))

    # the chief ray through the lens center maps a to the image point
    image_point = np.concatenate([[-s_im], -a[1:] * (s_im / s)])
    v = np.sqrt(1.0 / spec.alpha) / m
    t_focus = s_im / v
    beam = _ConvergingGaussianSource(np.zeros(3), image_point, v, w,
                                     t_focus, m)
    # A run's offset from the beam center has an x component, so the runs
    # reach the image plane at different times.  A run starts within
    # r = max |lens hit| of the beam center; its offset along the axis u
    # stays and its offset across u shrinks until 2 t_focus, so its x lies
    # within 2 r of the center's, and it has crossed x = -S' once the
    # center has moved (S' + 2 r) / |u_x|.
    reach = np.max(np.linalg.norm(lens_hit, axis=1))
    t_end = (s_im + 2.0 * reach) / (v * abs(beam.u[0]))
    t_land, reached = beam.first_crossing(lens_hit, -s_im, t_end)
    if not np.all(reached):
        raise PhysicsError("some runs never reached the image plane")
    endpoints = beam.flow(lens_hit, t_land)
    endpoints[:, 0] = -s_im
    # the record clock of an RK4 run to t_end in steps of t_focus / 2000
    dt = t_focus / 2000
    steps, clock = _rk4_clock(0.0, t_end, dt)
    nsteps = len(steps)
    ptimes = clock[np.r_[0:nsteps:IMAGING_RECORD_EVERY, nsteps]]
    ptrack = np.where((ptimes[:, None] >= t_land)[..., None], endpoints,
                      beam.flow(lens_hit, ptimes[:, None]))
    mean_end = endpoints.mean(axis=0)
    return {"decay_points": decay, "lens_hits": lens_hit,
            "pre_lens": pre_lens, "post_lens_times": ptimes,
            "post_lens_track": ptrack, "endpoints": endpoints,
            "endpoint_mean": mean_end, "image_point": image_point,
            "straightness": straight_dev,
            "focus_error": float(np.linalg.norm(mean_end[1:] - image_point[1:])),
            "waist": w}
