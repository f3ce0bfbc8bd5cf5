"""Closed-form wavefunction families.

Each family is registered under a name and provides exact evaluation and
spatial gradients at any time, so `analytic` propagation is just a change
of the time argument.  Families compute unnormalized or conventionally
normalized values; sampling and norms only ever use |psi|^2 ratios.
Units are natural, hbar = 1: masses are the only scale, and no kernel
takes hbar.

The family protocol.  A family is a class; its constructor's keywords
are its key set, those without a default required, and ``build(name,
params)`` binds a params dict to them, raising ConfigurationError that
names the family for a missing or unknown key.  An instance is bound:
its keys are read and converted once, when it is built, and

* ``config_dim``, ``spin_dim`` are attributes, and so is ``masses``:
  the masses the family's dispersion uses, one per particle, or None
  when the frequencies are given (``plane_wave_sum``);
* ``value(x, t)``: psi, shape (spin_dim, n); what the sampler and the
  quadratures need;
* ``value_gradient_moduli(x, t)``: (psi, grad psi, moduli), shapes
  (spin_dim, n), (spin_dim, config_dim, n) and (spin_dim, n), from one
  evaluation of the exponentials, psi identical to ``value``.  moduli is
  sum_i |c_i phi_i| per spin component over the closed-form terms a sum
  family is built from (nested sums expanded), which is what guidance
  compares the density against to tell a node from a tail; None for a
  single term, which has nothing to cancel.  There is no separate
  gradient kernel;
* ``log_gradient(x, t)``, single scalar terms only: grad log psi, shape
  (config_dim, n), a rational expression with no exponential in it.
  The five single-term families (``plane_wave``, ``gaussian_packet``,
  ``decaying_pair``, ``post_collapse_pair``, ``correlated_pair``) have
  it, and their gradient is ``log_gradient * value`` (`_SingleTerm`);
  sums and spinor products of them read their gradients from it;
* ``phase_gradient(x, t)``, the same five only: grad S of psi = R e^{iS},
  i.e. Im grad log psi, shape (n, config_dim).  It is real arithmetic on
  the points: each complex width, such as B or beta, gives two real
  factors once per call (`_smith`), and they multiply the arrays.  At a
  scalar t it equals ``Im log_gradient`` bit for bit; t may also be an
  array of one time per point, shape (n,).  Guidance needs only this:
  v = (hbar/m) grad S, and Re grad log psi = grad log |psi| does not
  enter, so no complex array is formed, psi is never evaluated, and the
  velocity stays finite where psi underflows.
  ``superposition``, ``spinor_product`` and ``plane_wave_sum`` have
  neither: the log-derivative of a sum needs the sum itself, and a
  spinor component that vanishes identically would make it 0/0, so
  guidance divides their current by rho instead.

Every kernel takes the points as a float array (n, config_dim) and
converts nothing: `ParametricWaveFunction` converts them, once per call,
and refuses a configuration of another dimension with ShapeError.
``plane_wave_sum`` converts its points itself (`_as_points`), since the
Dirac and DKP states hand it their callers' points directly.  Every
kernel takes t as a scalar or as one time per point, shape (n,);
`ParametricWaveFunction` refuses any other shape of t with ShapeError.

Registered families:

* ``plane_wave``          exp(i(k.x - w t)), w = hbar k^2 / 2m
* ``gaussian_packet``     drifting, spreading Gaussian (product over axes)
* ``decaying_pair``       two-particle wave of a decaying system at rest,
                          depends only on x1 - x2 (total momentum zero)
* ``post_collapse_pair``  the effective one-particle wave after the
                          partner has been detected at a point
* ``correlated_pair``     decaying pair with a finite-width center-of-mass
                          factor (normalizable in all coordinates)
* ``superposition``       complex-coefficient sum of same-shape families
* ``spinor_product``      scalar family times a constant spinor
* ``plane_wave_sum``      sum of spinor plane waves with given frequencies
                          (Dirac and DKP states and their reductions)
"""

import inspect

import numpy as np

from .errors import ConfigurationError, ShapeError, UnsupportedFamilyError

_REGISTRY = {}


def register(name):
    def deco(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls
    return deco


def get_family(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown parametric family {name!r}") from None


def family_names():
    return sorted(_REGISTRY)


def build(name, params):
    """The family `name` bound to the keys of `params`; a missing or
    unknown key raises ConfigurationError."""
    cls = get_family(name)
    try:
        keys = inspect.signature(cls).bind(**params)
    except TypeError as err:
        raise ConfigurationError(f"{name}: {err}") from None
    return cls(*keys.args, **keys.kwargs)


class _SingleTerm:
    """A single closed-form scalar term: grad psi = log_gradient * psi."""

    spin_dim = 1

    def value_gradient_moduli(self, x, t):
        val = self.value(x, t)
        # (d, n) * (1, n), not * (n,): numpy multiplies a (1, 1) complex
        # array by a (1,) one without the fused multiply-add of every
        # other shape, so a lone 1-D point would round differently from
        # the same point in a batch
        return val, (self.log_gradient(x, t) * val)[None], None


def _per_axis(family, key, value, d):
    """`value` as one float per axis, shape (d,), from one value or d."""
    try:
        return np.broadcast_to(np.asarray(value, dtype=float), (d,))
    except ValueError:
        raise ConfigurationError(f"{family.name}: {key} has shape "
                                 f"{np.shape(value)}, not () or ({d},)") from None


def _as_points(x, dim):
    """x as float points (n, dim), a single point as one row; another
    dimension raises ShapeError."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    if x.shape[-1] != dim:
        raise ShapeError(
            f"configuration has dimension {x.shape[-1]}, family expects {dim}")
    return x


def _smith(a, b):
    """Real factors (R, S) of the complex width w = a + i b, formed once
    per call, such that Im(y / 2w) = -(y R) S for a real array y, rounded
    exactly as numpy's complex division (Smith's method) rounds it:
    R = b / a and S = 1 / 2(a + b R) where |a| >= |b|, else R = 1 and
    S = 1 / 2(b + a^2 / b).  So a phase gradient is Im of the matching
    log-derivative bit for bit.  b is a scalar or one value per point;
    real arithmetic rounds a lone value as it rounds the same in an
    array."""
    if isinstance(b, np.ndarray):
        first = abs(a) >= np.abs(b)
        big, small = np.where(first, a, b), np.where(first, b, a)
        rat = small / big
        return np.where(first, rat, 1.0), 0.5 / (big + small * rat)
    if abs(a) >= abs(b):
        rat = b / a
        return rat, 0.5 / (a + b * rat)
    return 1.0, 0.5 / (b + a * (a / b))


@register("plane_wave")
class PlaneWave(_SingleTerm):
    """exp(i (k.x - omega t)) with the free dispersion omega = hbar k^2/2m."""

    def __init__(self, k, m):
        self.k = np.atleast_1d(np.asarray(k, dtype=float))
        self.config_dim = len(self.k)
        self.masses = (m,)
        self.omega = (self.k @ self.k) / (2.0 * m)

    def value(self, x, t):
        # k.x as a row sum, not the product x @ k: BLAS rounds that
        # differently with the number of points that share the call
        return np.exp(1j * ((x * self.k).sum(axis=1) - self.omega * t))[None, :]

    def log_gradient(self, x, t):
        return np.broadcast_to(1j * self.k[:, None], (self.config_dim, len(x)))

    def phase_gradient(self, x, t):
        return np.broadcast_to(self.k, (len(x), self.config_dim))


def _gauss_width(x, t, x0, sigma, k0, m):
    """B = s^2 + i hbar t / 2m and the offset x - xc from the drifting
    center xc = x0 + hbar k0 t / m."""
    return sigma**2 + 0.5j * t / m, x - (x0 + k0 * t / m)


def _gauss_1d(x, t, x0, sigma, k0, m):
    """1-D free Gaussian packet

    psi = (2 pi s^2)^(-1/4) * s/sqrt(B) * exp(-(x-xc)^2/(4B) + i k0 (x-x0)
          - i hbar k0^2 t / 2m).
    """
    B, xi = _gauss_width(x, t, x0, sigma, k0, m)
    amp = (2.0 * np.pi * sigma**2) ** -0.25 * sigma / np.sqrt(B)
    return amp * np.exp(-xi**2 / (4.0 * B)
                        + 1j * k0 * (x - x0) - 0.5j * k0**2 * t / m)


def _gauss_1d_dlog(x, t, x0, sigma, k0, m):
    """d log psi / dx = -(x - xc) / 2B + i k0 of the `_gauss_1d` packet."""
    B, xi = _gauss_width(x, t, x0, sigma, k0, m)
    return -xi / (2.0 * B) + 1j * k0


def _gauss_1d_phase(x, t, x0, sigma, k0, m):
    """dS/dx = Im of `_gauss_1d_dlog`, B = s^2 + i hbar t / 2m taken
    apart by `_smith`."""
    R, S = _smith(sigma**2, 0.5 * t / m)
    return ((x - (x0 + k0 * t / m)) * R) * S + k0


@register("gaussian_packet")
class GaussianPacket(_SingleTerm):
    """Free Gaussian packet, product over axes; exact drift and spreading.

    center (d,), sigma (scalar or (d,)), k0 (scalar or (d,)), m.
    """

    def __init__(self, center, sigma, m, k0=0.0):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.config_dim = d = len(self.center)
        self.sigma = _per_axis(self, "sigma", sigma, d)
        self.k0 = _per_axis(self, "k0", k0, d)
        self.m = m
        self.masses = (m,)

    def value(self, x, t):
        out = np.ones(x.shape[0], dtype=complex)
        for a in range(self.config_dim):
            out = out * _gauss_1d(x[:, a], t, self.center[a], self.sigma[a],
                                  self.k0[a], self.m)
        return out[None, :]

    def log_gradient(self, x, t):
        dlog = np.empty((self.config_dim, x.shape[0]), dtype=complex)
        for a in range(self.config_dim):
            dlog[a] = _gauss_1d_dlog(x[:, a], t, self.center[a],
                                     self.sigma[a], self.k0[a], self.m)
        return dlog

    def phase_gradient(self, x, t):
        dphase = np.empty((self.config_dim, x.shape[0]))
        for a in range(self.config_dim):
            dphase[a] = _gauss_1d_phase(x[:, a], t, self.center[a],
                                        self.sigma[a], self.k0[a], self.m)
        return dphase.T


def _pair_beta(alpha, t, mu):
    return alpha + 0.5j * t / mu


@register("decaying_pair")
class DecayingPair(_SingleTerm):
    """Two-particle wave of a decaying system, total momentum zero.

    psi = N (pi hbar / beta)^(d/2) exp(-(x1-x2)^2 / (4 hbar beta)),
    beta = alpha + i t / 2 mu.  Configuration is (x1, x2) concatenated,
    d spatial dimensions per particle.
    """

    def __init__(self, alpha, m1, m2, d=3, N=1.0):
        self.alpha, self.N = alpha, N
        self.d = int(d)
        self.config_dim = 2 * self.d
        self.masses = (m1, m2)
        self.mu = m1 * m2 / (m1 + m2)

    def value(self, x, t):
        d = self.d
        beta = _pair_beta(self.alpha, t, self.mu)
        r = x[:, :d] - x[:, d:]
        pref = self.N * (np.pi / beta) ** (d / 2.0)
        val = pref * np.exp(-np.sum(r * r, axis=1) / (4.0 * beta))
        return val[None, :]

    def log_gradient(self, x, t):
        d = self.d
        beta = _pair_beta(self.alpha, t, self.mu)
        g = (x[:, :d] - x[:, d:]).T / (2.0 * beta)   # (d, n)
        return np.concatenate([-g, g])

    def phase_gradient(self, x, t):
        d = self.d
        R, S = _smith(self.alpha, 0.5 * t / self.mu)
        g = ((x[:, :d] - x[:, d:]).T * R) * S   # -Im (x1 - x2) / 2 beta
        return np.concatenate([g, -g]).T


@register("post_collapse_pair")
class PostCollapsePair(_SingleTerm):
    """Effective wave of particle 2 after its partner is detected at `a`.

    psi = N (pi hbar / beta)^(d/2) exp(-(a - x)^2 / (4 hbar beta)) with
    beta = alpha0 + i (t - t0) / 2m.  alpha0 may be complex: it is the
    width parameter inherited from the pair wave at the collapse instant.
    """

    def __init__(self, a, alpha0, m, t0=0.0, N=1.0):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.config_dim = len(self.a)
        self.alpha0 = complex(alpha0)
        self.m, self.t0, self.N = m, t0, N
        self.masses = (m,)

    def _offset(self, x, t):
        """beta and a - x, shape (n, d)."""
        beta = self.alpha0 + 0.5j * (t - self.t0) / self.m
        return beta, self.a[None, :] - x

    def value(self, x, t):
        beta, u = self._offset(x, t)
        pref = self.N * (np.pi / beta) ** (u.shape[1] / 2.0)
        val = pref * np.exp(-np.sum(u * u, axis=1) / (4.0 * beta))
        return val[None, :]

    def log_gradient(self, x, t):
        beta, u = self._offset(x, t)
        # d/dx of the -(a-x)^2 term
        return u.T / (2.0 * beta)

    def phase_gradient(self, x, t):
        # x - a = -(a - x) exactly, so this is Im of u / 2 beta, u = a - x
        R, S = _smith(self.alpha0.real,
                      self.alpha0.imag + 0.5 * (t - self.t0) / self.m)
        return (((x - self.a).T * R) * S).T


@register("correlated_pair")
class CorrelatedPair(_SingleTerm):
    """Decaying pair with a finite center-of-mass width.

    Relative factor equals the decaying_pair wave; the weighted
    center-of-mass X = (m1 x1 + m2 x2)/M carries a zero-drift Gaussian of
    initial width sigma_x, centered on `center`, so the state is
    normalizable along every axis.  The momentum-space density of the
    total momentum P is Gaussian with Var(P_j) = hbar^2 / (4 sigma_x^2)
    per component.
    """

    def __init__(self, alpha, sigma_x, m1, m2, d=3, N=1.0, center=0.0):
        self.alpha, self.sigma_x, self.N = alpha, sigma_x, N
        self.d = d = int(d)
        self.config_dim = 2 * d
        self.center = _per_axis(self, "center", center, d)
        self.m1, self.m2, self.M = m1, m2, m1 + m2
        self.mu = m1 * m2 / (m1 + m2)
        self.masses = (m1, m2)

    def _coords(self, x):
        """Center of mass X and separation r = x1 - x2, shapes (n, d)."""
        x1, x2 = x[:, :self.d], x[:, self.d:]
        return (self.m1 * x1 + self.m2 * x2) / self.M, x1 - x2

    def value(self, x, t):
        X, r = self._coords(x)
        com = np.ones(X.shape[0], dtype=complex)
        for a in range(self.d):
            com = com * _gauss_1d(X[:, a], t, self.center[a], self.sigma_x,
                                  0.0, self.M)
        beta = _pair_beta(self.alpha, t, self.mu)
        rel = (np.pi / beta) ** (self.d / 2.0) * np.exp(
            -np.sum(r * r, axis=1) / (4.0 * beta))
        return (self.N * com * rel)[None, :]

    def log_gradient(self, x, t):
        X, r = self._coords(x)
        dlc = np.empty((self.d, X.shape[0]), dtype=complex)   # d/dX
        for a in range(self.d):
            dlc[a] = _gauss_1d_dlog(X[:, a], t, self.center[a], self.sigma_x,
                                    0.0, self.M)
        dlr = -r.T / (2.0 * _pair_beta(self.alpha, t, self.mu))   # d/dr
        # chain rule: d/dx1 = (m1/M) d/dX + d/dr, d/dx2 = (m2/M) d/dX - d/dr
        m1, m2, M = self.m1, self.m2, self.M
        return np.concatenate([(m1 / M) * dlc + dlr, (m2 / M) * dlc - dlr])

    def phase_gradient(self, x, t):
        X, r = self._coords(x)
        dlc = np.empty((self.d, X.shape[0]))   # d/dX
        for a in range(self.d):
            dlc[a] = _gauss_1d_phase(X[:, a], t, self.center[a],
                                     self.sigma_x, 0.0, self.M)
        R, S = _smith(self.alpha, 0.5 * t / self.mu)
        dlr = (r.T * R) * S   # d/dr
        m1, m2, M = self.m1, self.m2, self.M
        return np.concatenate([(m1 / M) * dlc + dlr,
                               (m2 / M) * dlc - dlr]).T


@register("superposition")
class Superposition:
    """Complex-coefficient sum of registered family states.

    components = [(coef, family_name, family_params), ...], bound once
    into `components` = [(coef, family), ...].  All components must
    share configuration and spin dimensions and masses.
    """

    def __init__(self, components):
        if not components:
            raise ConfigurationError("superposition needs at least one component")
        self.components = [(complex(c), build(name, p))
                           for c, name, p in components]
        self.config_dim, self.spin_dim, self.masses = (
            self._shared(attr) for attr in ("config_dim", "spin_dim", "masses"))

    def _shared(self, attr):
        values = {getattr(fam, attr) for _, fam in self.components}
        if len(values) != 1:
            raise ConfigurationError(f"superposition components disagree on {attr}")
        return values.pop()

    def value(self, x, t):
        out = None
        for c, fam in self.components:
            v = c * fam.value(x, t)
            out = v if out is None else out + v
        return out

    def value_gradient_moduli(self, x, t):
        val = grad = mod = None
        for c, fam in self.components:
            v, g, m = fam.value_gradient_moduli(x, t)
            m = abs(c) * (np.abs(v) if m is None else m)
            v, g = c * v, c * g
            val, grad, mod = ((v, g, m) if val is None
                              else (val + v, grad + g, mod + m))
        return val, grad, mod


@register("spinor_product")
class SpinorProduct:
    """Scalar family times a constant spinor (a spin eigenstate)."""

    def __init__(self, scalar, scalar_params, chi):
        self.scalar = build(scalar, scalar_params)
        if self.scalar.spin_dim != 1:
            raise UnsupportedFamilyError("spinor_product wraps scalar families only")
        self.chi = np.asarray(chi, dtype=complex)
        if self.chi.ndim != 1:
            raise ConfigurationError(
                f"{self.name}: chi has shape {self.chi.shape}, not (spin_dim,)")
        self.spin_dim = len(self.chi)
        self.config_dim = self.scalar.config_dim
        self.masses = self.scalar.masses

    def value(self, x, t):
        return self.chi[:, None] * self.scalar.value(x, t)[0][None, :]

    def value_gradient_moduli(self, x, t):
        v, g, m = self.scalar.value_gradient_moduli(x, t)
        chi = self.chi
        return (chi[:, None] * v[0][None, :],
                chi[:, None, None] * g[0][None, :, :],
                None if m is None else np.abs(chi)[:, None] * m[0][None, :])


@register("plane_wave_sum")
class PlaneWaveSum:
    """Finite plane-wave sum psi = sum_i A_i exp(i(K_i.x - w_i t)).

    k (nterm, d) wavevectors, omega (nterm,) frequencies and amps
    (nterm, spin_dim) amplitudes, each a coefficient times its constant
    spinor or field vector.  The frequencies are given, so hbar and the
    masses do not enter, and any dispersion (relativistic, or with the
    rest energy removed) is exact.  k.x and the sum over terms are
    elementwise sums, not matrix products, whose BLAS rounding would
    depend on how many points share the call.
    """

    masses = None

    def __init__(self, k, omega, amps):
        self.k = np.asarray(k, dtype=float)
        self.omega = np.asarray(omega)
        self.amps = np.asarray(amps)
        n = self.k.shape[:1]
        if (self.k.ndim, self.omega.shape, self.amps.ndim,
                self.amps.shape[:1]) != (2, n, 2, n):
            raise ConfigurationError(
                f"{self.name}: k {self.k.shape}, omega {self.omega.shape} and "
                f"amps {self.amps.shape}, not (nterm, d), (nterm,), (nterm, s)")
        self.config_dim = self.k.shape[1]
        self.spin_dim = self.amps.shape[1]

    def _phases(self, x, t):
        """exp(i(K x - w t)), shape (nterm, n)."""
        k = self.k
        x = _as_points(x, self.config_dim)
        kx = k[:, :1] * x[:, 0]
        for a in range(1, self.config_dim):
            kx = kx + k[:, a:a + 1] * x[:, a]
        return np.exp(1j * (kx - self.omega[:, None] * t))

    def value(self, x, t):
        """Shape (spin_dim, n), C-contiguous."""
        return np.einsum("ts,tn->sn", self.amps, self._phases(x, t))

    def value_gradient_moduli(self, x, t):
        phases = self._phases(x, t)
        mod = np.sum(np.abs(self.amps), axis=0)
        return (np.einsum("ts,tn->sn", self.amps, phases),
                np.einsum("ts,td,tn->sdn", self.amps, 1j * self.k, phases),
                np.repeat(mod[:, None], phases.shape[1], axis=1))

    def scale(self):
        """Typical density scale sum_i |A_i|^2."""
        return float(np.sum(np.abs(self.amps) ** 2))
