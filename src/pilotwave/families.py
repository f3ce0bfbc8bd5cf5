"""Closed-form wavefunction families.

Each family is registered under a name and provides exact evaluation and
spatial gradients at any time, so `analytic` propagation is just a change
of the time argument.  Families compute unnormalized or conventionally
normalized values; sampling and norms only ever use |psi|^2 ratios.
Units are natural, hbar = 1: masses are the only scale, and no kernel
takes hbar.

The family protocol (all static or class methods):

* ``config_dim(params)``, ``spin_dim(params)``
* ``value(params, x, t)``: psi, shape (spin_dim, n); what the sampler
  and the quadratures need
* ``value_gradient_moduli(params, x, t)``: (psi, grad psi, moduli),
  shapes (spin_dim, n), (spin_dim, config_dim, n) and (spin_dim, n),
  from one evaluation of the exponentials, psi identical to ``value``.
  moduli is sum_i |c_i phi_i| per spin component over the closed-form
  terms a sum family is built from (nested sums expanded), which is what
  guidance compares the density against to tell a node from a tail;
  None for a single term, which has nothing to cancel.  There is no
  separate gradient kernel.
* ``log_gradient(params, x, t)``, single scalar terms only: grad log psi,
  shape (config_dim, n), a rational expression with no exponential in
  it.  The five single-term families (``plane_wave``,
  ``gaussian_packet``, ``decaying_pair``, ``post_collapse_pair``,
  ``correlated_pair``) have it, and their gradient is
  ``log_gradient * value`` (`_SingleTerm`).  Guidance reads
  v = (hbar/m) Im grad log psi from it without evaluating psi, so the
  velocity stays finite where psi underflows.  ``superposition``,
  ``spinor_product`` and ``plane_wave_sum`` have none: the log-derivative
  of a sum needs the sum itself, and a spinor component that vanishes
  identically would make it 0/0, so guidance divides their gradient by
  psi instead.

A configuration of the wrong dimension raises ShapeError.

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


class _SingleTerm:
    """A single closed-form scalar term: grad psi = log_gradient * psi."""

    @staticmethod
    def spin_dim(params):
        return 1

    @classmethod
    def value_gradient_moduli(cls, params, x, t):
        val = cls.value(params, x, t)
        # (d, n) * (1, n), not * (n,): numpy multiplies a (1, 1) complex
        # array by a (1,) one without the fused multiply-add of every
        # other shape, so a lone 1-D point would round differently from
        # the same point in a batch
        return val, (cls.log_gradient(params, x, t) * val)[None], None


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    if x.shape[-1] != dim:
        raise ShapeError(
            f"configuration has dimension {x.shape[-1]}, family expects {dim}")
    return x


@register("plane_wave")
class PlaneWave(_SingleTerm):
    """exp(i (k.x - omega t)) with the free dispersion omega = hbar k^2/2m."""

    @staticmethod
    def config_dim(params):
        return len(np.atleast_1d(params["k"]))

    @staticmethod
    def value(params, x, t):
        k = np.atleast_1d(np.asarray(params["k"], dtype=float))
        m = params["m"]
        x = _as_points(x, len(k))
        omega = (k @ k) / (2.0 * m)
        # k.x as a row sum, not the product x @ k: BLAS rounds that
        # differently with the number of points that share the call
        return np.exp(1j * ((x * k).sum(axis=1) - omega * t))[None, :]

    @staticmethod
    def log_gradient(params, x, t):
        k = np.atleast_1d(np.asarray(params["k"], dtype=float))
        n = _as_points(x, len(k)).shape[0]
        return np.broadcast_to(1j * k[:, None], (len(k), n))


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


@register("gaussian_packet")
class GaussianPacket(_SingleTerm):
    """Free Gaussian packet, product over axes; exact drift and spreading.

    params: center (d,), sigma (scalar or (d,)), k0 (d,), m.
    """

    @staticmethod
    def config_dim(params):
        return len(np.atleast_1d(params["center"]))

    @staticmethod
    def _axis_params(params):
        c = np.atleast_1d(np.asarray(params["center"], dtype=float))
        d = len(c)
        s = np.broadcast_to(np.asarray(params["sigma"], dtype=float), (d,))
        k = np.broadcast_to(np.asarray(params.get("k0", 0.0), dtype=float), (d,))
        return c, s, k, params["m"]

    @classmethod
    def value(cls, params, x, t):
        c, s, k, m = cls._axis_params(params)
        x = _as_points(x, len(c))
        out = np.ones(x.shape[0], dtype=complex)
        for a in range(len(c)):
            out = out * _gauss_1d(x[:, a], t, c[a], s[a], k[a], m)
        return out[None, :]

    @classmethod
    def log_gradient(cls, params, x, t):
        c, s, k, m = cls._axis_params(params)
        x = _as_points(x, len(c))
        dlog = np.empty((len(c), x.shape[0]), dtype=complex)
        for a in range(len(c)):
            dlog[a] = _gauss_1d_dlog(x[:, a], t, c[a], s[a], k[a], m)
        return dlog


def _pair_beta(alpha, t, mu):
    return alpha + 0.5j * t / mu


@register("decaying_pair")
class DecayingPair(_SingleTerm):
    """Two-particle wave of a decaying system, total momentum zero.

    psi = N (pi hbar / beta)^(d/2) exp(-(x1-x2)^2 / (4 hbar beta)),
    beta = alpha + i t / 2 mu.  Configuration is (x1, x2) concatenated,
    d spatial dimensions per particle.
    """

    @staticmethod
    def _geom(params):
        d = int(params.get("d", 3))
        m1, m2 = params["m1"], params["m2"]
        mu = m1 * m2 / (m1 + m2)
        return d, mu

    @classmethod
    def config_dim(cls, params):
        return 2 * cls._geom(params)[0]

    @classmethod
    def value(cls, params, x, t):
        d, mu = cls._geom(params)
        x = _as_points(x, 2 * d)
        beta = _pair_beta(params["alpha"], t, mu)
        r = x[:, :d] - x[:, d:]
        pref = params.get("N", 1.0) * (np.pi / beta) ** (d / 2.0)
        val = pref * np.exp(-np.sum(r * r, axis=1) / (4.0 * beta))
        return val[None, :]

    @classmethod
    def log_gradient(cls, params, x, t):
        d, mu = cls._geom(params)
        x = _as_points(x, 2 * d)
        beta = _pair_beta(params["alpha"], t, mu)
        g = (x[:, :d] - x[:, d:]).T / (2.0 * beta)   # (d, n)
        return np.concatenate([-g, g])


@register("post_collapse_pair")
class PostCollapsePair(_SingleTerm):
    """Effective wave of particle 2 after its partner is detected at `a`.

    psi = N (pi hbar / beta)^(d/2) exp(-(a - x)^2 / (4 hbar beta)) with
    beta = alpha0 + i (t - t0) / 2m.  alpha0 may be complex: it is the
    width parameter inherited from the pair wave at the collapse instant.
    """

    @staticmethod
    def config_dim(params):
        return len(np.atleast_1d(params["a"]))

    @staticmethod
    def _offset(params, x, t):
        """beta and a - x, shape (n, d)."""
        a = np.atleast_1d(np.asarray(params["a"], dtype=float))
        x = _as_points(x, len(a))
        beta = complex(params["alpha0"]) + 0.5j * (t - params.get("t0", 0.0)) / params["m"]
        return beta, a[None, :] - x

    @classmethod
    def value(cls, params, x, t):
        beta, u = cls._offset(params, x, t)
        pref = params.get("N", 1.0) * (np.pi / beta) ** (u.shape[1] / 2.0)
        val = pref * np.exp(-np.sum(u * u, axis=1) / (4.0 * beta))
        return val[None, :]

    @classmethod
    def log_gradient(cls, params, x, t):
        beta, u = cls._offset(params, x, t)
        # d/dx of the -(a-x)^2 term
        return u.T / (2.0 * beta)


@register("correlated_pair")
class CorrelatedPair(_SingleTerm):
    """Decaying pair with a finite center-of-mass width.

    Relative factor equals the decaying_pair wave; the weighted
    center-of-mass X = (m1 x1 + m2 x2)/M carries a zero-drift Gaussian of
    initial width sigma_x, so the state is normalizable along every axis.
    The momentum-space density of the total momentum P is Gaussian with
    Var(P_j) = hbar^2 / (4 sigma_x^2) per component.
    """

    @staticmethod
    def _geom(params):
        d = int(params.get("d", 3))
        m1, m2 = params["m1"], params["m2"]
        return d, m1, m2, m1 + m2, m1 * m2 / (m1 + m2)

    @classmethod
    def config_dim(cls, params):
        return 2 * cls._geom(params)[0]

    @classmethod
    def _coords(cls, params, x):
        """Center of mass X and separation r = x1 - x2, shapes (n, d), and
        the initial center X0 (d,)."""
        d, m1, m2, M, _ = cls._geom(params)
        x = _as_points(x, 2 * d)
        x1, x2 = x[:, :d], x[:, d:]
        X0 = np.broadcast_to(np.asarray(params.get("center", 0.0), dtype=float), (d,))
        return (m1 * x1 + m2 * x2) / M, x1 - x2, X0

    @classmethod
    def value(cls, params, x, t):
        d, _, _, M, mu = cls._geom(params)
        X, r, X0 = cls._coords(params, x)
        sx = params["sigma_x"]
        com = np.ones(X.shape[0], dtype=complex)
        for a in range(d):
            com = com * _gauss_1d(X[:, a], t, X0[a], sx, 0.0, M)
        beta = _pair_beta(params["alpha"], t, mu)
        rel = (np.pi / beta) ** (d / 2.0) * np.exp(
            -np.sum(r * r, axis=1) / (4.0 * beta))
        return (params.get("N", 1.0) * com * rel)[None, :]

    @classmethod
    def log_gradient(cls, params, x, t):
        d, m1, m2, M, mu = cls._geom(params)
        X, r, X0 = cls._coords(params, x)
        sx = params["sigma_x"]
        dlc = np.empty((d, X.shape[0]), dtype=complex)   # d/dX
        for a in range(d):
            dlc[a] = _gauss_1d_dlog(X[:, a], t, X0[a], sx, 0.0, M)
        dlr = -r.T / (2.0 * _pair_beta(params["alpha"], t, mu))   # d/dr
        # chain rule: d/dx1 = (m1/M) d/dX + d/dr, d/dx2 = (m2/M) d/dX - d/dr
        return np.concatenate([(m1 / M) * dlc + dlr, (m2 / M) * dlc - dlr])


@register("superposition")
class Superposition:
    """Complex-coefficient sum of registered family states.

    params: components = [(coef, family_name, family_params), ...]
    All components must share configuration and spin dimensions.
    """

    @staticmethod
    def _parts(params):
        comps = params["components"]
        if not comps:
            raise ConfigurationError("superposition needs at least one component")
        return [(complex(c), get_family(fname), fparams)
                for (c, fname, fparams) in comps]

    @classmethod
    def config_dim(cls, params):
        parts = cls._parts(params)
        dims = {fam.config_dim(p) for _, fam, p in parts}
        if len(dims) != 1:
            raise ConfigurationError("superposition components disagree on dimension")
        return dims.pop()

    @classmethod
    def spin_dim(cls, params):
        dims = {fam.spin_dim(p) for _, fam, p in cls._parts(params)}
        if len(dims) != 1:
            raise ConfigurationError("superposition components disagree on spin")
        return dims.pop()

    @classmethod
    def value(cls, params, x, t):
        parts = cls._parts(params)
        out = None
        for c, fam, p in parts:
            v = c * fam.value(p, x, t)
            out = v if out is None else out + v
        return out

    @classmethod
    def value_gradient_moduli(cls, params, x, t):
        val = grad = mod = None
        for c, fam, p in cls._parts(params):
            v, g, m = fam.value_gradient_moduli(p, x, t)
            m = abs(c) * (np.abs(v) if m is None else m)
            v, g = c * v, c * g
            val, grad, mod = ((v, g, m) if val is None
                              else (val + v, grad + g, mod + m))
        return val, grad, mod


@register("spinor_product")
class SpinorProduct:
    """Scalar family times a constant spinor (a spin eigenstate)."""

    @staticmethod
    def _parts(params):
        chi = np.asarray(params["chi"], dtype=complex)
        return get_family(params["scalar"]), params["scalar_params"], chi

    @classmethod
    def config_dim(cls, params):
        fam, p, _ = cls._parts(params)
        return fam.config_dim(p)

    @classmethod
    def spin_dim(cls, params):
        return len(cls._parts(params)[2])

    @staticmethod
    def _scalar_only(scalar):
        if scalar.shape[0] != 1:
            raise UnsupportedFamilyError("spinor_product wraps scalar families only")
        return scalar[0]

    @classmethod
    def value(cls, params, x, t):
        fam, p, chi = cls._parts(params)
        scalar = cls._scalar_only(fam.value(p, x, t))
        return chi[:, None] * scalar[None, :]

    @classmethod
    def value_gradient_moduli(cls, params, x, t):
        fam, p, chi = cls._parts(params)
        v, g, m = fam.value_gradient_moduli(p, x, t)
        return (chi[:, None] * cls._scalar_only(v)[None, :],
                chi[:, None, None] * g[0][None, :, :],
                None if m is None else np.abs(chi)[:, None] * m[0][None, :])


@register("plane_wave_sum")
class PlaneWaveSum:
    """Finite plane-wave sum psi = sum_i A_i exp(i(K_i.x - w_i t)).

    params: k (nterm, d) wavevectors, omega (nterm,) frequencies and amps
    (nterm, spin_dim) amplitudes, each a coefficient times its constant
    spinor or field vector.  The frequencies are given, so hbar does not
    enter, and any dispersion (relativistic, or with the rest energy
    removed) is exact.  k.x and the sum over terms are elementwise sums,
    not matrix products, whose BLAS rounding would depend on how many
    points share the call.
    """

    @staticmethod
    def config_dim(params):
        return np.shape(params["k"])[1]

    @staticmethod
    def spin_dim(params):
        return np.shape(params["amps"])[1]

    @staticmethod
    def _phases(params, x, t):
        """exp(i(K x - w t)), shape (nterm, n)."""
        k = np.asarray(params["k"], dtype=float)
        x = _as_points(x, k.shape[1])
        kx = k[:, :1] * x[:, 0]
        for a in range(1, k.shape[1]):
            kx = kx + k[:, a:a + 1] * x[:, a]
        return np.exp(1j * (kx - (np.asarray(params["omega"]) * t)[:, None]))

    @classmethod
    def value(cls, params, x, t):
        """Shape (spin_dim, n), C-contiguous."""
        return np.einsum("ts,tn->sn", params["amps"], cls._phases(params, x, t))

    @classmethod
    def value_gradient_moduli(cls, params, x, t):
        phases = cls._phases(params, x, t)
        mod = np.sum(np.abs(params["amps"]), axis=0)
        return (np.einsum("ts,tn->sn", params["amps"], phases),
                np.einsum("ts,td,tn->sdn", params["amps"],
                          1j * np.asarray(params["k"], dtype=float), phases),
                np.repeat(mod[:, None], phases.shape[1], axis=1))

    @staticmethod
    def scale(params):
        """Typical density scale sum_i |A_i|^2."""
        return float(np.sum(np.abs(params["amps"]) ** 2))
