"""Hypothesis strategies for random states and observers.

Shared by the DKP and Dirac property tests and the closed-form family
tests.  Coefficients and polarizations are bounded away from zero so a
drawn state is never identically zero; everything else (momenta, signs,
spins, term counts, observer boosts) ranges freely.  Widths and masses
are bounded away from zero so a single closed-form term is finite.
"""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pilotwave.dkp import ObserverVector, build_dkp_state
from pilotwave.reldirac import PlaneWaveSpinorState

N_POINTS = 20

_real = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
vectors = arrays(float, 3, elements=_real)
points = arrays(float, (N_POINTS, 3),
                elements=st.floats(-4.0, 4.0, allow_nan=False,
                                   allow_infinity=False))
times = st.floats(0.0, 3.0)
masses = st.floats(0.3, 2.0)
coefficients = st.builds(lambda r, phi: r * np.exp(1j * phi),
                         st.floats(0.1, 2.0), st.floats(0.0, 2 * np.pi))


@st.composite
def complex_vectors(draw):
    v = draw(vectors) + 1j * draw(vectors)
    assume(np.linalg.norm(v) > 0.1)
    return v


@st.composite
def observers(draw):
    """Future-causal n^mu = (|s| + u, s) with a boost s and u > 0."""
    s = draw(vectors)
    u = draw(st.floats(0.01, 2.0))
    return ObserverVector(np.concatenate([[np.linalg.norm(s) + u], s]))


@st.composite
def dkp_states(draw, rep, massless, mass):
    """A 1-3 term DKP (massive) or Harish-Chandra (massless) state."""
    waves = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(vectors)
        spec = {"coef": draw(coefficients), "p": p}
        if rep == "spin1":
            pol = draw(complex_vectors())
            if massless:
                assume(p @ p > 0.01)
                pol = pol - p * (p @ pol) / (p @ p)
                assume(np.linalg.norm(pol) > 0.1)
            spec["polarization"] = pol
        elif massless:
            assume(p @ p > 0.01)
        waves.append(spec)
    return build_dkp_state(rep, mass, waves, massless=massless)


@st.composite
def boxed_dkp_states(draw):
    """(state, box, points_per_axis) for a massive 1-4 term DKP state.

    Momenta are 2 pi (n + f) / L per axis, for distinct integer vectors n
    in [-2, 2]^3 and box lengths L: lattice momenta of the box when the
    offsets f are 0, off-lattice ones when f is drawn from [-1/4, 1/4].
    Distinct n with |f| <= 1/4 keep every two terms at least half a
    lattice step apart, also across the node aliasing at 5-16 nodes, so
    the total P is not a near-cancellation of term pairs."""
    rep = draw(st.sampled_from(["spin0", "spin1"]))
    lo = draw(arrays(float, 3, elements=st.floats(-3.0, 3.0)))
    length = draw(arrays(float, 3, elements=st.floats(0.5, 6.0)))
    lattice = draw(st.booleans())
    waves = []
    for n in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3),
                           min_size=1, max_size=4, unique=True)):
        f = 0.0 if lattice else draw(
            arrays(float, 3, elements=st.floats(-0.25, 0.25)))
        spec = {"coef": draw(coefficients),
                "p": 2 * np.pi * (np.array(n) + f) / length}
        if rep == "spin1":
            spec["polarization"] = draw(complex_vectors())
        waves.append(spec)
    state = build_dkp_state(rep, draw(masses), waves)
    return state, list(zip(lo, lo + length)), draw(st.integers(5, 16))


@st.composite
def dkp_kinds(draw):
    """(rep, massless, mass) shared by the states of one test case."""
    return (draw(st.sampled_from(["spin0", "spin1"])), draw(st.booleans()),
            draw(masses))


def _dirac_particle(draw):
    return (draw(vectors), draw(st.sampled_from([-1, 1])),
            draw(st.integers(0, 1)))


@st.composite
def dirac_states(draw, n_particles=1):
    """A 1-3 term plane-wave spinor state, one or two particles, with
    both energy signs; two-particle states may be antisymmetrized."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if n_particles == 1:
            terms.append((draw(coefficients), *_dirac_particle(draw)))
        else:
            terms.append((draw(coefficients), _dirac_particle(draw),
                          _dirac_particle(draw)))
    state = PlaneWaveSpinorState(tuple(terms), mass=draw(masses),
                                 n_particles=n_particles)
    if n_particles == 2 and draw(st.booleans()):
        state = state.antisymmetrized()
    return state


_widths = st.floats(0.3, 2.0)


def _axis_vector(d, lo=-2.0, hi=2.0):
    return arrays(float, d, elements=st.floats(lo, hi))


@st.composite
def single_term_states(draw):
    """(family name, params, masses) of a random single closed-form
    scalar term: one of the five families that have a log-derivative."""
    name = draw(st.sampled_from(["plane_wave", "gaussian_packet",
                                 "decaying_pair", "post_collapse_pair",
                                 "correlated_pair"]))
    d = draw(st.integers(1, 3))
    if name == "plane_wave":
        m = draw(masses)
        return name, {"k": draw(_axis_vector(d)), "m": m}, [m]
    if name == "gaussian_packet":
        m = draw(masses)
        sigma = draw(st.one_of(_widths, arrays(float, d, elements=_widths)))
        return name, {"center": draw(_axis_vector(d)), "sigma": sigma,
                      "k0": draw(_axis_vector(d)), "m": m}, [m]
    if name == "post_collapse_pair":
        m = draw(masses)
        alpha0 = draw(_widths) + 1j * draw(st.floats(-1.0, 1.0))
        return name, {"a": draw(_axis_vector(d)), "alpha0": alpha0,
                      "t0": draw(st.floats(0.0, 1.0)), "m": m,
                      "N": draw(st.floats(0.1, 2.0))}, [m]
    m1, m2 = draw(masses), draw(masses)
    params = {"alpha": draw(_widths), "m1": m1, "m2": m2, "d": d,
              "N": draw(st.floats(0.1, 2.0))}
    if name == "correlated_pair":
        params["sigma_x"] = draw(_widths)
        params["center"] = draw(st.one_of(st.floats(-1.0, 1.0),
                                          _axis_vector(d, -1.0, 1.0)))
    return name, params, [m1, m2]


def config_points(config_dim, n=N_POINTS):
    """n configurations in [-3, 3]^config_dim."""
    return arrays(float, (n, config_dim),
                  elements=st.floats(-3.0, 3.0, allow_nan=False,
                                     allow_infinity=False))


@st.composite
def scalar_sums(draw):
    """(family name, params, masses) of a random scalar sum of 1-3 terms:
    Gaussian packets in a ``superposition``, or a ``plane_wave_sum``
    with one spin component."""
    d, m, n = draw(st.integers(1, 3)), draw(masses), draw(st.integers(1, 3))
    if draw(st.booleans()):
        return "superposition", {"components": [
            (draw(coefficients), "gaussian_packet",
             {"center": draw(_axis_vector(d)), "sigma": draw(_widths),
              "k0": draw(_axis_vector(d)), "m": m}) for _ in range(n)]}, [m]
    return "plane_wave_sum", {
        "k": draw(arrays(float, (n, d), elements=_real)),
        "omega": draw(arrays(float, n, elements=_real)),
        "amps": np.array([[draw(coefficients)] for _ in range(n)])}, [m]


@st.composite
def spinor_sums(draw):
    """(params, masses) of a random ``superposition`` of 1-3 spin-1/2
    ``spinor_product`` Gaussians in three dimensions, each with its own
    spinor."""
    m, n = draw(masses), draw(st.integers(1, 3))
    return {"components": [
        (draw(coefficients), "spinor_product",
         {"scalar": "gaussian_packet",
          "chi": [draw(coefficients), draw(coefficients)],
          "scalar_params": {"center": draw(_axis_vector(3)),
                            "sigma": draw(_widths),
                            "k0": draw(_axis_vector(3)), "m": m}})
        for _ in range(n)]}, [m]


def scale_coefficients(name, params, c):
    """The params of a `scalar_sums` or `spinor_sums` state with every
    coefficient times c."""
    if name == "superposition":
        return {"components": [(c * a, f, p) for a, f, p in params["components"]]}
    return dict(params, amps=c * params["amps"])
