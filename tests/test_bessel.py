"""J1 implementation against an independent reference."""

import warnings

import numpy as np
import pytest
from scipy import special

from pilotwave.bessel import j1


def test_j1_matches_reference_everywhere():
    x = np.concatenate([
        np.linspace(0.0, 20.0, 4001),
        np.linspace(20.0, 400.0, 4001),
        [1e-8, 1e-4, 13.999, 14.001],
    ])
    ours = j1(x)
    ref = special.j1(x)
    scale = np.maximum(np.abs(ref), 1e-3)   # relative near zeros of J1 is meaningless
    assert np.max(np.abs(ours - ref) / scale) < 1e-11


def test_j1_small_argument_limit():
    # J1(z)/z -> 1/2
    z = np.array([1e-10, 1e-7, 1e-5])
    np.testing.assert_allclose(j1(z) / z, 0.5, rtol=1e-9)


def test_j1_odd():
    x = np.linspace(0.1, 30, 57)
    np.testing.assert_allclose(j1(-x), -j1(x), rtol=0, atol=1e-15)


def test_j1_scalar_input():
    assert np.isscalar(float(j1(1.0)))
    assert j1(0.0) == 0.0


def test_j1_infinite_and_nan_arguments():
    """J1(+-inf) is its limit 0 and J1(NaN) is NaN, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = j1(np.array([np.inf, -np.inf, np.nan, 1.0]))
        scalars = [j1(np.inf), j1(-np.inf), j1(np.nan)]
    np.testing.assert_array_equal(out, [0.0, 0.0, np.nan, j1(1.0)])
    np.testing.assert_array_equal(scalars, [0.0, 0.0, np.nan])
