"""Pilot-wave (de Broglie-Bohm) trajectory simulations.

Its modules cover the shared numerical substrate (grids, parametric
families, matrix sets), probability currents with spin, wavefunction
propagation, beable sampling and trajectory integration, von Neumann
measurement, Dirac and Duffin-Kemmer-Petiau plane-wave states, and the
decaying-system / optical-imaging experiments.

All computation is in natural units, hbar = c = 1: masses and charges
are the only scales.  The physics docstrings keep hbar and c in their
formulas, so each can be read against the literature.
"""

from .grid import Grid
from .matrices import MatrixSet, build_matrix_set
from .wavefunction import (ParametricWaveFunction, GridWaveFunction,
                           grid_gradient)

__version__ = "0.1.0"

__all__ = [
    "Grid", "MatrixSet", "build_matrix_set",
    "ParametricWaveFunction", "GridWaveFunction", "grid_gradient",
    "__version__",
]
