"""Every refusal of the package, one row each: the smallest input that
reaches it and the class it must raise.  A guard on the program's own
results, which no input reaches, is forced with `mock.patch`.

A row names its `raise` statement by module, enclosing function, error
class and, where those three are shared, a fragment of the statement's
source.  `test_every_raise_has_a_row` walks each module's syntax tree,
in the style of `test_imports.py`, and asks for exactly one row per
`raise`, the import-time self-checks excepted.  `test_refusal` runs the
row and checks the class exactly (a subclass does not pass) and, from
the traceback, that the error left the named `raise`.
"""

import ast
import os
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

from pilotwave import decay, dkp, evolve, families, guide, reldirac
from pilotwave.currents import (EmPotential, SpinSpec, bilinear_flow,
                                configuration_velocity, continuity_residual,
                                current)
from pilotwave.decay import (DecayPairSpec, EnergyShellSpec, LensSpec,
                             MomentumCorrelationSpec)
from pilotwave.dkp import ObserverVector, build_dkp_state
from pilotwave.errors import (CausalityViolationError, ConfigurationError,
                              DegenerateObserverError, DomainError,
                              InvariantViolationError, NodeError, NoFluxError,
                              NotSeparatedError, PhysicsError, PilotWaveError,
                              SamplerFailureError, ShapeError, StabilityError,
                              UnsupportedFamilyError)
from pilotwave.evolve import Propagator, propagate_to
from pilotwave.grid import Grid
from pilotwave.matrices import build_matrix_set
from pilotwave.reldirac import PlaneWaveSpinorState, free_spinor
from pilotwave.wavefunction import (GridWaveFunction, ParametricWaveFunction,
                                    grid_gradient)

SRC = Path(__file__).resolve().parent.parent / "src" / "pilotwave"
# every module of the package: one that raises nothing adds no site
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# (module, function) of the checks that run once, at import, and fire
# only on a bug in the module itself
IMPORT_CHECKS = {("currents", "_spin_generators"),
                 ("matrices", "_check_dirac"), ("matrices", "_check_dkp")}


class Site(NamedTuple):
    module: str
    function: str
    error: str
    source: str
    lines: range


def raise_sites(module, text):
    """Every `raise` in the source `text` of `module` with its enclosing
    function's qualified name, the name of the class it raises, its
    source and its lines."""
    sites = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise):
                call = child.exc
                name = call.func if isinstance(call, ast.Call) else call
                sites.append(Site(module, ".".join(scope), name.id,
                                  ast.get_source_segment(text, child),
                                  range(child.lineno, child.end_lineno + 1)))
            walk(child, scope)

    walk(ast.parse(text), [])
    return sites


class Row(NamedTuple):
    module: str
    function: str
    error: type
    call: Callable
    fragment: str = ""       # of the raise's source, where the rest is shared


def packet():
    return ParametricWaveFunction(
        "gaussian_packet", {"center": [0.0], "sigma": 0.5, "m": 1.0}, [1.0])


def pair():
    return ParametricWaveFunction(
        "decaying_pair", {"alpha": 0.5, "m1": 1.0, "m2": 2.0, "d": 1}, [1.0, 2.0])


def on_grid(points=8, time=0.0, values=None):
    grid = Grid([(-2.0, 2.0)], [points])
    vals = np.exp(-grid.axes[0] ** 2) if values is None else values
    return GridWaveFunction(grid, vals, [1.0], time=time)


def narrow_edge_packet(sigma):
    """A packet centred on the lower face of [-1, 1], so narrow that
    the uniform envelope accepts about 0.6 sigma of the proposals."""
    return ParametricWaveFunction(
        "gaussian_packet", {"center": [-1.0], "sigma": sigma, "m": 1.0}, [1.0])


def threads(raw):
    with mock.patch.dict(os.environ, {"PILOTWAVE_THREADS": raw}):
        return guide.thread_count()


PLANE_WAVE_SUM = {"k": [[1.0, 0.0, 0.0]], "omega": [1.0], "amps": [[1.0]]}


def spin0(p=(0.0, 0.0, 0.0), massless=False):
    return build_dkp_state("spin0", 1.0, [{"p": list(p)}], massless=massless)


def dirac(*parts, sign=+1):
    """A one-term Dirac state: one particle at rest, or, given parts
    (p, sign, spin), that many particles."""
    if not parts:
        return PlaneWaveSpinorState(((1.0, [0.0] * 3, sign, 0),), 1.0)
    return PlaneWaveSpinorState(((1.0,) + parts,), 1.0, n_particles=len(parts))


def pauli_pair():
    """Two particles in the same mode, antisymmetrized: zero everywhere."""
    mode = ([0.5, 0.0, 0.0], +1, 0)
    return dirac(mode, mode).antisymmetrized()


def patched(module, call, **names):
    """call() with the given names of `module` replaced."""
    with mock.patch.multiple(module, **names):
        return call()


def imaging():
    return decay.imaging_trajectories(
        DecayPairSpec(alpha=0.01, m1=1.0, m2=1.0), LensSpec(f=1.0, S=2.0),
        [2.0, 0.1, 0.0], n=4)


def runs_left_the_lens_unreached(ensemble, *args, **kwargs):
    """`integrate_ensemble` with every run reported `ok`, none `exited`."""
    lens_hit, status, record = guide.integrate_ensemble(ensemble, *args,
                                                        **kwargs)
    return lens_hit, np.full_like(status, "ok"), record


class BeamThatNeverLands(decay._ConvergingGaussianSource):
    def first_crossing(self, starts, x_plane, t_end):
        return np.zeros(len(starts)), np.zeros(len(starts), dtype=bool)


def doubling(psi, prop, t_mid):
    """A split step's one factor, which doubles psi and so its norm."""
    return [((False,) * psi.grid.ndim, lambda vals: 2.0 * vals)]


def split_step(**kwargs):
    return Propagator("split-step", 0.1, **kwargs)

ROWS = [
    # currents
    Row("currents", "SpinSpec.__post_init__", ShapeError,
        lambda: SpinSpec(2)),
    Row("currents", "_require_closed_form", ShapeError,
        lambda: current(on_grid(), None, at=[[0.0]])),
    Row("currents", "_require_spin", ShapeError,
        lambda: current(packet(), SpinSpec(0.5), at=[[0.0]])),
    Row("currents", "current", ShapeError,
        lambda: current(pair(), None, at=[[0.0, 0.0]])),
    Row("currents", "continuity_residual", ShapeError,
        lambda: continuity_residual(packet(), packet(), None),
        "needs grid snapshots"),
    Row("currents", "continuity_residual", ShapeError,
        lambda: continuity_residual(on_grid(8), on_grid(9, time=1.0), None),
        "different grids"),
    Row("currents", "continuity_residual", ShapeError,
        lambda: continuity_residual(on_grid(), on_grid(), None),
        "time ordered"),
    Row("currents", "configuration_velocity", ShapeError,
        lambda: configuration_velocity(pair(), [[0.0, 0.0]], em=EmPotential())),
    Row("currents", "bilinear_flow", DomainError,
        lambda: reldirac.dirac_velocity(dirac(), [[np.nan, 0.0, 0.0]], 0.0)),
    Row("currents", "bilinear_flow", InvariantViolationError,
        lambda: bilinear_flow(np.array([[-1.0], [0.0], [0.0], [0.0]]), 1.0)),
    Row("currents", "bilinear_flow", NodeError,
        lambda: reldirac.dirac2_velocity(pauli_pair(), [[0.1, 0.2, 0.3]],
                                         [[-0.4, 0.5, 0.6]], 0.1)),
    Row("currents", "bilinear_flow", CausalityViolationError,
        lambda: bilinear_flow(np.array([[1.0], [0.5], [0.0], [0.0], [1.5],
                                        [0.0], [0.0]]), 1.0)),
    # decay
    Row("decay", "DecayPairSpec.__post_init__", ConfigurationError,
        lambda: DecayPairSpec(alpha=0.0, m1=1.0, m2=1.0), "alpha"),
    Row("decay", "DecayPairSpec.__post_init__", ConfigurationError,
        lambda: DecayPairSpec(alpha=1.0, m1=0.0, m2=1.0), "masses"),
    Row("decay", "LensSpec.__post_init__", ConfigurationError,
        lambda: LensSpec(f=0.0, S=1.0), "focal length"),
    Row("decay", "LensSpec.__post_init__", ConfigurationError,
        lambda: LensSpec(f=1.0), "give S"),
    Row("decay", "LensSpec.__post_init__", ConfigurationError,
        lambda: LensSpec(f=1.0, S=2.0, S_image=3.0), "thin-lens"),
    Row("decay", "LensSpec.__post_init__", ConfigurationError,
        lambda: LensSpec(f=1.0, S=0.5), "distances"),
    Row("decay", "LensSpec.__post_init__", ConfigurationError,
        lambda: LensSpec(f=1.0, S=2.0, waist=0.0), "waist"),
    Row("decay", "EnergyShellSpec.__post_init__", ConfigurationError,
        lambda: EnergyShellSpec(e_plus=1.0, e_minus=2.0), "E_minus"),
    Row("decay", "EnergyShellSpec.__post_init__", ConfigurationError,
        lambda: EnergyShellSpec(e_plus=2.0, e_minus=1.0, mass=0.0), "mass"),
    Row("decay", "pair_trajectories", ShapeError,
        lambda: decay.pair_trajectories(
            DecayPairSpec(alpha=1.0, m1=1.0, m2=1.0), [0.0] * 3, [1.0] * 3,
            [1.0, 2.0])),
    Row("decay", "MomentumCorrelationSpec.__post_init__", ConfigurationError,
        lambda: MomentumCorrelationSpec(sigma=0.0, alpha=1.0, m1=1.0, m2=1.0)),
    Row("decay", "variance_evolution", ShapeError,
        lambda: decay.variance_evolution(
            MomentumCorrelationSpec(sigma=0.5, alpha=0.8, m1=1.0, m2=1.0),
            [-1.0, 1.0], monte_carlo_n=1)),
    Row("decay", "energy_shell_density", ShapeError,
        lambda: decay.energy_shell_density(
            EnergyShellSpec(e_plus=2.0, e_minus=1.0), -1.0)),
    Row("decay", "imaging_trajectories", PhysicsError,
        lambda: decay.imaging_trajectories(
            DecayPairSpec(alpha=0.01, m1=1.0, m2=2.0), LensSpec(f=1.0, S=2.0),
            [2.0, 0.0, 0.0], n=4), "equal masses"),
    Row("decay", "imaging_trajectories", ShapeError,
        lambda: decay.imaging_trajectories(
            DecayPairSpec(alpha=0.01, m1=1.0, m2=1.0), LensSpec(f=1.0, S=2.0),
            [2.0, 0.0], n=4)),
    Row("decay", "imaging_trajectories", PhysicsError,
        lambda: decay.imaging_trajectories(
            DecayPairSpec(alpha=0.01, m1=1.0, m2=1.0), LensSpec(f=1.0, S=2.0),
            [1.0, 0.0, 0.0], n=4), "detector-1 plane"),
    Row("decay", "imaging_trajectories", PhysicsError,
        lambda: patched(decay, imaging,
                        integrate_ensemble=runs_left_the_lens_unreached),
        "lens plane"),
    Row("decay", "imaging_trajectories", PhysicsError,
        lambda: patched(decay, imaging,
                        _ConvergingGaussianSource=BeamThatNeverLands),
        "image plane"),
    # dkp
    Row("dkp", "ObserverVector.__post_init__", ShapeError,
        lambda: ObserverVector(np.ones(3))),
    Row("dkp", "ObserverVector.__post_init__", PhysicsError,
        lambda: ObserverVector([-1.0, 0.0, 0.0, 0.0]), "positive time"),
    Row("dkp", "ObserverVector.__post_init__", PhysicsError,
        lambda: ObserverVector([1.0, 2.0, 0.0, 0.0]), "causal"),
    Row("dkp", "_spin1_components", ShapeError,
        lambda: build_dkp_state("spin1", 1.0, [
            {"p": [0.0] * 3, "polarization": [1.0, 0.0]}])),
    Row("dkp", "_spin1_components", PhysicsError,
        lambda: build_dkp_state("spin1", 1.0, [
            {"p": [1.0, 0.0, 0.0], "polarization": [1.0, 0.0, 0.0]}],
            massless=True)),
    Row("dkp", "build_dkp_state", ConfigurationError,
        lambda: build_dkp_state("spin2", 1.0, [])),
    Row("dkp", "build_dkp_state", PhysicsError,
        lambda: build_dkp_state("spin0", 0.0, []), "must be positive"),
    Row("dkp", "build_dkp_state", ShapeError,
        lambda: build_dkp_state("spin0", 1.0, [{"p": [1.0]}])),
    Row("dkp", "build_dkp_state", PhysicsError,
        lambda: build_dkp_state("spin0", 1.0, [{"p": [0.0] * 3, "E": 2.0}]),
        "off-shell"),
    Row("dkp", "build_dkp_state", PhysicsError,
        lambda: spin0(massless=True), "nonzero momentum"),
    Row("dkp", "build_dkp_state", InvariantViolationError,
        lambda: patched(dkp, spin0,
                        _spin0_components=lambda p, e, m: np.ones(5))),
    Row("dkp", "total_energy_momentum", ShapeError,
        lambda: dkp.total_energy_momentum(spin0(), [(0.0, 1.0)])),
    Row("dkp", "total_energy_momentum", DegenerateObserverError,
        lambda: dkp.total_energy_momentum(spin0([1.0, 0.0, 0.0], True),
                                          [(0.0, 2.0 * np.pi)] * 3, 4)),
    Row("dkp", "reduced_nonrel_state", PhysicsError,
        lambda: dkp.reduced_nonrel_state(spin0([1.0, 0.0, 0.0], True))),
    Row("dkp", "dkp2_velocity", ShapeError,
        lambda: dkp.dkp2_velocity(spin0(), spin0([1.0, 0.0, 0.0], True),
                                  [[0.0] * 3], [[0.0] * 3], 0.0)),
    # evolve
    Row("evolve", "Propagator.__post_init__", ConfigurationError,
        lambda: Propagator("euler", 0.1), "unknown propagation method"),
    Row("evolve", "Propagator.__post_init__", StabilityError,
        lambda: Propagator("analytic", 0.0)),
    Row("evolve", "Propagator.__post_init__", ConfigurationError,
        lambda: split_step(em=EmPotential(v=lambda x, t: x)),
        "no vector potential"),
    Row("evolve", "Propagator.__post_init__", ShapeError,
        lambda: split_step(coupling=(0, np.array([[0.0, 0.0], [1.0, 1.0]])))),
    Row("evolve", "_potential_factor", StabilityError,
        lambda: evolve.step(on_grid(), Propagator(
            "split-step", 1.0, potential=lambda x, t: np.ones(len(x))))),
    Row("evolve", "step", UnsupportedFamilyError,
        lambda: evolve.step(on_grid(), Propagator("analytic", 0.1)),
        "needs a parametric state"),
    Row("evolve", "step", UnsupportedFamilyError,
        lambda: evolve.step(packet(), Propagator(
            "analytic", 0.1, potential=lambda x, t: np.zeros(len(x)))),
        "evolve freely"),
    Row("evolve", "step", ShapeError,
        lambda: evolve.step(packet(), split_step()), "needs a grid state"),
    Row("evolve", "step", ShapeError,
        lambda: evolve.step(on_grid(), split_step(spin=SpinSpec(0.5))),
        "spin does not match"),
    Row("evolve", "step", StabilityError,
        lambda: patched(evolve, lambda: evolve.step(on_grid(), split_step()),
                        _factors=doubling)),
    Row("evolve", "propagate_to", ShapeError,
        lambda: propagate_to(packet(), Propagator("analytic", 0.1), 1.0,
                             [0.5, 0.2]), "strictly increasing"),
    Row("evolve", "propagate_to", ShapeError,
        lambda: propagate_to(packet(), Propagator("analytic", 0.1), 1.0,
                             [2.0]), "within"),
    # families
    Row("families", "get_family", ConfigurationError,
        lambda: families.build("no_such_family", {})),
    Row("families", "build", ConfigurationError,
        lambda: families.build("plane_wave", {"k": [1.0]})),
    Row("families", "_per_axis", ConfigurationError,
        lambda: families.build("gaussian_packet", {
            "center": [0.0, 0.0], "sigma": [1.0, 2.0, 3.0], "m": 1.0})),
    Row("families", "_as_points", ShapeError,
        lambda: packet().evaluate([[0.0, 0.0]])),
    Row("families", "Superposition.__init__", ConfigurationError,
        lambda: families.build("superposition", {"components": []})),
    Row("families", "Superposition._shared", ConfigurationError,
        lambda: families.build("superposition", {"components": [
            (1.0, "plane_wave", {"k": [1.0], "m": 1.0}),
            (1.0, "plane_wave", {"k": [1.0, 0.0], "m": 1.0})]})),
    Row("families", "SpinorProduct.__init__", UnsupportedFamilyError,
        lambda: families.build("spinor_product", {
            "scalar": "spinor_product", "chi": [1.0, 0.0], "scalar_params": {
                "scalar": "plane_wave", "scalar_params": {"k": [1.0], "m": 1.0},
                "chi": [1.0, 0.0]}})),
    Row("families", "SpinorProduct.__init__", ConfigurationError,
        lambda: families.build("spinor_product", {
            "scalar": "plane_wave", "scalar_params": {"k": [1.0], "m": 1.0},
            "chi": [[1.0, 0.0]]})),
    Row("families", "PlaneWaveSum.__init__", ConfigurationError,
        lambda: families.build("plane_wave_sum", {
            "k": [1.0], "omega": [1.0], "amps": [[1.0]]})),
    # grid
    Row("grid", "Grid.__init__", ConfigurationError,
        lambda: Grid([(0.0, 1.0)], [2, 2]), "equal length"),
    Row("grid", "Grid.__init__", ConfigurationError,
        lambda: Grid([], []), "at least one axis"),
    Row("grid", "Grid.__init__", ConfigurationError,
        lambda: Grid([(0.0, 1.0)], [1]), "at least 2 points"),
    Row("grid", "Grid.__init__", ConfigurationError,
        lambda: Grid([(1.0, 1.0)], [2]), "empty axis interval"),
    Row("grid", "Grid.__init__", ConfigurationError,
        lambda: Grid([(0.0, 1.0)] * 3, [4096] * 3), "memory budget"),
    Row("grid", "Grid.require_inside", ShapeError,
        lambda: Grid([(0.0, 1.0)], [2]).require_inside([[0.5, 0.5]])),
    Row("grid", "Grid.require_inside", DomainError,
        lambda: Grid([(0.0, 1.0)], [2]).require_inside([[2.0]])),
    # guide
    Row("guide", "thread_count", ConfigurationError, lambda: threads("0")),
    Row("guide", "IntegrationControls.__post_init__", StabilityError,
        lambda: guide.IntegrationControls(dt=0.0)),
    Row("guide", "SnapshotVelocity.__init__", ShapeError,
        lambda: guide.SnapshotVelocity([])),
    Row("guide", "SnapshotVelocity._field", ShapeError,
        lambda: guide.SnapshotVelocity([packet()]), "must be grid states"),
    Row("guide", "SnapshotVelocity._field", ShapeError,
        lambda: guide.SnapshotVelocity([on_grid(8), on_grid(9, time=1.0)]),
        "mismatched grids"),
    Row("guide", "SnapshotVelocity._hold", ShapeError,
        lambda: guide.SnapshotVelocity([on_grid(), on_grid()])),
    Row("guide", "sample_equilibrium", ShapeError,
        lambda: guide.sample_equilibrium(on_grid(), 0, seed=1), "n must be"),
    Row("guide", "sample_equilibrium", ConfigurationError,
        lambda: guide.sample_equilibrium(on_grid(), 1, seed=1,
                                         envelope="unifrom")),
    Row("guide", "sample_equilibrium", ShapeError,
        lambda: guide.sample_equilibrium(packet(), 1, seed=1),
        "explicit sampling box"),
    Row("guide", "sample_equilibrium", SamplerFailureError,
        lambda: guide.sample_equilibrium(on_grid(values=np.zeros(8)), 1,
                                         seed=1),
        "density vanished"),
    Row("guide", "sample_equilibrium", SamplerFailureError,
        lambda: guide.sample_equilibrium(narrow_edge_packet(1e-5), 1, seed=1,
                                         box=[(-1.0, 1.0)]),
        "one probe node"),
    Row("guide", "sample_equilibrium", SamplerFailureError,
        lambda: guide.sample_equilibrium(narrow_edge_packet(1e-5), 100, seed=1,
                                         box=[(-1.0, 1.0)], envelope="uniform"),
        "acceptance rate"),
    Row("guide", "sample_equilibrium", SamplerFailureError,
        lambda: guide.sample_equilibrium(narrow_edge_packet(3.7e-4), 1024,
                                         seed=1, box=[(-1.0, 1.0)],
                                         envelope="uniform"),
        "batch budget"),
    Row("guide", "_rk4_many", ShapeError,
        lambda: guide.integrate_trajectory(
            guide.BeableConfig(np.zeros((1, 1))),
            guide.ParametricVelocity(packet()), 0.0,
            guide.IntegrationControls(dt=0.1))),
    Row("guide", "_rk4_many", DomainError,
        lambda: guide.integrate_trajectory(
            guide.BeableConfig(np.full((1, 1), np.nan)),
            guide.ParametricVelocity(packet()), 1.0,
            guide.IntegrationControls(dt=0.1))),
    Row("guide", "marginal_cdf_by_quadrature", ConfigurationError,
        lambda: guide.marginal_cdf_by_quadrature(packet(), 0, [(100.0, 101.0)])),
    Row("guide", "equivariance_check", ShapeError,
        lambda: guide.equivariance_check(packet(), None, 999, 1.0)),
    Row("guide", "arrival_time_stats", ShapeError,
        lambda: guide.arrival_time_stats(packet(), [1.0], None, [1.0, 0.0])),
    Row("guide", "arrival_time_stats", NoFluxError,
        lambda: guide.arrival_time_stats(
            ParametricWaveFunction("plane_wave", {"k": [0.0], "m": 1.0}, [1.0]),
            [1.0], None, [0.0, 1.0])),
    Row("guide", "measurement_branching", ShapeError,
        lambda: guide.measurement_branching([1.0], [-1.0, 1.0], n=10)),
    Row("guide", "measurement_branching", NotSeparatedError,
        lambda: guide.measurement_branching([1.0, 1.0], [-1.5, 1.5], n=200,
                                            seed=15, coupling=1.0,
                                            free_flight=0.0,
                                            grid_points=(32, 64))),
    # matrices
    Row("matrices", "MatrixSet.constraint_residual_op", ConfigurationError,
        lambda: build_matrix_set("dirac4").constraint_residual_op(
            np.zeros(3), 1.0)),
    Row("matrices", "build_matrix_set", ConfigurationError,
        lambda: build_matrix_set("dkp99")),
    # reldirac
    Row("reldirac", "free_spinor", ConfigurationError,
        lambda: free_spinor([0.0] * 3, 1.0, 0, 0), "energy sign"),
    Row("reldirac", "free_spinor", ConfigurationError,
        lambda: free_spinor([0.0] * 3, 1.0, 1, 2), "spin label"),
    Row("reldirac", "PlaneWaveSpinorState.__post_init__", ShapeError,
        lambda: PlaneWaveSpinorState(((1.0, [0.0] * 3, 1, 0),), 1.0,
                                     n_particles=3), "one- and two-particle"),
    Row("reldirac", "PlaneWaveSpinorState.__post_init__", ShapeError,
        lambda: PlaneWaveSpinorState((), 1.0), "at least one term"),
    Row("reldirac", "PlaneWaveSpinorState._check_term", InvariantViolationError,
        lambda: patched(reldirac, dirac, free_spinor=lambda p, m, sign, spin:
                        (np.ones(4, dtype=complex), 1.0))),
    Row("reldirac", "PlaneWaveSpinorState.antisymmetrized", ShapeError,
        lambda: dirac().antisymmetrized()),
    Row("reldirac", "dirac_velocity", ShapeError,
        lambda: reldirac.dirac_velocity(pauli_pair(), [[0.0] * 6], 0.0)),
    Row("reldirac", "dirac2_velocity", ShapeError,
        lambda: reldirac.dirac2_velocity(dirac(), [[0.0] * 3], [[0.0] * 3],
                                         0.0)),
    Row("reldirac", "nonrelativistic_pauli_state", ShapeError,
        lambda: reldirac.nonrelativistic_pauli_state(pauli_pair())),
    Row("reldirac", "nonrelativistic_pauli_state", PhysicsError,
        lambda: reldirac.nonrelativistic_pauli_state(dirac(sign=-1))),
    # wavefunction
    Row("wavefunction", "axis_masses", ConfigurationError,
        lambda: GridWaveFunction(Grid([(0.0, 1.0)], [2]), np.ones(2),
                                 [1.0, 1.0])),
    Row("wavefunction", "ParametricWaveFunction.__init__", ConfigurationError,
        lambda: ParametricWaveFunction("plane_wave_sum", PLANE_WAVE_SUM, [0.0]),
        "masses must be positive"),
    Row("wavefunction", "ParametricWaveFunction.__init__", ConfigurationError,
        lambda: ParametricWaveFunction("plane_wave", {"k": [1.0], "m": 1.0},
                                       [2.0]),
        "params give masses"),
    Row("wavefunction", "ParametricWaveFunction._at", ShapeError,
        lambda: packet().evaluate([[0.0], [1.0]], t=np.zeros(3))),
    Row("wavefunction", "GridWaveFunction.__init__", ShapeError,
        lambda: GridWaveFunction(Grid([(0.0, 1.0)], [2]), np.ones(3), [1.0])),
    Row("wavefunction", "GridWaveFunction.__init__", ConfigurationError,
        lambda: GridWaveFunction(Grid([(0.0, 1.0)], [2]), np.ones(2), [0.0])),
    Row("wavefunction", "GridWaveFunction.normalized", ConfigurationError,
        lambda: on_grid(values=np.zeros(8)).normalized()),
    Row("wavefunction", "_axis_derivative", ShapeError,
        lambda: grid_gradient(np.zeros(4), Grid([(0.0, 1.0)], [4]))),
]


def resolve(row, sites):
    """The sites a row names."""
    return [s for s in sites
            if (s.module, s.function, s.error)
            == (row.module, row.function, row.error.__name__)
            and row.fragment in s.source]


SITES = [s for m in MODULES
         for s in raise_sites(m, (SRC / f"{m}.py").read_text())]


def test_every_raise_has_a_row():
    rows_of = {s: [r for r in ROWS if resolve(r, [s])] for s in SITES}
    missing = [s for s, rows in rows_of.items()
               if not rows and (s.module, s.function) not in IMPORT_CHECKS]
    shared = [s for s, rows in rows_of.items() if len(rows) > 1]
    assert missing == [] and shared == []
    assert [r for r in ROWS if len(resolve(r, SITES)) != 1] == []


def test_sites_are_found():
    sites = raise_sites("m", "def f(x):\n    if x:\n        raise ValueError(\n"
                             "            'x')\n    raise KeyError\n"
                             "class C:\n    def g(self):\n"
                             "        raise TypeError('g')\n")
    assert [(s.function, s.error, list(s.lines)) for s in sites] == [
        ("f", "ValueError", [3, 4]), ("f", "KeyError", [5]),
        ("C.g", "TypeError", [8])]


@pytest.mark.parametrize(
    "row", ROWS,
    ids=lambda r: f"{r.module}.{r.function}:{r.error.__name__}"
                  + (f":{r.fragment}" if r.fragment else ""))
def test_refusal(row):
    (site,) = resolve(row, SITES)
    with pytest.raises(PilotWaveError) as err:
        row.call()
    assert type(err.value) is row.error
    last = err.traceback[-1]
    assert Path(str(last.path)) == SRC / f"{row.module}.py"
    assert last.lineno + 1 in site.lines   # pytest counts lines from 0
