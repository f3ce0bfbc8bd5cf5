"""Every refusal of the state, grid, family, current and guidance modules,
one row each: the smallest input that reaches it and the class it must
raise.

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

from pilotwave import families, guide
from pilotwave.currents import (EmPotential, SpinSpec, configuration_velocity,
                                continuity_residual, current)
from pilotwave.errors import (ConfigurationError, DomainError,
                              NoFluxError, NotSeparatedError, PilotWaveError,
                              SamplerFailureError, ShapeError, StabilityError,
                              UnsupportedFamilyError)
from pilotwave.grid import Grid
from pilotwave.wavefunction import (GridWaveFunction, ParametricWaveFunction,
                                    grid_gradient)

SRC = Path(__file__).resolve().parent.parent / "src" / "pilotwave"
MODULES = ("currents", "families", "grid", "guide", "wavefunction")

# (module, function) of the checks that run once, at import, and fire
# only on a bug in the module itself
IMPORT_CHECKS = {("currents", "_spin_generators")}


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
    Row("guide", "marginal_cdf_by_quadrature", PilotWaveError,
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
