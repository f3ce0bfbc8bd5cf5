"""Outside-in layer tracing for the pilotwave benchmark.

`Tracer` wraps the public entry points of each pilotwave module in place,
records one span per call (name, start, end, parent) in memory, and puts
every original object back when it exits.  Nothing inside the package is
edited: a wrapper is installed on every binding of the original object
that a caller can look it up through (module globals and class
attributes across `pilotwave.*`, plus `numpy.fft`), so names imported
by value (`from .guide import integrate_ensemble` in `decay`) and
methods aliased at class creation (`_RawSnapshotSource.velocity`) are
traced as well.

`layer_metrics` turns the spans into the per-layer figures that
BENCHMARK.json lists.  A span's self time is its duration minus the
durations of its direct children.
"""

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"

# modules whose globals and classes are searched for bindings; numpy's
# own submodules are left alone so fft2 -> fft calls inside numpy are not
# counted twice
SCOPES = ("pilotwave", "numpy.fft")


def _points(index, name):
    """Row count of the argument at `index` (or keyword `name`)."""
    def get(args, kwargs):
        x = args[index] if len(args) > index else kwargs.get(name)
        shape = np.shape(x)
        return 1 if len(shape) <= 1 else shape[0]
    return get


def _scalar(index, name):
    def get(args, kwargs):
        return int(args[index] if len(args) > index else kwargs[name])
    return get


def _length(index, name):
    def get(args, kwargs):
        return len(args[index] if len(args) > index else kwargs[name])
    return get


def _size(args, kwargs):
    return int(np.size(args[0]))


def _nan_rows(result):
    return int(np.count_nonzero(np.isnan(result).any(axis=1)))


# (layer, kind, module, qualified name, points(args, kwargs), extra(result))
TARGETS = [
    ("families", "value", "pilotwave.wavefunction",
     "ParametricWaveFunction.evaluate", _points(1, "configs"), None),
    ("families", "gradient", "pilotwave.wavefunction",
     "ParametricWaveFunction.gradient", _points(1, "configs"), None),
    ("families", "density", "pilotwave.wavefunction",
     "ParametricWaveFunction.density", _points(1, "configs"), None),
    ("velocity", "velocity", "pilotwave.guide",
     "ParametricVelocity.velocity", _points(1, "configs"), _nan_rows),
    # also bound as _RawSnapshotSource.velocity (measurement branching)
    ("velocity", "velocity", "pilotwave.guide",
     "SnapshotVelocity.velocity", _points(1, "configs"), _nan_rows),
    ("velocity", "velocity", "pilotwave.decay",
     "_ConvergingGaussianSource.velocity", _points(1, "configs"), _nan_rows),
    ("currents", "currents", "pilotwave.currents",
     "configuration_velocity", None, None),
    ("currents", "currents", "pilotwave.currents", "current", None, None),
    ("currents", "currents", "pilotwave.currents",
     "grid_current_nodes", None, None),
    ("rk4", "rk4", "pilotwave.guide", "integrate_ensemble", None, None),
    ("rk4", "rk4", "pilotwave.guide", "integrate_trajectory", None, None),
    ("grid", "interpolate", "pilotwave.grid", "Grid.interpolate",
     _points(2, "configs"), None),
    ("grid", "grid_gradient", "pilotwave.wavefunction", "grid_gradient",
     None, None),
    ("grid", "density", "pilotwave.wavefunction",
     "GridWaveFunction.density", _points(1, "configs"), None),
    ("splitstep", "splitstep", "pilotwave.evolve", "step", None, None),
    ("splitstep", "splitstep", "pilotwave.evolve", "propagate_to", None, None),
    # its inline split-step propagator lives in the function body
    ("splitstep", "splitstep", "pilotwave.guide", "measurement_branching",
     None, None),
] + [
    ("fft", "fft", "numpy.fft", name, _size, None)
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
] + [
    ("sampler", "sampler", "pilotwave.guide", "sample_equilibrium",
     _scalar(1, "n"), None),
    ("quadrature", "quadrature", "pilotwave.guide",
     "marginal_cdf_by_quadrature", None, None),
    ("quadrature", "ks", "pilotwave.guide", "ks_statistic",
     _length(0, "samples"), None),
    ("quadrature", "quadrature", "pilotwave.dkp", "total_energy_momentum",
     None, None),
    ("dkp", "dkp", "pilotwave.dkp", "DkpState.evaluate", _points(1, "x"),
     None),
    ("dkp", "dkp", "pilotwave.dkp", "theta_tensor", _points(1, "x"), None),
    ("dkp", "dkp", "pilotwave.dkp", "energy_momentum_current",
     _points(2, "x"), None),
    ("dkp", "dkp", "pilotwave.dkp", "dkp2_velocity", _points(2, "x1"), None),
    ("reldirac", "reldirac", "pilotwave.reldirac",
     "PlaneWaveSpinorState.amplitude", _points(1, "x"), None),
    ("reldirac", "reldirac", "pilotwave.reldirac", "dirac_velocity",
     _points(1, "x"), None),
    ("reldirac", "reldirac", "pilotwave.reldirac", "dirac2_velocity",
     _points(1, "x1"), None),
    ("decay", "decay", "pilotwave.decay", "pair_trajectories", None, None),
    ("decay", "decay", "pilotwave.decay", "imaging_trajectories", None, None),
    ("decay", "decay", "pilotwave.decay", "variance_evolution", None, None),
    # experiment entry points outside the layers above; their self time is
    # deliberately left out of trace.coverage
    ("experiment", "experiment", "pilotwave.guide", "equivariance_check",
     None, None),
    ("experiment", "experiment", "pilotwave.dkp", "nonrel_limit_check",
     None, None),
]

LAYERS = ("families", "velocity", "currents", "rk4", "grid", "splitstep",
          "fft", "sampler", "quadrature", "dkp", "reldirac", "decay")


def _resolve(module, qualname):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _in_scope(module_name):
    return module_name in SCOPES or module_name.startswith("pilotwave.")


def bindings(original):
    """Every (owner, attribute) through which `original` can be looked up:
    module globals and class attributes in the traced scopes."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not _in_scope(name):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
            elif (inspect.isclass(value) and value.__module__ == name):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        found.append((value, cattr))
    return found


def installed_wrappers():
    """(owner, attribute) pairs that currently hold a tracing wrapper."""
    out = []
    for _, _, module, qualname, _, _ in TARGETS:
        for owner, attr in bindings(_resolve(module, qualname)):
            if getattr(vars(owner)[attr], WRAPPED_MARK, False):
                out.append((owner, attr))
    return out


class Tracer:
    """Context manager that installs the span-recording wrappers.

    spans: list of [target index, start, end, parent span, points, nan rows]
    with times from time.perf_counter(); parent is -1 for a root span.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def _wrap(self, index, original, points, extra):
        spans, lock, local = self.spans, self._lock, self._local
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [index, clock(), 0.0, stack[-1] if stack else -1,
                    points(args, kwargs) if points else 0, 0]
            with lock:
                me = len(spans)
                spans.append(span)
            stack.append(me)
            try:
                result = original(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def __enter__(self):
        try:
            for index, (_, _, module, qualname, points, extra) in \
                    enumerate(TARGETS):
                original = _resolve(module, qualname)
                wrapper = self._wrap(index, original, points, extra)
                for owner, attr in bindings(original):
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span duration minus the summed durations of its direct children."""
    if not spans:
        return np.zeros(0)
    arr = np.array([(s[1], s[2], s[3]) for s in spans], dtype=float)
    dur = arr[:, 1] - arr[:, 0]
    parent = arr[:, 2].astype(int)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(spans))
    return dur - child


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer figures of one traced pass whose experiment calls took
    `wall_s` seconds."""
    n = len(spans)
    kind = [TARGETS[s[0]][1] for s in spans]
    layer = [TARGETS[s[0]][0] for s in spans]
    points = np.array([s[4] for s in spans], dtype=float)
    nan = np.array([s[5] for s in spans], dtype=float)
    parent = [s[3] for s in spans]
    own = self_times(spans)

    # parents are recorded before their children, so one forward sweep
    # propagates "has an ancestor of this kind/layer" flags
    under_velocity = [False] * n
    outermost = [True] * n          # no ancestor in the same layer
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        under_velocity[i] = under_velocity[p] or kind[p] == "velocity"
        q = p
        while q >= 0:
            if layer[q] == layer[i]:
                outermost[i] = False
                break
            q = parent[q]

    def total(values, pred):
        return float(sum(v for v, ok in zip(values, pred) if ok))

    def count(pred):
        return sum(1 for ok in pred if ok)

    def self_of(name):
        return total(own, (lay == name for lay in layer))

    is_kind = lambda *names: [k in names for k in kind]
    passes_ = [k in ("value", "gradient") for k in kind]
    vel = is_kind("velocity")
    vel_points = total(points, vel)
    interp = is_kind("interpolate")
    direct_rk4 = [p >= 0 and kind[p] == "rk4" for p in parent]
    sampler_density = [k == "density" and p >= 0 and kind[p] == "sampler"
                       for k, p in zip(kind, parent)]
    quad_child = [p >= 0 and layer[p] == "quadrature" for p in parent]

    def outer(name):
        return [lay == name and o for lay, o in zip(layer, outermost)]

    covered = sum(self_of(name) for name in LAYERS)
    m = {
        "families.calls": count(passes_),
        "families.points": total(points, passes_),
        "families.self_s": self_of("families"),
        "families.passes_per_point": _ratio(
            total(points, [a and b for a, b in zip(passes_, under_velocity)]),
            vel_points),
        "velocity.calls": count(vel),
        "velocity.points": vel_points,
        "velocity.points_per_call": _ratio(vel_points, count(vel)),
        "velocity.self_s": self_of("velocity"),
        "velocity.nan_frac": _ratio(total(nan, vel), vel_points),
        "currents.self_s": self_of("currents"),
        "rk4.member_steps": total(points, [a and b for a, b in
                                           zip(vel, direct_rk4)]) / 4.0,
        "rk4.self_s": self_of("rk4"),
        "grid.calls": count(is_kind("interpolate", "grid_gradient")),
        "grid.points": total(points, interp),
        "grid.self_s": self_of("grid"),
        "grid.passes_per_point": _ratio(
            total(points, [a and b for a, b in zip(interp, under_velocity)]),
            vel_points),
        "splitstep.self_s": self_of("splitstep"),
        "fft.calls": count(is_kind("fft")),
        "fft.elements": total(points, is_kind("fft")),
        "fft.self_s": self_of("fft"),
        "sampler.self_s": self_of("sampler"),
        "sampler.acceptance": _ratio(total(points, is_kind("sampler")),
                                     total(points, sampler_density)),
        "quadrature.self_s": self_of("quadrature"),
        "quadrature.points": total(points, quad_child)
        + total(points, is_kind("ks")),
        "dkp.calls": count(outer("dkp")),
        "dkp.points": total(points, outer("dkp")),
        "dkp.self_s": self_of("dkp"),
        "reldirac.calls": count(outer("reldirac")),
        "reldirac.points": total(points, outer("reldirac")),
        "reldirac.self_s": self_of("reldirac"),
        "decay.self_s": self_of("decay"),
        "trace.coverage": _ratio(covered, wall_s),
    }
    return m


def span_records(spans):
    """Spans as JSON-ready rows: [name, start, end, parent]."""
    names = [f"{t[2]}:{t[3]}" for t in TARGETS]
    return [[names[s[0]], s[1], s[2], s[3]] for s in spans]
