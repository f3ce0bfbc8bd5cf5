"""The four benchmark workloads: inputs made from a seed, one pass of
experiment calls through the public pilotwave API, and the output check
each call's tier-1 test makes.

A *member* is one configuration point whose result an experiment
consumes: a beable trajectory's endpoint at each requested time, or, in
`relativistic`, one point at which a velocity or current is asked for.
A member counts as ok only when its own status is ok, its call did not
raise a PilotWaveError and the call's output passed its check.

Checks come in two kinds.  An *invariant* holds for every valid input
(causality, finiteness, straight pre-lens paths); a failure marks the
run incorrect.  An *acceptance* check is a statistical or accuracy test
that tier-1 runs at fixed seeds (KS at the 1% level, Born weights within
3 sigma, the non-relativistic trend); it fails at a known small rate on
other seeds, so a failure only counts the call's members as failed.
Where a workload runs an ensemble smaller than tier-1's, the statistical
tolerance is rescaled by sqrt(n_tier1 / n) so that it keeps tier-1's
significance.
"""

import time
from dataclasses import dataclass, field

import numpy as np

# experiments are called through their modules, so that a traced pass
# sees the wrappers installed there
from pilotwave import decay, dkp, guide, reldirac
from pilotwave.decay import DecayPairSpec, LensSpec, MomentumCorrelationSpec
from pilotwave.errors import PilotWaveError
from pilotwave.evolve import Propagator
from pilotwave.reldirac import PlaneWaveSpinorState
from pilotwave.wavefunction import ParametricWaveFunction

CAUSAL_TOL = 1e-10
# probe the machine speed after this much call time, so that a long pass
# is rescaled piecewise
PROBE_AFTER_S = 1.0


@dataclass
class Verdict:
    ok: int                                       # members with status ok
    invariant: list = field(default_factory=list)  # failed invariants
    acceptance: list = field(default_factory=list)  # failed acceptance checks


@dataclass
class Tally:
    """Member counts and failures of one pass."""
    attempted: int = 0
    ok: int = 0
    wall_s: float = 0.0             # summed wall time of experiment calls
    scaled_s: float = 0.0           # the same at nominal machine speed
    failures: list = field(default_factory=list)
    invariant_failures: int = 0
    notes: dict = field(default_factory=dict)
    speed: object = None            # run.SpeedReference, if any
    _unscaled_s: float = 0.0

    def run(self, label, members, call, check):
        """Time one experiment call, check its output and count its
        members.  Returns the result, or None when the call raised."""
        self.attempted += members
        start = time.perf_counter()
        try:
            result = call()
        except PilotWaveError as exc:
            self._timed(time.perf_counter() - start)
            self.failures.append(
                f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        self._timed(time.perf_counter() - start)
        verdict = check(result)
        bad = verdict.invariant + verdict.acceptance
        self.failures += [f"{label}: {msg}" for msg in bad]
        self.invariant_failures += len(verdict.invariant)
        if not bad:
            self.ok += verdict.ok
        return result

    def _timed(self, seconds):
        self.wall_s += seconds
        self._unscaled_s += seconds
        if self._unscaled_s >= PROBE_AFTER_S:
            self.finish()

    def finish(self):
        """Rescale the call time since the last speed probe."""
        if self.speed is not None and self._unscaled_s > 0:
            self.scaled_s += self.speed.scale(self._unscaled_s)
            self._unscaled_s = 0.0

    def skip(self, label, members, reason):
        """Count the members of a call that could not be made."""
        self.attempted += members
        self.failures.append(f"{label}: not run: {reason}")


def _sub_seeds(seed, k):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _finite_rows(*arrays):
    good = None
    for a in arrays:
        a = np.atleast_2d(a)
        rows = np.all(np.isfinite(a), axis=1)
        good = rows if good is None else good & rows
    return int(np.count_nonzero(good))


def _subluminal(label, *velocities):
    out = []
    for v in velocities:
        speed2 = np.sum(np.atleast_2d(v) ** 2, axis=-1)
        if not np.all(speed2 <= 1 + CAUSAL_TOL):
            out.append(f"{label} speed {np.sqrt(np.max(speed2)):.12g} > 1")
    return out


# ---------------------------------------------------------------------------


class EnsembleWorkload:
    """Large-batch parametric path: the variance Monte Carlo at three times
    and a free-Gaussian equivariance check."""

    name = "ensemble"
    MC_N = 2000           # tier-1: 10_000
    EQ_N = 2000           # tier-1: 10_000
    TIMES = (0.0, 1.5, 3.0)
    TIER1_N = 10_000
    TIER1_MC_TOL = 0.05   # relative, at TIER1_N

    sizes = {"monte_carlo_n": MC_N, "times": list(TIMES),
             "equivariance_n": EQ_N, "rk4_steps_per_time": 400}

    def build(self, seed):
        mc_seed, eq_seed = _sub_seeds(seed, 2)
        sigma = 0.8
        return {
            "spec": MomentumCorrelationSpec(sigma=0.5, alpha=0.8, m1=1.0,
                                            m2=1.0),
            "mc_seed": mc_seed,
            "psi": ParametricWaveFunction(
                "gaussian_packet",
                {"center": [0.0], "sigma": sigma, "k0": [0.4], "m": 1.0},
                [1.0]),
            "propagator": Propagator("analytic", 0.05),
            "t_check": 4.0 * sigma**2,     # twice the width-doubling time
            "eq_seed": eq_seed,
        }

    def run_pass(self, inp, tally, index):
        tol = self.TIER1_MC_TOL * np.sqrt(self.TIER1_N / self.MC_N)

        def check_variance(out):
            mc = out["monte_carlo"]
            v = Verdict(ok=len(self.TIMES) * self.MC_N)
            if not np.all(np.isfinite(mc)):
                v.invariant.append("non-finite Monte Carlo variance")
                return v
            for t, formula, got in zip(self.TIMES, out["variance"], mc):
                rel = abs(got - formula) / formula
                if not rel < tol:
                    v.acceptance.append(
                        f"MC variance at t={t} off by {rel:.3%} > {tol:.3%}")
            return v

        tally.run("variance_evolution", len(self.TIMES) * self.MC_N,
                  lambda: decay.variance_evolution(
                      inp["spec"], self.TIMES, monte_carlo_n=self.MC_N,
                      seed=inp["mc_seed"]),
                  check_variance)

        def check_equivariance(rep):
            v = Verdict(ok=self.EQ_N)
            if not np.all(np.isfinite(rep["ks"])):
                v.invariant.append("non-finite KS statistic")
            elif not rep["pass"]:
                v.acceptance.append(f"KS {max(rep['ks']):.4g} >= "
                                    f"critical {rep['critical']:.4g}")
            return v

        tally.run("equivariance_check", self.EQ_N,
                  lambda: guide.equivariance_check(
                      inp["psi"], inp["propagator"], self.EQ_N,
                      inp["t_check"], seed=inp["eq_seed"],
                      box=[(-10.0, 10.0)]),
                  check_equivariance)


class BranchingWorkload:
    """Grid path: von Neumann measurement on the 256 x 512 grid.  Passes
    alternate between equal weights and 0.8 / 0.2 weights; both calls
    cost the same, so their pass rates are comparable."""

    name = "branching"
    N = 2000              # tier-1: 10_000
    TIER1_N = 10_000
    GRID = (256, 512)
    CENTERS = (-1.5, 1.5)

    sizes = {"n": N, "grid_points": list(GRID), "configurations":
             ["equal weights", "0.8/0.2 weights"], "calls_per_pass": 1}

    def build(self, seed):
        equal_seed, born_seed = _sub_seeds(seed, 2)
        return [
            {"label": "equal", "coefficients": np.array([1.0, 1.0]),
             "seed": equal_seed},
            {"label": "born", "coefficients": np.sqrt([0.8, 0.2]),
             "seed": born_seed},
        ]

    def run_pass(self, inp, tally, index):
        cfg = inp[index % 2]
        n = self.N
        sigma = np.sqrt(0.8 * 0.2 / n)
        # tier-1: atol 0.02 at n = 10_000, i.e. 4 sigma of a fair split
        equal_tol = 0.02 * np.sqrt(self.TIER1_N / n)

        def check(out):
            f = out["fractions"]
            v = Verdict(ok=int(np.count_nonzero(out["statuses"] == "ok")))
            if not (np.all(np.isfinite(f)) and abs(f.sum() - 1.0) < 1e-12):
                v.invariant.append(f"channel fractions {f} do not sum to 1")
            elif cfg["label"] == "equal":
                if not np.all(np.abs(f - 0.5) < equal_tol):
                    v.acceptance.append(
                        f"fractions {f} not within {equal_tol:.4f} of 0.5")
            elif not abs(f[0] - 0.8) < 3 * sigma:
                v.acceptance.append(
                    f"fraction {f[0]:.4f} not within 3 sigma of 0.8")
            return v

        tally.run(f"measurement_branching[{cfg['label']}]", n,
                  lambda: guide.measurement_branching(
                      cfg["coefficients"], list(self.CENTERS), n=n,
                      seed=cfg["seed"], grid_points=self.GRID),
                  check)


class DecayWorkload:
    """Recording path in small batches: one pair trajectory next to its
    closed form, and the three TestImaging calls exactly as tier-1 makes
    them (sizes, geometry and seeds), so the imaging failure of ROADMAP
    item 0 is counted the way tier-1 sees it."""

    name = "decay"
    PAIR_SPEC = dict(alpha=0.8, m1=1.0, m2=1.0)
    # (test it comes from, n, sampling seed, waist, detection point)
    IMAGING = (
        ("pre_lens_paths_straight", 50, 3, 0.05, (2.0, 0.2, 0.0)),
        ("endpoints_in_image_plane", 50, 4, 0.05, (2.0, 0.1, 0.1)),
        ("endpoints_converge_to_minus_a", 300, 1, 0.04, (2.0, 0.35, -0.2)),
    )
    IMAGE_PLANE_CALL = "endpoints_in_image_plane"

    sizes = {"pair_members": 1, "pair_steps": 2000,
             "imaging_n": [c[1] for c in IMAGING],
             "imaging_seeds": [c[2] for c in IMAGING]}

    def build(self, seed):
        rng = np.random.default_rng(seed)
        pair_spec = DecayPairSpec(**self.PAIR_SPEC)
        imaging = []
        for label, n, img_seed, waist, a in self.IMAGING:
            imaging.append({"label": label, "n": n, "seed": img_seed,
                            "lens": LensSpec(f=1.0, S=2.0, S_image=2.0,
                                             waist=waist),
                            "a": np.array(a)})
        return {"pair_spec": pair_spec,
                "start1": rng.normal(scale=0.3, size=3),
                "start2": rng.normal(scale=0.3, size=3),
                "t_final": 20.0 * pair_spec.mu * pair_spec.alpha,
                "imaging_spec": DecayPairSpec(alpha=0.01, m1=1.0, m2=1.0),
                "imaging": imaging}

    def run_pass(self, inp, tally, index):
        def check_pair(out):
            v = Verdict(ok=int(out["record"].status == "ok"))
            if not out["max_rel_error"] < 1e-6:
                v.acceptance.append(
                    f"closed-form error {out['max_rel_error']:.3g} >= 1e-6")
            return v

        tally.run("pair_trajectories", 1,
                  lambda: decay.pair_trajectories(
                      inp["pair_spec"], inp["start1"], inp["start2"],
                      np.array([0.0, inp["t_final"]])),
                  check_pair)

        for cfg in inp["imaging"]:
            def check_imaging(out, cfg=cfg):
                v = Verdict(ok=_finite_rows(out["endpoints"]))
                if not out["straightness"] < 1e-6:
                    v.invariant.append(
                        f"pre-lens straightness {out['straightness']:.3g}")
                if not out["focus_error"] < cfg["lens"].waist:
                    v.invariant.append(
                        f"focus error {out['focus_error']:.3g} >= waist")
                if cfg["label"] == self.IMAGE_PLANE_CALL:
                    # tier-1 asks for 1e-9 and fails on every seed today
                    # (ROADMAP item 0); reported, not counted as a failure
                    tally.notes["image_plane_dev"] = float(np.max(np.abs(
                        out["endpoints"][:, 0] + cfg["lens"].S_image)))
                return v

            tally.run(f"imaging_trajectories[{cfg['label']}]", cfg["n"],
                      lambda cfg=cfg: decay.imaging_trajectories(
                          inp["imaging_spec"], cfg["lens"], cfg["a"],
                          n=cfg["n"], seed=cfg["seed"]),
                      check_imaging)


class RelativisticWorkload:
    """DKP / Harish-Chandra and Dirac energy flows on point batches."""

    name = "relativistic"
    BOX_POINTS = 64
    EMC_POINTS = 2000
    DKP2_PAIRS = {"spin0": 2000, "spin1": 1000}
    DIRAC_POINTS = 4000
    DIRAC2_PAIRS = 2000
    EPSILONS = (0.2, 0.1, 0.05)
    NR_POINTS = 16        # nonrel_limit_check default n_points

    sizes = {"total_P_box": [BOX_POINTS] * 3,
             "energy_momentum_points": EMC_POINTS,
             "dkp2_pairs": DKP2_PAIRS, "dirac_points": DIRAC_POINTS,
             "dirac2_pairs": DIRAC2_PAIRS,
             "nonrel_points": NR_POINTS * len(EPSILONS)}

    @staticmethod
    def _waves(rng, rep, k, lattice):
        waves = []
        for _ in range(k):
            # integer momenta make [0, 2 pi)^3 a periodicity box
            p = (rng.integers(-2, 3, size=3).astype(float) if lattice
                 else rng.normal(size=3))
            w = {"coef": rng.normal() + 1j * rng.normal(), "p": p}
            if rep == "spin1":
                w["polarization"] = (rng.normal(size=3)
                                     + 1j * rng.normal(size=3))
            waves.append(w)
        return waves

    def build(self, seed):
        rng = np.random.default_rng(seed)
        inp = {"reps": {}}
        for rep in ("spin0", "spin1"):
            pairs = self.DKP2_PAIRS[rep]
            inp["reps"][rep] = {
                "state": dkp.build_dkp_state(
                    rep, 1.0, self._waves(rng, rep, 3, True)),
                "a": dkp.build_dkp_state(
                    rep, 1.0, self._waves(rng, rep, 2, False)),
                "b": dkp.build_dkp_state(
                    rep, 1.0, self._waves(rng, rep, 2, False)),
                "points": rng.normal(size=(self.EMC_POINTS, 3)) * 2.0,
                "x1": rng.normal(size=(pairs, 3)),
                "x2": rng.normal(size=(pairs, 3)),
                "nr_seed": int(rng.integers(2**31)),
            }
        mass = rng.uniform(0.5, 2.0)
        one = tuple((rng.normal() + 1j * rng.normal(),
                     rng.normal(size=3) * rng.uniform(0.1, 4),
                     int(rng.choice([-1, 1])), int(rng.integers(2)))
                    for _ in range(3))
        two = tuple((rng.normal() + 1j * rng.normal(),
                     (rng.normal(size=3), int(rng.choice([-1, 1])),
                      int(rng.integers(2))),
                     (rng.normal(size=3), int(rng.choice([-1, 1])),
                      int(rng.integers(2))))
                    for _ in range(2))
        inp["dirac"] = PlaneWaveSpinorState(one, mass=mass)
        inp["dirac2"] = PlaneWaveSpinorState(two, mass=mass,
                                             n_particles=2).antisymmetrized()
        inp["dirac_points"] = rng.normal(size=(self.DIRAC_POINTS, 3)) * 3.0
        inp["dirac2_x1"] = rng.normal(size=(self.DIRAC2_PAIRS, 3))
        inp["dirac2_x2"] = rng.normal(size=(self.DIRAC2_PAIRS, 3))
        inp["t"] = float(rng.uniform(0.0, 1.0))
        return inp

    def run_pass(self, inp, tally, index):
        t = inp["t"]
        box = [(0.0, 2.0 * np.pi)] * 3
        for rep, r in inp["reps"].items():
            def check_total(res):
                p_mu, _ = res
                v = Verdict(ok=0)
                if not (np.all(np.isfinite(p_mu)) and p_mu[0] > 0):
                    v.invariant.append(f"total P {p_mu} not future-directed")
                return v

            total = tally.run(f"total_energy_momentum[{rep}]", 0,
                              lambda r=r: dkp.total_energy_momentum(
                                  r["state"], box,
                                  points_per_axis=self.BOX_POINTS),
                              check_total)

            def check_current(res, rep=rep):
                j, vel = res
                v = Verdict(ok=_finite_rows(j, vel))
                j0 = j[:, 0]
                mink = j0**2 - np.sum(j[:, 1:] ** 2, axis=-1)
                if not np.all(j0 >= 0):
                    v.invariant.append("negative energy density")
                if not np.all(mink >= -CAUSAL_TOL * j0**2):
                    v.invariant.append("spacelike energy current")
                v.invariant += _subluminal(f"{rep} flow", vel)
                return v

            label = f"energy_momentum_current[{rep}]"
            if total is None:
                tally.skip(label, self.EMC_POINTS, "no total-P observer")
            else:
                tally.run(label, self.EMC_POINTS,
                          lambda r=r, obs=total[1]:
                          dkp.energy_momentum_current(r["state"], obs,
                                                      r["points"], t),
                          check_current)

            def check_pair(res, rep=rep):
                v1, v2 = res
                v = Verdict(ok=_finite_rows(np.hstack([v1, v2])))
                v.invariant += _subluminal(f"{rep} pair", v1, v2)
                return v

            tally.run(f"dkp2_velocity[{rep}]", len(r["x1"]),
                      lambda r=r: dkp.dkp2_velocity(
                          r["a"], r["b"], r["x1"], r["x2"], t,
                          symmetrized=True),
                      check_pair)

            def check_nr(devs):
                v = Verdict(ok=self.NR_POINTS * len(self.EPSILONS))
                if not (devs[0] > devs[1] > devs[2]
                        and devs[1] <= 0.35 * devs[0]
                        and devs[2] <= 0.35 * devs[1]):
                    v.acceptance.append(f"no quadratic trend in {devs}")
                return v

            tally.run(f"nonrel_limit_check[{rep}]",
                      self.NR_POINTS * len(self.EPSILONS),
                      lambda r=r, rep=rep: dkp.nonrel_limit_check(
                          rep, list(self.EPSILONS), seed=r["nr_seed"],
                          n_points=self.NR_POINTS),
                      check_nr)

        def check_dirac(res):
            vel, _ = res
            v = Verdict(ok=_finite_rows(vel))
            v.invariant += _subluminal("Dirac", vel)
            return v

        tally.run("dirac_velocity", self.DIRAC_POINTS,
                  lambda: reldirac.dirac_velocity(
                      inp["dirac"], inp["dirac_points"], t),
                  check_dirac)

        def check_dirac2(res):
            v1, v2 = res
            v = Verdict(ok=_finite_rows(np.hstack([v1, v2])))
            v.invariant += _subluminal("Dirac pair", v1, v2)
            return v

        tally.run("dirac2_velocity", self.DIRAC2_PAIRS,
                  lambda: reldirac.dirac2_velocity(
                      inp["dirac2"], inp["dirac2_x1"], inp["dirac2_x2"], t),
                  check_dirac2)


WORKLOADS = {w.name: w for w in (EnsembleWorkload(), BranchingWorkload(),
                                 DecayWorkload(), RelativisticWorkload())}
