"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import layertrace  # noqa: E402
from layertrace import (  # noqa: E402
    TARGETS, Tracer, bindings, installed_wrappers, layer_metrics, self_times)
from pilotwave import decay, guide  # noqa: E402
from pilotwave.errors import PhysicsError  # noqa: E402
from workloads import Tally, Verdict  # noqa: E402


def _index(qualname):
    return next(i for i, t in enumerate(TARGETS) if t[3] == qualname)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children [1, 4] and [5, 9]; [1, 4] has child [2, 3]
    spans = [[0, 0.0, 10.0, -1, 0, 0], [0, 1.0, 4.0, 0, 0, 0],
             [0, 2.0, 3.0, 1, 0, 0], [0, 5.0, 9.0, 0, 0, 0]]
    np.testing.assert_allclose(self_times(spans), [3.0, 2.0, 1.0, 4.0])


def test_layer_self_times_partition_the_root():
    rk4 = _index("integrate_ensemble")
    vel = _index("ParametricVelocity.velocity")
    cur = _index("configuration_velocity")
    val = _index("ParametricWaveFunction.evaluate")
    grad = _index("ParametricWaveFunction.gradient")
    spans = [[rk4, 0.0, 10.0, -1, 0, 0],
             [vel, 1.0, 9.0, 0, 100, 5],
             [cur, 2.0, 8.0, 1, 0, 0],
             [val, 3.0, 4.0, 2, 100, 0],
             [grad, 5.0, 7.0, 2, 100, 0]]
    m = layer_metrics(spans, 10.0)
    assert m["rk4.self_s"] == pytest.approx(2.0)
    assert m["velocity.self_s"] == pytest.approx(2.0)
    assert m["currents.self_s"] == pytest.approx(3.0)
    assert m["families.self_s"] == pytest.approx(3.0)
    assert m["trace.coverage"] == pytest.approx(1.0)
    assert m["families.passes_per_point"] == pytest.approx(2.0)
    assert m["velocity.nan_frac"] == pytest.approx(0.05)
    assert m["rk4.member_steps"] == pytest.approx(25.0)


def test_traced_pass_restores_every_wrapped_binding():
    before = {}
    for _, _, module, qualname, _, _ in TARGETS:
        original = layertrace._resolve(module, qualname)
        for owner, attr in bindings(original):
            before[(id(owner), attr)] = (owner, attr, original)
    # the bindings a caller looks names up through, not only the defining ones
    assert (id(decay), "integrate_ensemble") in before
    assert (id(guide._RawSnapshotSource), "velocity") in before

    with pytest.raises(PhysicsError):
        with Tracer() as tracer:
            assert getattr(decay.integrate_ensemble, layertrace.WRAPPED_MARK)
            assert getattr(guide._RawSnapshotSource.velocity,
                           layertrace.WRAPPED_MARK)
            assert len(installed_wrappers()) == len(before)
            decay.imaging_trajectories(decay.DecayPairSpec(0.01, 1.0, 2.0),
                                       decay.LensSpec(f=1.0, S=2.0),
                                       [2.0, 0, 0], n=10)
    assert tracer.spans and tracer.spans[0][2] >= tracer.spans[0][1]
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original
    assert installed_wrappers() == []


def test_speed_probe_is_not_traced():
    with Tracer() as tracer:
        run.reference_seconds()
    assert tracer.spans == []


def test_raising_call_fails_all_of_its_members():
    tally = Tally()

    def boom():
        raise PhysicsError("never reached the lens plane")

    assert tally.run("imaging", 300, boom, lambda r: Verdict(ok=300)) is None
    tally.run("pair", 1, lambda: "done", lambda r: Verdict(ok=1))
    assert (tally.attempted, tally.ok) == (301, 1)
    assert tally.invariant_failures == 0
    assert "raised PhysicsError" in tally.failures[0]


def test_failed_check_fails_all_members_and_invariants_mark_incorrect():
    tally = Tally()
    tally.run("ks", 50, lambda: None,
              lambda r: Verdict(ok=50, acceptance=["KS above critical"]))
    tally.run("causal", 20, lambda: None,
              lambda r: Verdict(ok=20, invariant=["speed > 1"]))
    assert (tally.attempted, tally.ok) == (70, 0)
    assert tally.invariant_failures == 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "relativistic",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
