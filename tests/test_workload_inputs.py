"""The benchmark's workloads must still build their inputs and pass.

`perfbench/workloads.py` builds every workload's inputs from a seed
through the public pilotwave API, so a removed name or parameter that a
workload uses fails every benchmark run.  The module is loaded from its
file; its `build` methods are called, and one `run_pass` per workload.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1001, 1002])
def test_build(name, seed):
    assert WORKLOADS[name].build(seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass(name):
    """One benchmark pass per workload: every member ok and no failure,
    so a parameter the pass still uses cannot vanish (its TypeError is
    not a PilotWaveError and propagates) and no verdict can change."""
    workloads = load_workloads()
    tally = workloads.Tally()
    WORKLOADS[name].run_pass(WORKLOADS[name].build(1001), tally, 0)
    assert tally.failures == []
    assert tally.ok == tally.attempted
