"""The benchmark's workloads must still build their inputs.

`perfbench/workloads.py` builds every workload's inputs from a seed
through the public pilotwave API, so a removed name or parameter that a
workload uses fails every benchmark run.  The module is loaded from its
file and only its `build` methods are called.
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
