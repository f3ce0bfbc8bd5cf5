"""The benchmark's layer tracer must find every entry point it wraps.

`perfbench/layertrace.py` resolves all of its `TARGETS` on every run,
traced or not (`installed_wrappers`), so a renamed or deleted pilotwave
function fails every benchmark workload.  The tracer is loaded from its
file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERTRACE = load_layertrace()


@pytest.mark.parametrize("module, qualname",
                         [(t[2], t[3]) for t in LAYERTRACE.TARGETS])
def test_target_resolves(module, qualname):
    assert callable(LAYERTRACE._resolve(module, qualname))
