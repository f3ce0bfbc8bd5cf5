"""tools/equality.py: the parent-versus-change report of workload outputs."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "equality", ROOT / "tools" / "equality.py")
equality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equality)


def _capture(velocity, failures=(), labels=("dkp2_velocity[spin0]",)):
    """A one-pass capture shaped like the tool's subprocess output."""
    result = (velocity, {"status": np.array(["ok", "ok"], dtype=object)})
    return {"threads": 1, "passes": [{
        "workload": "relativistic", "seed": 5, "index": 0, "attempted": 2,
        "ok": 2 - len(failures), "failures": list(failures),
        "calls": [{"label": label, "leaves": dict(equality.leaves(result))}
                  for label in labels]}]}


def test_a_tree_against_itself_is_equal(tmp_path):
    out = tmp_path / "report.json"
    code = equality.main([str(ROOT), str(ROOT), "--workloads", "relativistic",
                          "--seeds", "1", "63", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    summary = report["summary"]
    assert summary["passes"] == 4 and summary["verdicts_differ"] == 0
    assert report["workloads"] == ["relativistic"]
    assert summary["leaves"] > 0
    assert summary["array_equal"] == summary["leaves"]
    assert summary["max_rel"] == 0.0
    assert report["seeds"] == [1, 63]
    assert report["trees"]["parent"]["threads"] >= 1
    for p in report["passes"]:
        assert p["parent"] == p["change"]


def test_a_perturbed_leaf_is_reported():
    v = np.array([[0.5, -0.25, 0.125], [1.0, 2.0, -4.0]])
    moved = v.copy()
    moved[0, 0] *= 1 + 2**-50
    report = equality.compare(_capture(v), _capture(moved))
    rows = {r["leaf"]: r for r in report["leaves"]}
    assert set(rows) == {"/0", "/1/status"}
    assert rows["/1/status"]["array_equal"]
    row = rows["/0"]
    assert not row["array_equal"] and not row["nonfinite_differs"]
    assert row["max_abs"] == 2**-51
    assert row["max_rel"] == 2**-53       # relative to the leaf's max |v| 4
    assert report["summary"]["array_equal"] == 1
    assert report["summary"]["verdicts_differ"] == 0
    assert report["summary"]["calls"] == {
        "relativistic/dkp2_velocity[spin0]": {"leaves": 1, "max_rel": 2**-53}}


def test_shape_changes_and_verdicts_are_reported():
    a = _capture(np.zeros((2, 3)))
    b = _capture(np.zeros((3, 3)), failures=["dkp2_velocity[spin0]: x"])
    report = equality.compare(a, b)
    row = next(r for r in report["leaves"] if r["leaf"] == "/0")
    assert row["shape"] == [[2, 3], [3, 3]] and not row["array_equal"]
    assert report["summary"]["verdicts_differ"] == 1
    assert report["passes"][0]["change"]["ok"] == 1


def test_a_call_on_one_side_only_is_reported():
    # e.g. a skipped energy_momentum_current when total_energy_momentum
    # raises on one side only
    v = np.zeros((2, 3))
    a = _capture(v, labels=("total[spin0]", "current[spin0]", "pair[spin0]"))
    b = _capture(v, failures=["total[spin0]: raised"],
                 labels=("total[spin0]", "pair[spin0]"))
    report = equality.compare(a, b)
    missing = [r for r in report["leaves"] if "missing" in r]
    assert missing == [{"workload": "relativistic", "seed": 5, "index": 0,
                        "call": "current[spin0]", "leaf": None,
                        "missing": "change", "array_equal": False}]
    equal = [r for r in report["leaves"] if "missing" not in r]
    assert {r["call"] for r in equal} == {"total[spin0]", "pair[spin0]"}
    assert all(r["array_equal"] for r in equal)
    assert report["summary"]["verdicts_differ"] == 1
