"""tools/benchpairs.py: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "benchpairs", ROOT / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

END_TO_END = [{"name": "members_per_s", "better": "higher"},
              {"name": "peak_rss_mb", "better": "lower"}]


def _run(side, seed, rate, rss, trace=0, correct=True, workload="decay"):
    metrics = {"members_per_s": {"value": rate, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": correct, "metrics": metrics}, "meta": {}}


def _canned():
    """Four seed pairs: the change is faster at seeds 1, 2 and 4 and ties
    at 3; its memory is lower at 1, higher at 2 and tied at 3 and 4.  A
    traced run with extreme values must not count."""
    rates = {1: (100.0, 130.0), 2: (110.0, 120.0), 3: (90.0, 90.0),
             4: (120.0, 150.0)}
    rss = {1: (50.0, 49.0), 2: (50.0, 51.0), 3: (50.0, 50.0),
           4: (50.0, 50.0)}
    runs = []
    for seed in rates:
        for k, side in enumerate(benchpairs.SIDES):
            runs.append(_run(side, seed, rates[seed][k], rss[seed][k]))
    runs.append(_run("change", 1, 1e9, 1e9, trace=1, correct=False))
    return runs


def test_pairs_count_in_each_metric_direction():
    block = benchpairs.summarize(_canned(), END_TO_END)["decay"]
    assert block["seeds"] == [1, 2, 3, 4]
    rate, rss = block["members_per_s"], block["peak_rss_mb"]
    # higher is better: 3 wins, the tie at seed 3 counts for neither
    assert rate["pairs"] == 4 and rate["change_better_pairs"] == 3
    # lower is better: 1 win, 1 loss, 2 ties
    assert rss["pairs"] == 4 and rss["change_better_pairs"] == 1
    # a traced run's result is outside the summary but not its correctness
    assert rate["change"]["max"] == 150.0 and rate["change"]["n"] == 4
    assert block["all_correct"] is False


def test_quartiles_iqr_and_ratio():
    rate = benchpairs.summarize(_canned(), END_TO_END)["decay"]["members_per_s"]
    parent, change = rate["parent"], rate["change"]
    # parent 90, 100, 110, 120: numpy's linear quartiles
    assert (parent["q1"], parent["median"], parent["q3"]) == (97.5, 105.0, 112.5)
    assert (parent["min"], parent["max"], parent["n"]) == (90.0, 120.0, 4)
    assert rate["parent_iqr"] == pytest.approx(15.0)
    # change 90, 120, 130, 150: median 125
    assert change["median"] == 125.0
    assert rate["median_ratio"] == pytest.approx(125.0 / 105.0)


def test_workloads_are_summarized_apart():
    runs = _canned() + [_run(side, 7, 10.0, 5.0, workload="ensemble")
                        for side in benchpairs.SIDES]
    summary = benchpairs.summarize(runs, END_TO_END)
    assert list(summary) == ["decay", "ensemble"]
    ens = summary["ensemble"]["members_per_s"]
    assert ens["pairs"] == 1 and ens["change_better_pairs"] == 0
    assert ens["median_ratio"] == 1.0 and ens["parent_iqr"] == 0.0


def test_parent_runs_first_on_odd_seeds():
    assert benchpairs.pair_order(2811) == ("parent", "change")
    assert benchpairs.pair_order(2812) == ("change", "parent")


def test_traced_runs_keep_layers_and_span_counts():
    runs = [dict(_run(side, 5, 1.0, 2.0, trace=1), span_counts={"rk4": 3})
            for side in benchpairs.SIDES]
    traced = benchpairs.traced_summary(runs + _canned()[:2])
    assert list(traced) == ["decay_seed5"]
    entry = traced["decay_seed5"]
    assert entry["parent"] == {"members_per_s": 1.0, "peak_rss_mb": 2.0}
    assert entry["span_counts"] == {"parent": {"rk4": 3},
                                    "change": {"rk4": 3}}
