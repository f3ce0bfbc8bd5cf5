"""Runs the benchmark on two source trees in alternating pairs and writes
one BENCH_*.json report.

    python3 tools/benchpairs.py PARENT CHANGE \
        --workload decay 2821 2822 ... --workload ensemble 2821 2822 2823 \
        --out BENCH_N.json

PARENT and CHANGE are source checkouts, each with `src/pilotwave`,
`perfbench/` and `BENCHMARK.json`.  For every workload and seed, each
tree's own, unchanged `perfbench/run.py --trace 0` runs once for the
change's BENCHMARK.json `run_seconds`, in a pair: the parent first on
odd seeds, the change first on even ones, so a drift in machine speed
does not favour one side.  Then one `--trace 1`
run per side is made on each workload's first seed, in the same order.

The report holds:

* `runs`: the last-line JSON of every run, in run order, with its side,
  workload, seed, trace flag and the run's meta line;
* `summary`, per workload and per end-to-end metric of BENCHMARK.json,
  over the untraced runs: each side's median, q1, q3 (numpy's linear
  percentiles), min, max and n; `change_better_pairs`, the seeds at
  which the change reads better in the metric's `better` direction, a
  tie counting for neither side; `pairs`; `median_ratio`, change median
  over parent median; `parent_iqr`, q3 - q1 of the parent; and
  `all_correct` over every run of the workload;
* `traced`, per workload and first seed: each side's per-layer metrics
  and the span counts of its last traced pass;
* `machine`: processor count, the runs' thread count, numpy and python;
* `trees`: a SHA-256 digest of each tree's `src/` python files, which
  names the code run also when the tree is a plain copy, not a commit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SPANS = Path(".bench_build") / "perfbench"


def pair_order(seed):
    """The order of the two sides at a seed: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def run_one(tree, workload, seed, seconds, trace):
    """One `perfbench/run.py` run in `tree`: its result, its meta line and,
    when traced, the span counts of its last traced pass."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines
                if line.startswith("meta "))
    record = {"result": json.loads(lines[-1]), "meta": meta}
    if trace:
        spans = json.loads((Path(tree) / SPANS / (
            f"{workload}-seed{seed}-trace1-spans.json")).read_text())
        record["span_counts"] = dict(Counter(s[0] for s in spans["spans"]))
    return record


def stats(values):
    """Median, quartiles, extremes and count of one side's values."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "min": float(min(values)), "max": float(max(values)),
            "n": len(values)}


def summarize(runs, end_to_end):
    """The `summary` block: per workload, per end-to-end metric, the two
    sides' statistics over the untraced runs and the pair counts.
    `end_to_end` is BENCHMARK.json's list of {name, better, ...}."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        seeds = sorted({r["seed"] for r in plain})
        block = {"all_correct": all(r["result"]["correct"] for r in mine),
                 "seeds": seeds}
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            value = {(r["side"], r["seed"]):
                     r["result"]["metrics"][name]["value"] for r in plain}
            per_side = {side: [value[side, s] for s in seeds
                               if (side, s) in value] for side in SIDES}
            pairs = [(value["parent", s], value["change", s]) for s in seeds
                     if ("parent", s) in value and ("change", s) in value]
            parent, change = stats(per_side["parent"]), stats(per_side["change"])
            block[name] = {
                "parent": parent, "change": change,
                "change_better_pairs": sum(
                    (c > p) if higher else (c < p) for p, c in pairs),
                "pairs": len(pairs),
                "median_ratio": (change["median"] / parent["median"]
                                 if parent["median"] else None),
                "parent_iqr": parent["q3"] - parent["q1"]}
        summary[workload] = block
    return summary


def traced_summary(runs):
    """The `traced` block: per traced workload and seed, each side's
    per-layer metrics and span counts."""
    out = {}
    for r in runs:
        if r["trace"]:
            key = f"{r['workload']}_seed{r['seed']}"
            entry = out.setdefault(key, {"span_counts": {}})
            entry[r["side"]] = {k: m["value"] for k, m in
                                r["result"]["metrics"].items()}
            entry["span_counts"][r["side"]] = r["span_counts"]
    return out


def src_digest(tree):
    """SHA-256 over the relative paths and bytes of the tree's src/*.py."""
    h = hashlib.sha256()
    src = Path(tree) / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE",
                        help="PARENT and CHANGE source checkouts")
    parser.add_argument("--workload", nargs="+", action="append",
                        required=True, metavar=("NAME", "SEED"),
                        help="a workload and its seeds; repeat per workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (str(Path(t).resolve()) for t in args.trees)))
    spec = json.loads((Path(trees["change"]) / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    plan = [(w[0], [int(s) for s in w[1:]]) for w in args.workload]
    if any(not seeds for _, seeds in plan):
        parser.error("give each --workload at least one seed")

    runs = []

    def run(workload, seed, trace):
        for side in pair_order(seed):
            record = run_one(trees[side], workload, seed, seconds, trace)
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "trace": trace, **record})
            print(f"{side:>6} {workload} seed {seed} trace {trace}: "
                  f"{json.dumps(record['result']['metrics'])[:200]}",
                  file=sys.stderr)

    for workload, seeds in plan:
        for seed in seeds:
            run(workload, seed, 0)
    for workload, seeds in plan:
        run(workload, seeds[0], 1)

    meta = runs[0]["meta"]
    report = {
        "description": (
            f"Alternating {seconds:g}-s perfbench/run.py runs of two "
            "trees (parent first on odd seeds), written by "
            "tools/benchpairs.py: "
            + "; ".join(f"{w}: seeds {', '.join(map(str, s))}"
                        for w, s in plan)
            + ". One traced run per side on each workload's first seed."),
        "command": ("python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {seconds:g} --trace 0|1"),
        "machine": {"nproc": os.cpu_count(),
                    "pilotwave_threads": meta["pilotwave_threads"],
                    "numpy": meta["numpy"], "python": meta["python"]},
        "trees": {side: {"src_sha256": src_digest(trees[side])}
                  for side in SIDES},
        "summary": summarize(runs, spec["end_to_end"]),
        "traced": traced_summary(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
