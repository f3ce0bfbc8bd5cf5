"""Compares the benchmark workloads' outputs between two source trees.

    python3 tools/equality.py PARENT CHANGE --seeds 63 179 199 \
        [--workloads relativistic ...] [--out report.json]

PARENT and CHANGE are source checkouts, each with `src/pilotwave` and
`perfbench/`.  For each tree, one subprocess imports that tree's own
pilotwave and perfbench workloads and, for every workload and seed, runs
`build` and then `run_pass` for pass indices 0 and 1, capturing the
result of every experiment call by wrapping `Tally.run`.  The default
workloads are all of perfbench's.  The two captures are then compared:

* per leaf of each call's result (walking dicts, sequences and
  dataclasses; calls are paired by label, and a call or leaf present on
  one side only is reported as missing): shape or dtype changes,
  whether the arrays are equal,
  the max absolute difference over the elements finite on both sides,
  and that difference relative to the leaf's largest magnitude;
* per pass: `attempted`, `ok` and the failures on both sides.  The
  verdicts of a pass differ when `attempted`, `ok` or the set of failing
  calls differ.

Its `summary` counts passes, differing verdicts and leaves, and lists
under `calls`, per "workload/call label", the leaves that are not
`array_equal` and their largest relative difference (None when no
such leaf has one, as for a missing leaf or a shape change).

One JSON report goes to --out (or standard output), with the seeds,
the trees' git SHAs and each side's thread count.  The exit status is 1
when any pass's verdict differs, and 0 otherwise.  No tolerance is
applied: which difference a change may carry is for its reader.
"""

import argparse
import dataclasses
import json
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Only `branching` depends on the pass index (its configuration alternates
# with index % 2), so two passes cover every configuration of a seed.
PASSES = 2


# ---------------------------------------------------------------------------
# capture, run inside one tree's subprocess


def leaves(obj, path=""):
    """(path, ndarray) for every leaf of a call's result."""
    if isinstance(obj, dict):
        for key in obj:
            yield from leaves(obj[key], f"{path}/{key}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from leaves(item, f"{path}/{i}")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from leaves(getattr(obj, f.name), f"{path}/{f.name}")
    else:
        yield path or "/", np.asarray(obj)


def capture(tree, workloads, seeds):
    """Every call's leaves and every pass's verdict, for one tree."""
    tree = Path(tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import pilotwave
    import workloads as bench
    from pilotwave.guide import thread_count
    if Path(pilotwave.__file__).resolve().parent != tree / "src" / "pilotwave":
        raise SystemExit(f"error: imported pilotwave from {pilotwave.__file__}")

    calls = []
    run = bench.Tally.run

    def recording_run(self, label, members, call, check):
        out = {}

        def recorded():
            out["result"] = call()
            return out["result"]

        result = run(self, label, members, recorded, check)
        calls.append({"label": label, "leaves": dict(leaves(result))
                      if "result" in out else {}})
        return result

    bench.Tally.run = recording_run
    records = []
    workloads = list(workloads or bench.WORKLOADS)
    for name in workloads:
        workload = bench.WORKLOADS[name]
        for seed in seeds:
            inputs = workload.build(seed)
            for index in range(PASSES):
                calls.clear()
                tally = bench.Tally()
                workload.run_pass(inputs, tally, index)
                records.append({
                    "workload": name, "seed": seed, "index": index,
                    "attempted": tally.attempted, "ok": tally.ok,
                    "failures": list(tally.failures), "calls": list(calls)})
    return {"threads": thread_count(), "workloads": workloads,
            "passes": records}


# ---------------------------------------------------------------------------
# comparison


def compare_leaf(a, b):
    """Differences between one leaf on the two sides."""
    row = {"array_equal": False}
    if a.shape != b.shape:
        row["shape"] = [list(a.shape), list(b.shape)]
    if a.dtype != b.dtype:
        row["dtype"] = [str(a.dtype), str(b.dtype)]
    if "shape" in row:
        return row
    numeric = a.dtype.kind in "biufc" and b.dtype.kind in "biufc"
    row["array_equal"] = bool(np.array_equal(a, b, equal_nan=numeric))
    if numeric and a.size:
        finite = np.isfinite(a) & np.isfinite(b)
        row["nonfinite_differs"] = bool(np.any(
            np.isfinite(a) != np.isfinite(b)))
        a, b = a[finite].astype(complex), b[finite].astype(complex)
        row["max_abs"] = float(np.abs(a - b).max(initial=0.0))
        size = float(max(np.abs(a).max(initial=0.0),
                         np.abs(b).max(initial=0.0)))
        row["max_rel"] = row["max_abs"] / size if size > 0 else 0.0
    return row


def failing_calls(failures):
    return sorted({f.split(":")[0] for f in failures})


def by_label(calls):
    """A pass's calls keyed by label; labels are unique within a pass."""
    keyed = {c["label"]: c["leaves"] for c in calls}
    if len(keyed) != len(calls):
        raise ValueError("a call label repeats within one pass")
    return keyed


def compare(a, b):
    """The report rows for two captures of the same workloads and seeds."""
    passes, rows = [], []
    for pa, pb in zip(a["passes"], b["passes"], strict=True):
        key = {k: pa[k] for k in ("workload", "seed", "index")}
        differs = (pa["attempted"] != pb["attempted"] or pa["ok"] != pb["ok"]
                   or failing_calls(pa["failures"])
                   != failing_calls(pb["failures"]))
        passes.append({**key, "verdict_differs": differs, **{
            side: {k: p[k] for k in ("attempted", "ok", "failures")}
            for side, p in (("parent", pa), ("change", pb))}})
        ca, cb = by_label(pa["calls"]), by_label(pb["calls"])
        for label in dict.fromkeys([*ca, *cb]):
            if label not in ca or label not in cb:
                rows.append({**key, "call": label, "leaf": None,
                             "missing": "parent" if label not in ca
                             else "change", "array_equal": False})
                continue
            for path in dict.fromkeys([*ca[label], *cb[label]]):
                la, lb = ca[label].get(path), cb[label].get(path)
                row = ({"missing": "parent" if la is None else "change",
                        "array_equal": False}
                       if la is None or lb is None else compare_leaf(la, lb))
                rows.append({**key, "call": label, "leaf": path, **row})
    rel = [r["max_rel"] for r in rows if "max_rel" in r]
    calls = {}
    for r in rows:
        if not r["array_equal"]:
            call = calls.setdefault(f"{r['workload']}/{r['call']}",
                                    {"leaves": 0, "max_rel": None})
            call["leaves"] += 1
            if "max_rel" in r:
                call["max_rel"] = max(call["max_rel"] or 0.0, r["max_rel"])
    summary = {
        "passes": len(passes),
        "verdicts_differ": sum(p["verdict_differs"] for p in passes),
        "leaves": len(rows),
        "array_equal": sum(r["array_equal"] for r in rows),
        "max_rel": max(rel, default=0.0),
        "calls": calls,
    }
    return {"summary": summary, "passes": passes, "leaves": rows}


def git_sha(tree):
    """HEAD of the tree's own git repository; None for a plain copy."""
    if not (Path(tree) / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_side(tree, workloads, seeds):
    """Capture one tree in its own interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "capture.pickle"
        subprocess.run(
            [sys.executable, __file__, "--capture", str(tree), "--out",
             str(out), *(["--workloads", *workloads] if workloads else []),
             "--seeds", *map(str, seeds)], check=True)
        return pickle.loads(out.read_bytes())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        help="default: every perfbench workload")
    parser.add_argument("--out")
    parser.add_argument("--capture", metavar="TREE",
                        help="capture one tree and pickle it to --out")
    args = parser.parse_args(argv)
    if args.capture:
        if not args.out:
            parser.error("--capture needs --out")
        Path(args.out).write_bytes(pickle.dumps(capture(
            args.capture, args.workloads, args.seeds)))
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees: PARENT CHANGE")
    sides = [run_side(t, args.workloads, args.seeds) for t in args.trees]
    report = compare(*sides)
    report.update({
        "seeds": args.seeds, "workloads": sides[1]["workloads"],
        "passes_per_seed": PASSES,
        "trees": {side: {"path": str(Path(t).resolve()), "sha": git_sha(t),
                         "threads": s["threads"]}
                  for side, t, s in zip(("parent", "change"), args.trees,
                                        sides)}})
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 1 if report["summary"]["verdicts_differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
