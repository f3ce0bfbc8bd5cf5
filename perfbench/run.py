"""Runs one pilotwave benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports pilotwave from its
`src/` directory.  With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Run metadata, the result and (for traced runs) the spans of the last
traced pass are also written under .bench_build/perfbench/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
# bound here, so that traced passes (which wrap numpy.fft) leave the
# reference kernel untraced
from numpy.fft import fft2, ifft2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
# The shared machine this runs on drifts in speed by up to +-25 % over
# seconds to minutes, in CPU time as much as in wall time.  Experiment
# calls are bracketed by a fixed reference kernel, and their times are
# rescaled to the speed at which that kernel takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.14


def import_program():
    """Put the checkout's own sources first on the path; refuse to fall
    back to any other copy of pilotwave."""
    package = SRC / "pilotwave"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no pilotwave sources at {package}")
    sys.path.insert(0, str(SRC))
    import pilotwave
    if Path(pilotwave.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported pilotwave from {pilotwave.__file__}")


def git_sha(root):
    """Commit of the checkout, read from .git without running git; None
    outside a git working tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_seconds():
    """Wall time of a fixed mix of small-array numpy calls and 2-D FFTs,
    the two kinds of work the workloads spend their time in."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, 3))
    field = rng.normal(size=(256, 512)) + 0j
    start = time.perf_counter()
    for _ in range(3000):
        y = np.exp(-np.sum(x**2, axis=1) / 3.0) * (1 + 0.5j)
        z = np.imag(np.conj(y) * y[::-1]) / (np.abs(y) + 1.0)
        np.where(np.isfinite(z), z, 0.0)[:, None] * x
    for _ in range(8):
        ifft2(fft2(field))
    return time.perf_counter() - start


class SpeedReference:
    """Rescales wall times to the nominal machine speed, using the
    reference kernel timed before and after the interval."""

    def __init__(self):
        reference_seconds()             # the first call is cold
        self.last = reference_seconds()

    def scale(self, wall_s):
        """`wall_s` spent since the previous probe, at nominal speed."""
        now = reference_seconds()
        reference = 0.5 * (self.last + now)
        self.last = now
        return wall_s * REFERENCE_NOMINAL_S / reference


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter until it has
    imported pilotwave and built the workload's inputs, each rescaled to
    the nominal machine speed.  Returns (median, raw times)."""
    speed = SpeedReference()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        # the child reports its own finish time: waiting on it with a
        # timeout polls in steps of up to 50 ms
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe", repr(time.time())]
        out = subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                             capture_output=True, text=True).stdout
        raw.append(float(out.split()[-1]))
        scaled.append(speed.scale(raw[-1]))
    return statistics.median(scaled), raw


def run_passes(workload, inputs, seconds, trace):
    """Repeat the workload's pass while another one ends nearer to
    `seconds` than stopping now would.  With trace, passes alternate
    untraced / traced and at least one of each runs.  Returns
    [(traced, tally, spans)]."""
    from layertrace import Tracer, installed_wrappers
    from workloads import Tally

    passes = []
    durations = []
    start = time.perf_counter()
    speed = SpeedReference()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        tally = Tally(speed=speed)
        begin = time.perf_counter()
        if traced:
            with Tracer() as tracer:
                workload.run_pass(inputs, tally, index)
            spans = tracer.spans
        else:
            if installed_wrappers():
                raise RuntimeError("tracing wrappers left installed")
            workload.run_pass(inputs, tally, index)
            spans = None
        tally.finish()
        durations.append(time.perf_counter() - begin)
        passes.append((traced, tally, spans))
        both = not trace or len(passes) >= 2
        elapsed = time.perf_counter() - start
        if both and elapsed + 0.5 * statistics.median(durations) > seconds:
            return passes


def end_to_end(passes, setup_s):
    untraced = [t for traced, t, _ in passes if not traced]
    rates = [t.ok / t.scaled_s for t in untraced]
    attempted = sum(t.attempted for t in untraced)
    ok = sum(t.ok for t in untraced)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "members_per_s": (statistics.median(rates), "1/s"),
        "ok_frac": (ok / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(passes, units):
    from layertrace import layer_metrics

    traced = [(t, s) for tr, t, s in passes if tr]
    untraced = [t for tr, t, _ in passes if not tr]
    rows = [layer_metrics(spans, tally.wall_s) for tally, spans in traced]
    out = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    devs = [t.notes["image_plane_dev"] for t, _ in traced
            if "image_plane_dev" in t.notes]
    out["decay.image_plane_dev"] = max(devs) if devs else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(t.scaled_s for t, _ in traced)
        / statistics.median(t.scaled_s for t in untraced) - 1.0)
    return {k: (out[k], units[k]) for k in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="T0",
                        help="import pilotwave, build the inputs, print "
                             "the seconds since the time.time() stamp T0 "
                             "and exit (what setup_s times)")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        workload.build(args.seed)
        print(time.time() - args.setup_probe)
        return

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    inputs = workload.build(args.seed)
    passes = run_passes(workload, inputs, args.seconds, bool(args.trace))

    from pilotwave.guide import thread_count
    tallies = [t for _, t, _ in passes]
    attempted = sum(t.attempted for t in tallies)
    ok = sum(t.ok for t in tallies)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(passes, units)
    else:
        metrics = end_to_end(passes, setup_s)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "pilotwave_threads": thread_count(),
        "PILOTWAVE_THREADS": os.environ.get("PILOTWAVE_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(), "git_sha": git_sha(ROOT),
        "sizes": workload.sizes,
        "passes": len(passes),
        "traced_passes": sum(1 for traced, _, _ in passes if traced),
        "setup_wall_s": [round(t, 4) for t in setup_raw],
        "pass_wall_s": [round(t.wall_s, 4) for t in tallies],
        "pass_scaled_s": [round(t.scaled_s, 4) for t in tallies],
        "failed_frac": 1.0 - ok / attempted,
        "failures": sorted(set(f for t in tallies for f in t.failures)),
    }
    result = {
        "correct": all(t.invariant_failures == 0 for t in tallies),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "result": result}, indent=1))
    if args.trace:
        from layertrace import span_records
        last = [s for traced, _, s in passes if traced][-1]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"meta": meta, "fields": ["name", "start", "end", "parent"],
             "spans": span_records(last)}))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12} {name:<28} {value:14.6g} {unit}")
    print(f"{args.workload:>12} {'failed_frac':<28} "
          f"{meta['failed_frac']:14.6g} ratio")
    for failure in meta["failures"]:
        print(f"{args.workload:>12} failure: {failure}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
