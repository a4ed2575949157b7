"""Benchmark of arw: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload d2_sweep --seed 1 --seconds 55 --trace 0

Run from the repository root.  The runner pins the OpenMP and BLAS thread
pools to one thread, imports arw from `src/`, and repeats the workload's
fixed pass (see workloads.py) with inputs drawn from `--seed` until
`--seconds` are used, then checks the program's outputs.  With `--trace 0`
it reports the end-to-end metrics named in BENCHMARK.json, with set-up time
measured in fresh processes between passes; with `--trace 1` it runs each
pass untraced and then traced and reports the per-layer metrics from the
spans.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Provenance, the trial
digest and the spans are written under `perfbench/out/`.  The exit code
is 0 when every check passes, 1 when one fails and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CLOCK, END, NAME, PARENT, START, TAG, TRACE, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SETUP_PROBES = 3
PROBE_TIMEOUT_S = 30

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  Written into every result file next to the numbers.
LAYER_MAP = {
    "field.eval_grid": "trials_per_s on d2_sweep, more at large n; 0 on exact",
    "field.sample_coefficients": "trials_per_s on d2_sweep at small n only",
    "nodal.*": "trials_per_s on d2_sweep, most at small n; 0 on exact",
    "nodal.analyze.uncertified_s": "certified_trials_per_s and certified_fraction on d2_sweep",
    "nodal.analyze.peak_bytes_per_cell": "peak_rss_mb on d2_sweep",
    "lattice.*": "wall_s on exact; about 0 on d2_sweep (enumerate_shell is cached)",
    "algebra.*": "wall_s on exact",
    "experiments.*, cli.run_config": "wall_s on d2_sweep",
    "trace.overhead_s": "traced minus untraced wall_s of the same pass",
}


def fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(ROOT / "src"))
    return {var: os.environ[var] for var in THREAD_VARS}


def probe_setup(workload: str) -> None:
    """Print the seconds from `import arw` to the end of first-call set-up."""
    t0 = time.perf_counter()
    import arw.cli  # noqa: F401  (the CLI module is part of set-up)
    import workloads

    workloads.WORKLOADS[workload]().warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(groups: dict, samples: dict) -> tuple[float, float, int]:
    """Tail of the per-trial time: the highest percentile with at least ten
    samples beyond it, taken over the trial times divided by their group's
    median and scaled by the geometric mean of the group medians.
    Returns (ms, percentile, sample count)."""
    scale = geomean(groups.values())
    ratios = sorted(t / groups[g] for g, ts in samples.items() for t in ts)
    count = len(ratios)
    if count <= 10:
        return scale * ratios[-1], 100.0, count
    return scale * ratios[count - 11], 100.0 * (count - 10) / count, count


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(args, bench: dict) -> int:
    threads = pin_threads()
    import numpy
    import scipy

    import arw
    import workloads

    if not Path(arw.__file__).resolve().is_relative_to(ROOT / "src"):
        return fail_usage(f"imported arw from {arw.__file__}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[args.workload]()
    rec = Recorder()
    workload.install_clock(rec)
    workload.warm_up()

    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Passes, until --seconds are used.  A traced run runs each pass twice,
    # untraced and then traced, so that the tracing overhead is measured on
    # the same inputs; its per-layer metrics come from the traced passes.
    # An untraced run measures set-up in a fresh process after every other
    # pass, so that its set-up samples span the run as its passes do.
    walls, trials, traced_walls, traced_trials, traced_ranges, setup = [], [], [], [], [], []
    if args.trace:
        workload.install_tracer(rec)
    start = time.perf_counter()
    index = 0
    while True:
        seed = workloads.pass_seed(args.seed, index)
        rec.level = CLOCK
        wall, pass_trials = workload.run_pass(rec, seed, workdir)
        walls.append(wall)
        trials.extend(pass_trials)
        if args.trace:
            rec.level = TRACE
            first = len(rec.spans)
            wall, pass_trials = workload.run_pass(rec, seed, workdir)
            traced_ranges.append(range(first, len(rec.spans)))
            traced_walls.append(wall)
            traced_trials.extend(pass_trials)
        elif index % 2 == 0:
            setup.append(measure_setup(args.workload))
        index += 1
        pace = statistics.median(walls) + (statistics.median(traced_walls) if args.trace else 0.0)
        if time.perf_counter() - start + 0.5 * pace > args.seconds:
            break
    rec.level = 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.checks(args.seed)
    failed_checks = [c for c in checks if not c[1]]

    extra: dict = {}
    if args.trace:
        wanted = bench["per_layer"]
        metrics = layer_metrics(rec, traced_ranges, workload, args.seed)
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        for m in wanted:  # a layer this workload never calls
            if m["name"].endswith(".self_s"):
                metrics.setdefault(m["name"], 0.0)
    else:
        while len(setup) < MIN_SETUP_PROBES:
            setup.append(measure_setup(args.workload))
        metrics, extra = end_to_end(walls, trials, setup, peak_rss_mb)
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail_usage(f"no value for metric(s) {missing}")

    attempted = len(trials) + len(traced_trials) + len(checks)
    failed = sum(1 for t in trials + traced_trials if t[3]) + len(failed_checks)
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": threads,
        "loop": "closed, 1 caller, 1 process, 1 thread",
        "workload_inputs": workload.describe(),
        "passes_untraced": len(walls),
        "passes_traced": len(traced_walls),
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "trials": len(trials),
        "wrap_targets_missing": rec.missing,
        "layer_map": LAYER_MAP,
    }
    provenance.update(extra)
    digest = workload.digest()
    with open(workdir.parent / f"result-{workdir.name}.json", "w") as fh:
        json.dump({"result": result, "provenance": provenance, "checks": checks, "digest": digest},
                  fh, indent=2)
    rec.write(workdir.parent / f"spans-{workdir.name}.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)

    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}")
    print(f"digest {digest} (per-trial n, trial_index, k, r, certified; not a gate)")
    if extra:
        print(f"trial_ms_tail is p{extra['trial_ms_tail_percentile']:.1f} "
              f"of {extra['trial_ms_tail_samples']} trials")
    for m in wanted:
        print(f"{m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(walls, trials, setup, peak_rss_mb) -> tuple[dict, dict]:
    busy = sum(walls)
    samples: dict = {}
    for group, seconds, _, _ in trials:
        samples.setdefault(group, []).append(seconds * 1e3)
    medians = {g: statistics.median(ts) for g, ts in samples.items()}
    certified = sum(1 for t in trials if t[2])
    tail_ms, pct, count = tail(medians, samples)
    p50 = geomean(medians.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "trials_per_s": len(trials) / busy,
        "certified_trials_per_s": certified / busy,
        "trial_ms_p50": p50,
        "trial_ms_tail": tail_ms,
        "certified_fraction": certified / len(trials),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"trial_ms_tail_percentile": pct, "trial_ms_tail_samples": count, "setup_samples_s": setup}
    return metrics, extra


def layer_metrics(rec, ranges: list[range], workload, seed: int) -> dict:
    """Per-layer metrics from the spans of the traced passes, per pass."""
    spans_ = rec.spans
    self_times = rec.self_times()
    indices = [i for r in ranges for i in r]
    passes = len(ranges)
    out: dict = {}
    calls: dict = {}
    for i in indices:
        name = spans_[i][NAME]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_times[i]
        calls[name] = calls.get(name, 0) + 1

    # eval_grid split by grid size (the base M of the enclosing analyze, or
    # the refinement's 2M) and by value or derivative
    split = {"coarse_s": 0.0, "fine_s": 0.0, "deriv_s": 0.0, "cells": 0, "bytes_computed": 0}
    analyze_total = analyze_self = uncertified = 0.0
    for i in indices:
        span, own = spans_[i], self_times[i]
        if span[TAG] is None:  # an untagged layer, or a call that raised
            continue
        if span[NAME] == "field.eval_grid":
            parent = span[PARENT]
            while parent >= 0 and spans_[parent][NAME] != "nodal.analyze":
                parent = spans_[parent][PARENT]
            base = spans_[parent][TAG]["M"] if parent >= 0 else span[TAG]["M"]
            split["coarse_s" if span[TAG]["M"] == base else "fine_s"] += own
            if span[TAG]["deriv"]:
                split["deriv_s"] += own
            split["cells"] += span[TAG]["cells"]
            split["bytes_computed"] += span[TAG]["bytes"]
        elif span[NAME] == "nodal.analyze":
            duration = span[END] - span[START]
            analyze_total += duration
            analyze_self += own
            if not span[TAG]["certified"]:
                uncertified += duration
    for key, value in split.items():
        out[f"field.eval_grid.{key}"] = value
    out["field.eval_grid.calls"] = calls.get("field.eval_grid", 0)
    out = {key: value / passes for key, value in out.items()}
    out["nodal.analyze.uncertified_s"] = uncertified / passes
    out["nodal.analyze.levels"] = calls.get("nodal.sign_grid", 0) / max(1, calls.get("nodal.analyze", 0))
    out["nodal.analyze.span_coverage"] = 1.0 - analyze_self / analyze_total if analyze_total else 0.0
    points = sum(spans_[i][TAG]["points"] for i in indices
                 if spans_[i][NAME] == "lattice.enumerate_shell" and spans_[i][TAG])
    out["lattice.enumerate_shell.points"] = points / passes
    out["nodal.analyze.peak_bytes_per_cell"] = workload.peak_bytes_per_cell(seed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arw" / "__init__.py").is_file():
        return fail_usage(f"no arw sources under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail_usage(f"cannot read {ROOT / 'BENCHMARK.json'}: {exc}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        return fail_usage(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.seconds <= 0:
        return fail_usage("--seconds must be positive")
    if args.probe_setup:
        pin_threads()
        probe_setup(args.workload)
        return 0
    return run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
