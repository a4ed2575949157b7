"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads d2_sweep,exact --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --write perfbench/baseline.json

Runs `perfbench/run.py` once per (workload, seed), one after another, with
the run length from BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (q3 - q1) / median, next to a third of the metric's bound.  With
`--write` it also stores these figures, the layer map and the machine's
description as a baseline file.  The exit code is 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 200


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    metric_defs = bench["per_layer" if args.trace else "end_to_end"]
    summary: dict = {}
    provenance = None
    ok = True
    for workload in args.workloads.split(","):
        values: dict = {m["name"]: [] for m in metric_defs}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            took = time.perf_counter() - began
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            if provenance is None:
                out = ROOT / "perfbench" / "out" / f"result-{workload}-s{seed}-t{args.trace}.json"
                provenance = json.loads(out.read_text())["provenance"]
            print(f"{workload} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for m in metric_defs:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None  # a layer the workload never calls
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "runs": len(vals)}
            limit = m.get("bound")
            if spread is None:
                flag, shown = "", "    n/a"
            else:
                flag = "" if limit is None else ("  ok" if spread < limit / 3 else f"  WIDE (bound {limit})")
                shown = f"{spread:7.2%}"
            print(f"  {workload:<9} {m['name']:<40} median {med:12.6g} {m['unit']:<6} spread {shown}{flag}")
        summary[workload] = rows

    if args.write and provenance is not None:
        keep = ("git_commit", "nproc", "cpu_affinity", "cpu_model", "python", "numpy", "scipy",
                "thread_env", "loop")
        Path(args.write).write_text(json.dumps({
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "trace": args.trace,
            "machine": {k: provenance[k] for k in keep if k in provenance},
            "layer_map": provenance["layer_map"],
            "workloads": summary,
        }, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
