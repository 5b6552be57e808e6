"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/repeat.py --workloads sweep,coeffs --seeds 1-10 --out results.json
    python3 perfbench/repeat.py --workloads all --seeds 1-10 --trace-seed 1 --out results.json

Runs ``perfbench/run.py`` once per (workload, seed) with the run length
fixed in BENCHMARK.json, from the current directory (a source checkout).
For each end-to-end metric it reports the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  A spread at or
below a third of the metric's bound counts as steady.  With --trace-seed,
one traced run per workload is added for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    for line in lines:
        if line.startswith(("FAIL", "  dominant layer")):
            print(f"    {line}", flush=True)
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[0].removeprefix("machine "))
    return result


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write runs and summary as JSON")
    args = parser.parse_args()

    names = ([w["name"] for w in BENCH["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": BENCH["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, 0)
            report.setdefault("machine", result.pop("machine"))
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed {values}", flush=True)
        summary = {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            for m in BENCH["end_to_end"]
        }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": runs, "summary": summary, "error_rate": failed / attempted}
        if args.trace_seed is not None:
            entry["trace"] = run_once(name, args.trace_seed, 1)
            entry["trace"].pop("machine")
        report["workloads"][name] = entry
        for metric, s in summary.items():
            print(f"  {name:8s} {metric:12s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}  "
                  f"{'steady' if s['steady'] else 'NOT STEADY'}", flush=True)
        print(f"  {name:8s} error_rate   {failed}/{attempted} = {entry['error_rate']:g}",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
