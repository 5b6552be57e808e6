"""End-to-end benchmark of the squeezelab CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from the root of a source checkout: the program under test is
``src/squeezelab``, imported through PYTHONPATH, never an installed copy.

Each invocation is a real CLI call in a fresh child process, run by a
single closed-loop client: one child at a time, the next only after the
previous one exited.  A fresh process is the cost a CLI user pays, and it
keeps the in-process eigensystem cache from carrying warm state between
invocations.  Children get SQUEEZELAB_THREADS and OPENBLAS_NUM_THREADS set
to the number of usable cores, so a change of host defaults cannot move
the numbers.

--trace 0 reports the end-to-end metrics: median wall time, CPU time
(user + system) and peak RSS of the workload's children, each read from
``os.wait4`` for that child alone, and the median time for a fresh
interpreter to import ``squeezelab.cli`` (setup_s).
--trace 1 runs the workload under ``perfbench/traced.py`` and reports the
per-layer metrics, then runs it again single-threaded (trace.wall_st_s).

Every output is checked against ``perfbench/reference``.  The workloads
are deterministic; the seed only shuffles the order in which workloads are
visited within each round (which matters with ``--workload all``).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from check import check_output
from traced import dominant_layer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SETUP_PROBES = 15    # timed fresh-interpreter imports per run, after one warm-up
MIN_ROUNDS = 2       # timed invocations per workload even when --seconds is short
HARD_LIMIT_S = 170   # no child may run past this point of a run of run_seconds;
                     # a longer --seconds moves the limit by as much
SETUP_ARGV = ["-c", "import squeezelab.cli"]


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("SQUEEZELAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(threads)
    return env


def machine(threads: int) -> dict:
    """Host, toolchain and thread settings the numbers were taken with."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": usable_cores(),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {var: str(threads) for var in
                    ("SQUEEZELAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Child:
    """One finished child process: its output and its own resource usage."""

    def __init__(self, argv: list[str], env: dict, out: Path, timeout: float):
        err = out.with_suffix(".err")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=stderr,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so that it never waits on the pid again
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.timed_out = self.wall_s >= timeout
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.output = out.read_text(errors="replace")
        self.stderr = err.read_text(errors="replace")


def problems_of(name: str, child: Child) -> list[str]:
    """Why this invocation failed; empty when it succeeded with correct output."""
    if child.timed_out:
        return [f"timed out after {child.wall_s:.1f} s"]
    if child.exit_code != 0:
        return [f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}"]
    spec = SPEC["workloads"][name]
    reference = (HERE / spec["reference"]).read_text()
    return check_output(spec["check"], child.output, reference, SPEC["tolerances"])


class Run:
    """Bookkeeping for one benchmark run: deadline, attempts and failures."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.limit = HARD_LIMIT_S + max(0.0, seconds - BENCH["run_seconds"])
        self.tally: dict[str, list[int]] = {}  # name -> [attempted, failed]
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, argv: list[str], env: dict, label: str) -> Child:
        timeout = max(1.0, self.limit - self.elapsed())
        return Child(argv, env, self.scratch / f"{label}.out", timeout)

    def count(self, name: str, label: str, problems: list[str]) -> None:
        tally = self.tally.setdefault(name, [0, 0])
        tally[0] += 1
        if problems:
            tally[1] += 1
            print(f"FAIL {name} ({label}): " + "; ".join(problems), flush=True)

    def invoke(self, name: str, argv: list[str], env: dict, label: str) -> Child:
        """Run one checked invocation of workload `name` and count it."""
        child = self.child(argv, env, label)
        self.count(name, label, problems_of(name, child))
        return child

    def error_rate(self, name: str) -> float:
        attempted, failed = self.tally[name]
        return failed / attempted

    def keep_going(self, rounds: int, longest_round: float, min_rounds: int) -> bool:
        if rounds < min_rounds:
            return True
        return self.elapsed() + longest_round <= self.seconds

    def cleanup(self) -> None:
        for path in self.scratch.iterdir():
            path.unlink()
        self.scratch.rmdir()


def rounds(run: Run, names: list[str], rng: random.Random, step, min_rounds: int) -> None:
    """Visit every workload once per round, in seeded order, while time remains."""
    done, longest = 0, 0.0
    while run.keep_going(done, longest, min_rounds):
        order = list(names)
        rng.shuffle(order)
        began = time.perf_counter()
        for name in order:
            step(name, done)
        longest = max(longest, time.perf_counter() - began)
        done += 1


def timed_run(run: Run, names: list[str], rng: random.Random) -> dict:
    env = child_env(usable_cores())
    run.child(SETUP_ARGV, env, "setup-warmup")  # compiles bytecode, warms the file cache
    setup = []

    def probe():
        i = len(setup)
        child = run.child(SETUP_ARGV, env, f"setup-{i}")
        run.count("setup", f"probe {i}", [child.stderr.strip()[-300:]] if child.exit_code else [])
        setup.append(child.wall_s)

    samples: dict[str, list[Child]] = {name: [] for name in names}

    def step(name, i):
        # The host's speed drifts over seconds, so the import probes are spread
        # over the run: one before every invocation, and more while they lag
        # behind the share of the run that has passed.
        probe()
        while len(setup) < SETUP_PROBES * min(1.0, run.elapsed() / run.seconds):
            probe()
        argv = ["-m", "squeezelab.cli", *SPEC["workloads"][name]["argv"]]
        samples[name].append(run.invoke(name, argv, env, f"{name}-{i}"))

    rounds(run, names, rng, step, MIN_ROUNDS)
    while len(setup) < SETUP_PROBES:
        probe()
    # The lower median is always a measured value, so with an even count one
    # outlier (peak RSS is bimodal on sweep: the two threads' peaks may or
    # may not overlap) cannot drag it halfway.
    median = statistics.median_low
    setup_s = median(setup)
    return {
        name: {
            "wall_s": median(c.wall_s for c in children),
            "cpu_s": median(c.cpu_s for c in children),
            "peak_rss_mb": median(c.peak_rss_mb for c in children),
            "setup_s": setup_s,
            "samples": {
                "wall_s": [round(c.wall_s, 4) for c in children],
                "cpu_s": [round(c.cpu_s, 4) for c in children],
                "peak_rss_mb": [round(c.peak_rss_mb, 1) for c in children],
                "setup_s": [round(t, 4) for t in setup],
            },
        }
        for name, children in samples.items()
    }


def traced_run(run: Run, names: list[str], rng: random.Random) -> dict:
    envs = {"": child_env(usable_cores()), "st": child_env(1)}
    samples: dict[str, list[dict]] = {name: [] for name in names}

    def step(name, i):
        metrics = {}
        for mode, env in envs.items():
            label = f"{name}-trace{mode}-{i}"
            spans_path = run.scratch / f"{label}.spans.json"
            argv = [str(HERE / "traced.py"), "--spans", str(spans_path), "--",
                    *SPEC["workloads"][name]["argv"]]
            child = run.invoke(name, argv, env, label)
            if mode == "st":
                metrics["trace.wall_st_s"] = child.wall_s
                continue
            if spans_path.exists():
                metrics.update(layer_metrics(json.loads(spans_path.read_text())["spans"]))
                spans_path.unlink()
            metrics["cli.output_bytes"] = len(child.output.encode())
            metrics["trace.wall_s"] = child.wall_s
        samples[name].append(metrics)

    rounds(run, names, rng, step, 1)
    result = {}
    for name, runs in samples.items():
        complete = [m for m in runs if "cli.main_s" in m]
        if not complete:
            continue
        merged = {key: statistics.median(m[key] for m in complete) for key in complete[0]}
        merged["dominant_layer"] = dominant_layer(merged)
        result[name] = merged
    return result


def print_table(results: dict, run: Run, trace: bool) -> None:
    """Human-readable report; the JSON line that follows is the machine-readable one."""
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for name, metrics in results.items():
        print(f"== {name}")
        for key, value in metrics.items():
            if key in units:
                print(f"  {key:32s} {value:>16.6g} {units[key]}")
        attempted, failed = run.tally[name]
        print(f"  {'error_rate':32s} {run.error_rate(name):>16.6g} ratio "
              f"({failed} of {attempted} invocations failed)")
        for key, values in metrics.get("samples", {}).items():
            print(f"  {key + ' samples':32s} {values}")
        if trace:
            predicted = SPEC["workloads"][name]["dominant"]
            layer = metrics["dominant_layer"]
            verdict = ("no prediction" if predicted is None
                       else "as predicted" if layer == predicted
                       else f"PREDICTED {predicted}")
            print(f"  dominant layer: {layer} ({verdict})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "squeezelab" / "cli.py").is_file():
        print(f"error: no squeezelab source under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    print("machine " + json.dumps(machine(usable_cores())), flush=True)

    run = Run(args.seconds)
    try:
        results = (traced_run if args.trace else timed_run)(run, names, rng)
    finally:
        run.cleanup()

    print_table(results, run, bool(args.trace))
    attempted = sum(a for a, _ in run.tally.values())
    failed = sum(f for _, f in run.tally.values())
    print(f"seed {args.seed}: {attempted} child processes, {failed} failed", flush=True)

    wanted = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    if len(names) == 1:
        values = results.get(names[0], {})
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {f"{name}/{m['name']}": {"value": results.get(name, {}).get(m["name"], 0.0),
                                           "unit": m["unit"]}
                   for name in names for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
