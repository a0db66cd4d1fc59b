"""Benchmark of the hyperpfaffian CLI, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of ``workloads.py``, or ``all`` to run each in turn and
print every metric by name with its unit.  Each op is one fresh
``python -m hyperpfaffian.cli`` process with ``src`` on the path, so every
op pays interpreter start and imports and starts with empty caches, as it
does for a user.  Ops run in a closed loop with one client: the next op
starts when the previous one has exited, for ``--seconds``.  An op passes
only with exit code 0 and exactly the expected stdout.

A fixed pure-Python loop is timed before the first child and after each
one.  Every reported time is scaled to the loop's reference speed (see
``SpeedScale``), because the machine's own speed drifts more than a
regression bound allows.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with traced ones (``trace_op.py``) and reports the per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record:
Python version, CPU count, commit, seeds, op counts, unscaled medians and
the calibration timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
TRACE_OP = Path(__file__).resolve().parent / "trace_op.py"
SETUP_REPEATS = 9
OP_TIMEOUT_S = 60.0
CALIBRATION_LOOPS = 200_000
# The calibration loop's time at the reference speed.  On a 2.1 GHz Xeon
# vCPU with Python 3.11.7 it takes about 20 ms: the median of 900 timings,
# whose deciles were 15 and 22 ms.
CALIBRATION_REFERENCE_S = 0.02
# Counts the benchmark derives itself rather than reading off a result.
COMPUTED_COUNTS = ("poly.monomial_products",)

# Metric names and units, as BENCHMARK.json declares them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def op_seeds(seed: int):
    """The ``--seed`` values of a run's ops: an endless stream fixed by ``seed``."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 1 << 31)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(command: list[str], env: dict, timeout: float = OP_TIMEOUT_S):
    """Run one child process to completion.

    Returns (exit code, or None if it timed out and was killed; wall seconds
    from spawn to exit; stdout).  A failing child's stderr is passed on.
    """
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"timed out after {timeout} s: {' '.join(command)}", file=sys.stderr)
        return None, time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    if done.returncode:
        print(f"exit code {done.returncode}: {' '.join(command)}\n{done.stderr}", file=sys.stderr)
    return done.returncode, seconds, done.stdout


def run_op(command: list[str], expected: str, env: dict, timeout: float = OP_TIMEOUT_S):
    """(passed, wall seconds) of one op: it passes only with exit code 0 and
    exactly ``expected`` on stdout."""
    code, seconds, stdout = run_child(command, env, timeout)
    if code == 0 and stdout != expected:
        print(f"unexpected stdout: {' '.join(command)}\n{stdout}", file=sys.stderr)
    return code == 0 and stdout == expected, seconds


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "hyperpfaffian.cli", *argv]


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedScale:
    """Calibration timings taken between a run's child processes.

    On a shared host the machine's speed drifts by tens of percent within
    seconds to minutes, and a child's wall time drifts with it.  After each
    child the loop is timed once per half second of the child's wall time,
    so the timings cover a run evenly.  Child i runs between ``gaps[i]`` and
    ``gaps[i + 1]``; its times are scaled to the reference speed by the
    median of the timings in the four gaps nearest it, two before and two
    after.
    """

    def __init__(self):
        self.gaps = [[calibration_s()]]

    @property
    def children(self) -> int:
        return len(self.gaps) - 1

    def mark(self, seconds: float) -> None:
        """Calibrate after a child that ran for ``seconds`` has exited."""
        self.gaps.append([calibration_s() for _ in range(max(1, round(seconds / 0.5)))])

    def factor(self, child: int) -> float:
        near = [t for gap in self.gaps[max(0, child - 1):child + 3] for t in gap]
        return CALIBRATION_REFERENCE_S / statistics.median(near)


def setup_seconds(env: dict, scale: SpeedScale) -> list[tuple[int, float]]:
    """(child index, wall seconds) of fresh processes that import the CLI and exit.

    One untimed import first writes the bytecode cache, which a user pays
    once, not per command.
    """
    command = [sys.executable, "-c", "import hyperpfaffian.cli"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        passed, seconds = run_op(command, "", env)
        if not passed:
            raise SystemExit("error: cannot import hyperpfaffian.cli from src")
        times.append((scale.children, seconds))
        scale.mark(seconds)
    return times[1:]


def peak_rss_mb() -> float:
    """Largest max-RSS of any child this process has waited for (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def commit() -> str:
    """The checkout's git commit, or "unknown" where it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(workload: wl.Workload, seed: int, seconds: float, env: dict, scale: SpeedScale):
    """Untraced closed loop: the end-to-end metrics, the op seeds used, the
    passing op count and the unscaled wall times."""
    setups = setup_seconds(env, scale)
    seeds = op_seeds(seed)
    used, ops, passed = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        used.append(next(seeds))
        child = scale.children
        ok, op_seconds = run_op(cli_command(wl.op_argv(workload, used[-1])),
                                workload.expected, env)
        scale.mark(op_seconds)
        passed += ok
        ops.append((child, op_seconds, ok))
    op_times = [s * scale.factor(i) for i, s, _ in ops]
    passing = [s for s, (_, _, ok) in zip(op_times, ops) if ok] or op_times
    metrics = {
        "op_s_p50": statistics.median(passing),
        "ops_per_s": passed / sum(op_times),
        "setup_s": statistics.median(s * scale.factor(i) for i, s in setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": passed / len(used),
    }
    wall = {
        "op_s_p50": statistics.median(s for _, s, ok in ops if ok) if passed else None,
        "setup_s": statistics.median(s for _, s in setups),
    }
    return metrics, used, passed, {"wall_s": wall}


def traced_op(workload: wl.Workload, op_seed: int, env: dict):
    """One traced op: its report (layer metrics, spans) and wall time, or None
    if it failed."""
    spawned = time.monotonic()
    code, _, stdout = run_child([sys.executable, str(TRACE_OP), workload.name, str(op_seed)],
                                env)
    body, _, last = stdout.rstrip("\n").rpartition("\n")
    if code != 0:
        return None
    if body + "\n" != workload.expected:
        print(f"unexpected stdout of the traced op: {body}", file=sys.stderr)
        return None
    report = json.loads(last)
    op_seconds = report["op_end"] - spawned
    report["metrics"]["cli.overhead_s"] = op_seconds - report["top_level_s"]
    return report, op_seconds


def scaled(value, unit: str, factor: float):
    """A measured value at the reference speed; counts stay as they are."""
    return value * factor if unit == "s" else value / factor if unit == "1/s" else value


def measure_traced(workload: wl.Workload, seed: int, seconds: float, env: dict,
                   scale: SpeedScale):
    """Alternate untraced and traced ops: the per-layer metrics, medians over
    the traced ops, with every time scaled like the end-to-end ones."""
    seeds = op_seeds(seed)
    used, untraced, traced, passed = [], [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        used.append(next(seeds))
        child = scale.children
        ok, op_seconds = run_op(cli_command(wl.op_argv(workload, used[-1])),
                                workload.expected, env)
        scale.mark(op_seconds)
        if ok:
            passed += 1
            untraced.append((child, op_seconds))
        used.append(next(seeds))
        child = scale.children
        started = time.perf_counter()
        report = traced_op(workload, used[-1], env)
        scale.mark(time.perf_counter() - started)
        if report is not None:
            passed += 1
            traced.append((child, *report))
    if not traced or not untraced:
        raise SystemExit(f"error: no traced and untraced op of {workload.name} passed")
    layers = []
    for child, report, _ in traced:
        factor = scale.factor(child)
        layers.append({name: scaled(value, PER_LAYER[name], factor)
                       for name, value in report["metrics"].items()})
    metrics = {  # a count keeps its exact value: the median of equal counts
        name: (statistics.median_low if unit == "count" else statistics.median)(
            [layer[name] for layer in layers])
        for name, unit in PER_LAYER.items() if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(s * scale.factor(i) for i, _, s in traced)
        - statistics.median(s * scale.factor(i) for i, s in untraced)
    )
    return metrics, used, passed, {"computed_counts": list(COMPUTED_COUNTS)}


def run_workload(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    env = child_env()
    scale = SpeedScale()
    measure_run = measure_traced if args.trace else measure
    metrics, used, passed, extra = measure_run(workload, args.seed, args.seconds, env, scale)
    samples = [t for gap in scale.gaps for t in gap]
    record = {
        "workload": workload.name,
        "command": ["python", "-m", "hyperpfaffian.cli", *workload.command],
        "seed": args.seed,
        "op_seeds": used if workload.seeded else [],
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": len(used),
        "passed": passed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "calibration_s": {"before": samples[0], "after": samples[-1],
                          "median": statistics.median(samples), "count": len(samples),
                          "reference": CALIBRATION_REFERENCE_S},
        **extra,
    }
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": passed == len(used),
        "attempted": len(used),
        "failed": len(used) - passed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own benchmark process; prints each metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in wl.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: {result['attempted'] - result['failed']}/{result['attempted']} ops passed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:30} {entry['value']:.6g} {entry['unit']}")
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hyperpfaffian" / "cli.py").is_file():
        print(f"error: no hyperpfaffian sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
