"""sl2kit benchmark: three seeded, closed-loop, single-client workloads.

Usage (from the repository root):
    python3 bench/run.py --workload sl2q-search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: sl2q-search, field-algebra, cli-oneshot (see bench/README.md).
Each run starts the workload process several times to the point where its
first task would start (set-up time), then once more to run a fixed number
of whole rounds of tasks: --seconds divided by the workload's nominal round
time (workloads.Workload.round_s), rounded up.  The task count therefore
depends on --seconds only, never on how fast the library is, and every
commit is measured on the same tasks.  Every task's output is
checked; a wrong answer, an exception, a traceback, a wrong exit code, a
malformed envelope or a timeout makes the task fail.

The shared 2-CPU machine this was built on changes speed by up to 2x within a run, so
every time is scaled to a nominal machine state by speed probes taken just
before and after it (see NOMINAL_REF_S); the raw median is kept in the
details line.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run and its tracing overhead.  Lines before the last start with
"#" and give the metrics by name with units and the run's provenance; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed; it is 2, without a
result, when the library source is missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sl2q-search", "field-algebra", "cli-oneshot")
SETUP_RUNS = 10
RUN_BUDGET_S = 170
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
MIN_BEYOND = 10
# The machine's speed drifts by 20-40% over seconds and minutes (other
# tenants).  Every time is scaled to a nominal machine state by a probe
# taken just before and just after it: for in-process work, a Fraction
# loop (nominal NOMINAL_REF_S); for CLI calls, a bare interpreter start
# (nominal NOMINAL_SPAWN_S); for set-up times, an interpreter start that
# imports numpy (nominal NOMINAL_IMPORT_S).  Set-up is mostly importing,
# and its ratio to a bare start drifted by up to 30% between two sets of
# runs; against the numpy import it varies less (bench/README.md).  A probe returns the machine's
# slowness, 1.0 at nominal.
NOMINAL_REF_S = 0.013
NOMINAL_SPAWN_S = 0.040
NOMINAL_IMPORT_S = 0.105


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_loop():
    """Fixed pure-Python Fraction arithmetic, the speed yardstick."""
    x, acc = Fraction(1, 3), Fraction(0)
    for k in range(1, 500):
        acc += x * Fraction(k, k + 1) - Fraction(1, k)
    return acc


def cpu_probe() -> float:
    """Slowness of in-process work: three reference loops, the median one."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 3 / NOMINAL_REF_S


def run_child(cmd, timeout, **kwargs):
    """Run a child to its exit; returns (exit code, stdout, stderr, seconds).

    The timeout kills the child from a timer thread instead of polling, so
    the wait is one blocking waitpid and the measured time is not rounded
    up to subprocess's polling steps.  Raises TimeoutError after a kill.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    if not timer.is_alive() and proc.returncode == -signal.SIGKILL:
        raise TimeoutError(f"killed after {timeout} s: {cmd[1:3]}")
    return proc.returncode, stdout, stderr, seconds


def spawn_probe() -> float:
    """Slowness of process start-up: one bare interpreter start."""
    return run_child([sys.executable, "-c", "pass"], 60)[3] / NOMINAL_SPAWN_S


def import_probe() -> float:
    """Slowness of set-up: one interpreter start that imports numpy."""
    return run_child([sys.executable, "-c", "import numpy"], 60,
                     env=child_env())[3] / NOMINAL_IMPORT_S


def to_nominal(seconds: float, before: float, after: float) -> float:
    """A time measured between two probes, at nominal speed."""
    return seconds * 2 / (before + after)


def launch(args, timeout) -> dict:
    """Run one worker process to completion; ``setup_raw_s`` is the time
    from just before the launch to the worker's ``ready`` stamp."""
    t0 = time.monotonic()
    try:
        rc, stdout, stderr, _ = run_child(
            [sys.executable, str(BENCH / "worker.py"), *args], timeout,
            env=child_env(), cwd=ROOT)
    except TimeoutError as exc:
        raise BenchError(f"worker {args} {exc}") from None
    if rc != 0 or not stdout.strip():
        raise BenchError(f"worker {args} exited {rc}:\n{stderr[-2000:]}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    doc["setup_raw_s"] = doc["ready"] - t0
    return doc


def setup_times(name, seed, deadline) -> list:
    """Set-up times of SETUP_RUNS workers started with --setup-only, at
    nominal speed; an import probe runs before the first launch and after
    each one, so each launch lies between two probes."""
    times, before = [], import_probe()
    for _ in range(SETUP_RUNS):
        doc = launch(["--workload", name, "--seed", str(seed), "--setup-only"],
                     deadline - time.monotonic())
        after = import_probe()
        times.append(to_nominal(doc["setup_raw_s"], before, after))
        before = after
    return times


def quantile(sorted_vals, q: float) -> float:
    """Linearly interpolated quantile, 0 <= q <= 1."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(sorted_vals):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it (the median when even that has fewer)."""
    n = len(sorted_vals)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= MIN_BEYOND:
            break
    return pct, quantile(sorted_vals, pct / 100), n * (1 - pct / 100)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "sl2kit").glob("*.py")))


def git_sha():
    try:
        rc, stdout, _, _ = run_child(["git", "rev-parse", "HEAD"], 10, cwd=ROOT)
    except (OSError, TimeoutError):
        return None
    return stdout.strip() if rc == 0 else None


def end_to_end(records, setups, peak_rss_kb) -> dict:
    """The six end-to-end metrics, name -> (value, unit)."""
    lat = sorted(r["norm_s"] for r in records)
    ok = sum(r["ok"] for r in records)
    return {
        "task_p50_ms": (quantile(lat, 0.5) * 1000, "ms"),
        "task_tail_ms": (tail(lat)[1] * 1000, "ms"),
        "tasks_per_s": (ok / sum(lat), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "success_rate": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MiB"),
    }


def run_workload(name, seed, seconds, trace, deadline):
    setups = setup_times(name, seed, deadline)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    doc = launch(args + (["--trace"] if trace else []),
                 deadline - time.monotonic())

    records = doc["records"]
    if trace:
        metrics = {k: tuple(v) for k, v in doc["layers"].items()}
    else:
        metrics = end_to_end(records, setups, doc["peak_rss_kb"])
    lat = sorted(r["norm_s"] for r in records)
    ok = sum(r["ok"] for r in records)
    pct, _, beyond = tail(lat)
    details = {
        "workload": name, "seed": seed, "trace": trace,
        "tasks": len(records), "rounds": doc["rounds"],
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "error_rate": 1 - ok / len(records),
        "raw_task_p50_ms": quantile(sorted(r["s"] for r in records), 0.5) * 1000,
        "setup_samples_s": setups,
        "failures": [r for r in records if not r["ok"]][:20],
        "known_defects": doc.get("known_defects", []),
        "spans_file": doc.get("spans_file"),
        "numpy": doc["numpy"],
    }
    return records, ok, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sl2kit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sl2kit" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'sl2kit'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    provenance = {"git_sha": git_sha(), "python": platform.python_version(),
                  "nproc": os.cpu_count(), "src_sl2kit_lines": src_lines()}
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            records, ok, wl_metrics, details = run_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        attempted += len(records)
        failed += len(records) - ok
        print("# details " + json.dumps({**provenance, **details}))
        for key, (value, unit) in wl_metrics.items():
            print(f"# {name} {key} = {value:.6g} {unit}")
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
