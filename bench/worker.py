"""One workload process: set up, run whole rounds of tasks, report.

Usage (normally started by run.py):
    python bench/worker.py --workload NAME --seed N --seconds S [--trace]
    python bench/worker.py --workload NAME --seed N --setup-only

Prints one JSON document on stdout.  ``ready`` is the CLOCK_MONOTONIC time
at which the first timed task was about to start, so the parent can compute
the set-up time from its own launch time.  Tasks run one at a time (a closed
loop with one client), in a fixed number of whole rounds:
``Workload.rounds_for(--seconds)``.  With --trace, the rounds of an
untraced phase a third of that length are run again under the tracer,
after a traced set-up of a fresh workload, and the ratio of the two
in-task walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (imports sl2kit: part of the set-up time)
from oracles import Mismatch  # noqa: E402
from run import ROOT, child_env, run_child, to_nominal  # noqa: E402

TASK_TIMEOUT_S = 60.0
OUT_DIR = ".bench_out"
PROBE_RUNS = 3
PROBE_EVERY_S = 0.1


def execute(task, tracer=None, task_id=0) -> dict:
    """Time one task, then check its output outside the timed region."""
    rec = {"kind": task.kind, "label": task.label, "ok": True}
    if tracer is not None:
        tracer.begin_task(task_id)
    t0 = perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # a task's failure is recorded; the run goes on
        rec["s"] = perf_counter() - t0
        rec["ok"], rec["error"] = False, f"{type(exc).__name__}: {exc}"[:300]
        return rec
    else:
        rec["s"] = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.end_task()
    if rec["s"] > TASK_TIMEOUT_S:
        rec["ok"], rec["error"] = False, f"timeout: {rec['s']:.1f} s"
        return rec
    try:
        task.check(out)
    except Mismatch as exc:
        rec["ok"], rec["error"] = False, f"wrong answer: {exc}"[:300]
    return rec


def run_rounds(wl, rounds, tracer=None):
    """Exactly ``rounds`` whole rounds of tasks.

    The workload's speed probe runs before the first task and after every
    PROBE_EVERY_S of task time; each task's ``norm_s`` is its time ``s``
    scaled by the probes on either side of it.
    """
    records, pending = [], []
    before = wl.probe()

    def settle():
        nonlocal before
        after = wl.probe()
        for rec in pending:
            rec["norm_s"] = to_nominal(rec["s"], before, after)
        pending.clear()
        before = after

    for r in range(rounds):
        for task in wl.round(r):
            rec = execute(task, tracer, len(records))
            records.append(rec)
            pending.append(rec)
            if sum(p["s"] for p in pending) >= PROBE_EVERY_S:
                settle()
        settle()
    return records


def _spawn(cmd) -> tuple:
    """(milliseconds from spawn to exit, stderr) of one child."""
    _, _, stderr, seconds = run_child(cmd, 60, env=child_env(), cwd=ROOT)
    return seconds * 1000, stderr


def _import_times(stderr: str) -> dict:
    """Cumulative -X importtime figures (us) for sl2kit and numpy."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("sl2kit", "numpy"):
            out[parts[2].strip()] = int(parts[1]) / 1000
    return out


def cli_layer(child_times) -> dict:
    """Interpreter start and import cost, by bare child processes, plus the
    CLI's parse/handler/emit medians from traced CLI calls (0 if none)."""
    bare = [_spawn([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_RUNS)]
    imports = [_import_times(_spawn([sys.executable, "-X", "importtime",
                                     "-c", "import sl2kit"])[1])
               for _ in range(PROBE_RUNS)]
    out = {"cli.interpreter_ms": statistics.median(bare),
           "cli.import_ms": statistics.median(i.get("sl2kit", 0) for i in imports),
           "cli.import_numpy_ms": statistics.median(i.get("numpy", 0)
                                                    for i in imports)}
    for key in ("parse_args_ms", "handler_ms", "emit_ms"):
        vals = [t.get(key, 0.0) for t in child_times]
        out[f"cli.{key}"] = statistics.median(vals) if vals else 0.0
    return out


def write_spans(tracer, name, seed) -> str:
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                        "parent", "task"],
                             "kept": len(tracer.spans),
                             "dropped": tracer.dropped}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def traced_run(wl, seconds, seed) -> dict:
    import tracing
    rounds = wl.rounds_for(seconds / 3)
    base = run_rounds(wl, rounds)
    tracer = tracing.Tracer()
    if isinstance(wl, workloads.CliOneshot):
        wl.traced, wl.tracer = True, tracer
    tracer.install()
    try:
        # set up a fresh workload under the tracer, so that lazy set-up
        # (tree contexts, ArchimedeanEmbedding, fields) shows in the layers
        tracer.begin_task("setup")
        workloads.build(wl.name, seed)
        tracer.end_task()
        traced = run_rounds(wl, rounds, tracer)
    finally:
        tracer.uninstall()
        wl.traced = False
    metrics = tracing.layer_metrics(tracer.record())
    metrics.update((k, (v, "ms")) for k, v in
                   cli_layer(getattr(wl, "child_times", [])).items())
    metrics["trace_overhead"] = (sum(r["norm_s"] for r in traced)
                                 / sum(r["norm_s"] for r in base), "ratio")
    return {"records": base + traced, "rounds": rounds, "layers": metrics,
            "spans_file": write_spans(tracer, wl.name, seed)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    doc = {"ready": ready}
    if not args.setup_only:
        if args.trace:
            doc.update(traced_run(wl, args.seconds, args.seed))
        else:
            doc["rounds"] = wl.rounds_for(args.seconds)
            doc["records"] = run_rounds(wl, doc["rounds"])
        cli = isinstance(wl, workloads.CliOneshot)
        # ru_maxrss is in KiB; for the CLI it is the largest child so far
        doc["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss
        if cli:
            doc["known_defects"] = wl.known_defects()
        doc["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
