"""Self-tests of the benchmark.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload for one round (--seconds 0), untraced
and traced, and check that every metric BENCHMARK.json names is printed with
its unit.  The planted tests feed wrong answers to the checks and make sure
they count as failed tasks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import sl2kit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in doc["metrics"].items()}
    if trace and workload != "cli-oneshot":
        # the traced set-up builds the groups' Archimedean embeddings
        assert doc["metrics"]["hyperbolic.embedding.calls"]["value"] > 0


def test_refuses_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "cli-oneshot", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _first(wl, kind, label=None):
    return next(t for t in wl.round(0)
                if t.kind == kind and (label is None or t.label == label))


def test_dropped_element_counts_in_error_rate(monkeypatch):
    wl = workloads.build("sl2q-search", 3)
    task = _first(wl, "enumerate", workloads.enum_key(1, 3.0))
    assert worker.execute(task)["ok"]
    real = sl2kit.enumerate_bounded

    def planted(group, C, budget=None):
        res = real(group, C, budget)
        dropped = sorted(res.elements, key=oracles.matrix_key)[1:]
        return sl2kit.EnumerationResult(dropped, res.C, res.complete)

    monkeypatch.setattr(sl2kit, "enumerate_bounded", planted)
    bad = worker.execute(task)
    assert not bad["ok"] and bad["error"].startswith("wrong answer")
    bad["norm_s"] = bad["s"]
    good = {"ok": True, "norm_s": bad["s"]}
    metrics = run.end_to_end([good, good, good, bad], [0.2], 1024)
    assert metrics["success_rate"] == (0.75, "ratio")
    assert metrics["tasks_per_s"][0] == pytest.approx(3 / (4 * bad["s"]))


def test_word_task_checked_against_enumeration():
    wl = workloads.build("sl2q-search", 3)
    p, L, C = 3, 6, 2.0
    task = _first(wl, "word_bfs", workloads.word_key(p, L, C))
    words = frozenset(sl2kit.word_bfs(sl2kit.make_group(
        [workloads.S, workloads.T, workloads.diag(p)]), L, C))
    wl.enum_sets[(p, C)] = words - {next(iter(words))}
    with pytest.raises(oracles.Mismatch, match="outside enumerate_bounded"):
        task.check(words)


def test_wrong_gate_answers_are_caught():
    check = workloads.FieldAlgebra._gate_check(5, (1, 0, 1), (Fraction(1),) * 2)
    k = sl2kit.make_field([1, 0, 1])
    one, g = k.one(), k.gamma()
    with pytest.raises(oracles.Mismatch, match="multiplicative"):
        check(("rejected", (one, g)))
    with pytest.raises(oracles.Mismatch, match="split pair passed"):
        check(("accepted", 25, 0))


def test_corrupted_envelopes_are_caught():
    argv, code, golden = workloads.CLI_CASES[0]
    workloads.check_envelope((code, golden, ""), code, golden)
    bad_outputs = [
        (code, golden + golden, ""),                  # two envelopes
        (code, golden.replace("2", "3"), ""),         # golden bytes differ
        (2, golden, ""),                              # wrong exit code
        (code, golden, "Traceback (most recent call last):\n"),
        (code, "", ""),                               # no envelope
        (code, golden.replace(", ", ",", 1), ""),     # not the sorted dump
    ]
    for out in bad_outputs:
        with pytest.raises(oracles.Mismatch):
            workloads.check_envelope(out, code, golden)


def test_tracer_counts_and_restores():
    originals = {n: getattr(sl2kit.properaction, n)
                 for n in ("displacement", "act", "word_bfs")}
    mul = sl2kit.Matrix.__mul__
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_task(0)
        group = sl2kit.make_group([workloads.S, workloads.T])
        kept = sl2kit.word_bfs(group, 2, 1.0)
        tr.end_task()
    finally:
        tr.uninstall()
    assert sl2kit.Matrix.__mul__ is mul
    for name, fn in originals.items():
        assert getattr(sl2kit.properaction, name) is fn
    layers = tracing.layer_metrics(tr.record())
    ball = sl2kit.word_ball(group.generators, 2)
    assert layers["properaction.word_bfs.calls"] == (1, "count")
    assert layers["properaction.word_bfs.candidates"] == (len(ball), "count")
    assert layers["properaction.word_bfs.kept_ratio"][0] == \
        pytest.approx(len(kept) / len(ball))
    assert layers["bttree.act.calls"] == (0, "count")  # s = 1: no tree
