"""The traced benchmark wraps library names by string, and its workloads
call library names as sk.<name>; each must resolve.  Its CLI shim patches
three names in sl2kit.cli; each must stay in use."""

import argparse
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import sl2kit
import sl2kit.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_targets(monkeypatch):
    # executed from source without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_bench_trace_targets_resolve(monkeypatch):
    missing = []
    for _, module_name, attrs in load_targets(monkeypatch):
        module = importlib.import_module(module_name)
        for attr in attrs.split():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and meth in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_bench_workload_names_resolve():
    # bench/workloads.py calls the library as sk.<name>; read as text, so
    # the bench package is not imported
    text = (BENCH / "workloads.py").read_text()
    names = set(re.findall(r"(?<![\w.])sk\.([A-Za-z_][A-Za-z0-9_]*)", text))
    assert {"Rep4", "select_basis", "verify_embedding",
            "classify_2dim"} <= names
    assert sorted(n for n in names if not hasattr(sl2kit, n)) == []


# bench/cli_shim.py times the CLI by patching cli._Parser.parse_args,
# replacing cli._HANDLERS and wrapping cli._emit; each must keep working.

def test_cli_shim_patch_points_exist():
    assert issubclass(cli._Parser, argparse.ArgumentParser)
    assert "parse_args" not in vars(cli._Parser)
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert set(cli._HANDLERS) == set(sub.choices)
    assert callable(cli._emit)


def test_cli_main_reaches_the_patch_points_at_call_time(monkeypatch, capsys):
    calls = []

    def parse_args(self, *args, **kwargs):
        calls.append("parse_args")
        return argparse.ArgumentParser.parse_args(self, *args, **kwargs)

    def handler(args):
        calls.append("handler")
        return {"patched": True}, []

    def emit(status, result, diagnostics):
        calls.append("emit")
        print(status, result)

    monkeypatch.setattr(cli._Parser, "parse_args", parse_args)
    monkeypatch.setattr(cli, "_HANDLERS", dict(cli._HANDLERS, valuate=handler))
    monkeypatch.setattr(cli, "_emit", emit)
    assert cli.main(["valuate", "--p", "3", "--x", "9/2"]) == 0
    assert calls == ["parse_args", "handler", "emit"]
    assert capsys.readouterr().out == "ok {'patched': True}\n"
