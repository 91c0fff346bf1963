"""The traced benchmark wraps library names by string; each must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
