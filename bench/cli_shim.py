"""Traced stand-in for ``python -m sl2kit``, used by the traced cli-oneshot run.

Usage: python bench/cli_shim.py <sl2kit subcommand and flags>

Installs the tracer on the library, times the CLI's argument parsing,
handler and envelope emission, runs ``sl2kit.cli.main`` and exits with its
code.  Stdout is the CLI's own; the trace record goes to stderr as one line
starting with MARK.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

MARK = "BENCH_TRACE "


def _timed(times, key, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[key] = times.get(key, 0.0) + (perf_counter() - t0) * 1000
    return wrapper


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import sl2kit.cli as cli

    times = {}
    cli._Parser.parse_args = _timed(times, "parse_args_ms",
                                    argparse.ArgumentParser.parse_args)
    cli._HANDLERS = {name: _timed(times, "handler_ms", fn)
                     for name, fn in cli._HANDLERS.items()}
    cli._emit = _timed(times, "emit_ms", cli._emit)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_task(0)
    try:
        return cli.main(argv)
    finally:
        tracer.end_task()
        sys.stderr.write(MARK + json.dumps({"trace": tracer.record(),
                                            "times": times}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
