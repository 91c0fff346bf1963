"""Per-layer tracing installed from outside the library.

install() wraps the public functions and methods listed in TARGETS in every
loaded ``sl2kit`` module namespace (the modules import each other's names
directly, so each binding is replaced); uninstall() puts the originals back
and verifies that no wrapper is left.  The library source is never edited.

Each wrapped call opens a span (name, start, end, parent span, task id).  A
call made while the innermost open span has the same name is folded into it,
so recursion (``Matrix.det`` on minors, ``parse_matrix`` -> ``parse_rational``)
counts once.  A layer's self time is its span time minus the time of its
direct child spans.  Spans are kept in memory up to SPAN_CAP and written out
by the caller; the aggregates count every call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN_CAP = 50_000

# metric prefix, module, attributes ("Class.method" or function names)
TARGETS = (
    ("properaction.enumerate_bounded", "sl2kit.properaction", "enumerate_bounded"),
    ("properaction.word_ball", "sl2kit.properaction", "word_ball"),
    ("properaction.word_bfs", "sl2kit.properaction", "word_bfs"),
    ("properaction.displacement", "sl2kit.properaction", "displacement"),
    ("bttree.act", "sl2kit.bttree", "act"),
    ("bttree.canonicalize", "sl2kit.bttree", "canonicalize"),
    ("bttree.distance", "sl2kit.bttree", "distance"),
    ("bttree.ball", "sl2kit.bttree", "ball"),
    ("bttree.neighbors", "sl2kit.bttree", "neighbors"),
    ("hyperbolic.displacement_hyp", "sl2kit.hyperbolic", "displacement_hyp"),
    ("hyperbolic.embedding", "sl2kit.hyperbolic", "ArchimedeanEmbedding.__init__"),
    ("matrices.mul", "sl2kit.matrices", "Matrix.__mul__"),
    ("matrices.inverse", "sl2kit.matrices", "Matrix.inverse"),
    ("matrices.det", "sl2kit.matrices", "Matrix.det"),
    ("matrices.rank", "sl2kit.matrices", "rank"),
    ("matrices.linear_solve", "sl2kit.matrices", "linear_solve"),
    ("numberfield.mul", "sl2kit.numberfield", "FieldElement.__mul__"),
    ("numberfield.inverse", "sl2kit.numberfield", "FieldElement.inverse"),
    ("numberfield.minimal_polynomial", "sl2kit.numberfield", "minimal_polynomial"),
    ("numberfield.make_field", "sl2kit.numberfield", "make_field"),
    ("valuations.padic", "sl2kit.valuations", "PAdicValuation.__call__"),
    ("valuations.extended", "sl2kit.valuations", "ExtendedValuation.__call__"),
    ("valuations.extend", "sl2kit.valuations", "extend"),
    ("traceembed.select_basis", "sl2kit.traceembed", "select_basis"),
    ("traceembed.alpha", "sl2kit.traceembed", "alpha"),
    ("traceembed.rep4", "sl2kit.traceembed", "Rep4.__call__"),
    ("traceembed.verify_embedding", "sl2kit.traceembed", "verify_embedding"),
    ("sl2classify.classify_2dim", "sl2kit.sl2classify", "classify_2dim"),
    ("sl2classify.normalize_basis", "sl2kit.sl2classify", "normalize_basis"),
    ("sl2classify.maximality_factor", "sl2kit.sl2classify", "maximality_factor"),
    ("serialization.parse", "sl2kit.serialization",
     "parse_rational parse_scalar parse_matrix parse_minpoly parse_field "
     "parse_vertex parse_point parse_group"),
    ("serialization.encode", "sl2kit.serialization",
     "encode_rational encode_scalar encode_matrix encode_vertex encode_point"),
)


def _count_len(key):
    def hook(counts, args, result, exc):
        if exc is None:
            counts[key] += len(result)
    return hook


def _count_enumerated(counts, args, result, exc):
    if exc is None:
        counts["properaction.enumerate_bounded.elements"] += len(result.elements)


def _count_n4(counts, args, result, exc):
    if args[0].n == 4:
        counts["matrices.mul.n4"] += 1


def _count_rejected(counts, args, result, exc):
    if type(exc).__name__ == "NotAValuationError":
        counts["valuations.extend.rejected"] += 1


HOOKS = {
    "properaction.enumerate_bounded": _count_enumerated,
    "properaction.word_ball": _count_len("properaction.word_ball.elements"),
    "properaction.word_bfs": _count_len("properaction.word_bfs.kept"),
    "bttree.ball": _count_len("bttree.ball.vertices"),
    "matrices.mul": _count_n4,
    "valuations.extend": _count_rejected,
}

COUNTS = ("properaction.enumerate_bounded.elements",
          "properaction.word_ball.elements", "bttree.ball.vertices",
          "valuations.extend.rejected")


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and per-layer aggregates for one traced phase."""

    def __init__(self):
        self.active = False
        self.stack = []       # open frames: [span id, name, start, child time]
        self.stats = {}       # name -> [calls, busy_s, self_s]
        self.edges = Counter()  # (parent name, child name) -> calls
        self.counts = Counter()
        self.spans = []       # [id, name, start, end, parent id, task id]
        self.dropped = 0
        self.task_id = None
        self._next_id = 0
        self._undo = []       # (owner, attribute, original)

    # -- spans ----------------------------------------------------------

    def _open(self, name):
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
            self.edges[(parent[1], name)] += 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append([span_id, name, start, end,
                               parent[0] if parent else None, self.task_id])
        else:
            self.dropped += 1

    def begin_task(self, task_id):
        self.task_id = task_id
        self.active = True
        self._open("task")

    def end_task(self):
        self._close(self.stack[-1])
        self.active = False

    def wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer.stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._close(frame)
                if hook is not None:
                    hook(tracer.counts, args, result, exc)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------

    def install(self):
        """Wrap every target in every loaded sl2kit namespace."""
        for _, module_name, _ in TARGETS:  # before any binding is read
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sl2kit" or n.startswith("sl2kit.")]
        for name, module_name, attrs in TARGETS:
            module = sys.modules[module_name]
            for attr in attrs.split():
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    wrapper = self.wrap(name, orig)
                    # aliases such as FieldElement.__rmul__ = __mul__
                    for alias, value in list(vars(cls).items()):
                        if value is orig:
                            self._set(cls, alias, wrapper, orig)
                else:
                    orig = getattr(module, attr)
                    wrapper = self.wrap(name, orig)
                    for mod in modules:
                        for alias, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, alias, wrapper, orig)

    def _set(self, owner, attr, wrapper, orig):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        """Restore the originals and check that no wrapper is left."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        for n, mod in list(sys.modules.items()):
            if n == "sl2kit" or n.startswith("sl2kit."):
                for owner in [mod] + [v for v in vars(mod).values()
                                      if isinstance(v, type)]:
                    for attr, value in vars(owner).items():
                        if hasattr(value, "__bench_wrapped__"):
                            raise RuntimeError(
                                f"wrapper left on {n}.{attr} after uninstall")

    # -- results --------------------------------------------------------

    def record(self) -> dict:
        """Aggregates in a JSON-ready form (mergeable across processes)."""
        return {"stats": self.stats,
                "edges": [[a, b, n] for (a, b), n in self.edges.items()],
                "counts": dict(self.counts)}

    def merge(self, rec: dict):
        for name, (calls, busy, self_s) in rec["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += busy
            st[2] += self_s
        for a, b, n in rec["edges"]:
            self.edges[(a, b)] += n
        self.counts.update(rec["counts"])


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics from a Tracer.record(): every target's calls,
    busy_s and self_s, the work counts, and each ratio beside its base."""
    stats = rec["stats"]
    edges = {(a, b): n for a, b, n in rec["edges"]}
    counts = Counter(rec["counts"])
    out = {}
    for name, _, _ in TARGETS:
        calls, busy, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    for key in COUNTS:
        out[key] = (counts[key], "count")
    predicate = edges.get(("properaction.enumerate_bounded",
                           "properaction.displacement"), 0)
    out["properaction.enumerate_bounded.predicate_calls"] = (predicate, "count")
    out["properaction.enumerate_bounded.accept_ratio"] = (
        _ratio(counts["properaction.enumerate_bounded.elements"], predicate),
        "ratio")
    candidates = edges.get(("properaction.word_bfs",
                            "properaction.displacement"), 0)
    out["properaction.word_bfs.candidates"] = (candidates, "count")
    out["properaction.word_bfs.kept_ratio"] = (
        _ratio(counts["properaction.word_bfs.kept"], candidates), "ratio")
    out["traceembed.select_basis.examined"] = (
        edges.get(("traceembed.select_basis", "matrices.rank"), 0), "count")
    rep_calls = stats.get("traceembed.rep4", (0,))[0]
    misses = edges.get(("traceembed.rep4", "traceembed.alpha"), 0)
    out["traceembed.rep4.hit_ratio"] = (
        _ratio(rep_calls - misses, rep_calls), "ratio")
    out["matrices.mul.n4_share"] = (
        _ratio(counts["matrices.mul.n4"],
               stats.get("matrices.mul", (0,))[0]), "ratio")
    return out
