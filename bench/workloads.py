"""The benchmark's three workloads: seeded rounds of checked tasks.

A workload hands out rounds.  Every round holds the same multiset of task
kinds and menu points; the seed decides the order and the concrete inputs
(generator presentations, elements, conjugates, sample words, vertex
centres), never the amount of work, so two seeds measure the same mix.
Runs are made of whole rounds; how many depends on the run's length only
(``Workload.rounds_for``), so every commit is measured on the same tasks.

Tasks call the library through ``sl2kit.<name>`` at call time, so the
tracer's wrappers (installed on the sl2kit namespaces) see them.  Every
check lives in this module or in ``oracles`` and runs outside the timed
region; a failed check raises ``oracles.Mismatch``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import sl2kit as sk
from cli_shim import MARK
from run import ROOT, child_env, cpu_probe, run_child, spawn_probe
from oracles import (GQ, Mismatch, ball_size, det2, digest, entries,
                     gq_entries, inert, inv2, matrix_key, min_rule,
                     mul2, neg2, poly_mulmod, require, tree_displacement)

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

# recheck tolerance for the float path (mobius_act + hyp_distance) against
# the strict bound the enumerator decided with displacement_hyp
HYP_TOL = 1e-9
RECHECK_SAMPLE = 6


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# shared inputs and checks
# ---------------------------------------------------------------------------

S = sk.mat([[0, -1], [1, 0]])
T = sk.mat([[1, 1], [0, 1]])
RING_PRIMES = {1: (), 2: (2,), 3: (3,), 6: (2, 3)}


def diag(p: int):
    return sk.mat([[p, 0], [0, F(1, p)]])


def enum_key(s, C):
    return f"s={s},C={C}"


def word_key(p, max_len, C):
    return f"p={p},L={max_len},C={C}"


def _coeffs(x):
    return getattr(x, "coeffs", None) or (F(x),)


def recheck(g, primes, C, contexts, emb, field):
    """Re-derive one found element's membership by independent paths:
    det and ring membership by hand, the tree coordinates by act,
    canonicalize and distance against the closed valuation formula, and
    the hyperbolic coordinate by the Moebius action."""
    e = gq_entries(g) if field is not None else entries(g)
    require(det2(e) == (GQ(1) if field is not None else 1),
            f"determinant of {g!r} is not 1")
    for x in entries(g):
        for c in _coeffs(x):
            den = c.denominator
            for p in primes:
                while den % p == 0:
                    den //= p
            require(den == 1, f"entry {x!r} outside the ring")
    moved = sk.mobius_act(sk.embed_matrix(g, emb), sk.BASEPOINT)
    hyp = sk.hyp_distance(sk.BASEPOINT, moved)
    require(hyp < C + HYP_TOL, f"hyperbolic displacement {hyp} >= {C}")
    for p, ctx in zip(primes, contexts):
        v0 = sk.base_vertex(ctx)
        image = sk.act(g, v0)
        require(image == sk.canonicalize(g, ctx), "act and canonicalize disagree")
        d = sk.distance(v0, image)
        expect = -2 * min(min_rule(_coeffs(x), p) for x in entries(g)) \
            if field is not None else tree_displacement(entries(g), p)
        require(d == expect, f"tree distance {d} != valuation formula {expect}")
        require(d < C, f"tree displacement {d} >= {C} at p={p}")


def check_set(found, ref, rng, primes, C, contexts, emb, field=None):
    require(len(found) == ref["count"],
            f"{len(found)} elements, reference has {ref['count']}")
    require(digest(found) == ref["digest"], "element digest differs from reference")
    ordered = sorted(found, key=matrix_key)
    for g in rng.sample(ordered, min(RECHECK_SAMPLE, len(ordered))):
        recheck(g, primes, C, contexts, emb, field)


class Workload:
    """Seeded rounds, made once each and kept, so a traced phase can rerun
    exactly the rounds of the untraced one.  ``probe`` measures how slow
    the machine is right now for this workload's kind of work.  ``round_s``
    is the in-task time of one round at nominal speed, measured when the
    benchmark was defined; it is a constant, so that a faster library runs
    the same tasks in less time instead of more tasks."""

    name = ""
    probe = staticmethod(cpu_probe)
    round_s = 1.0

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference
        self._rounds = {}

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds in a run of ``seconds`` at nominal speed (at least 1)."""
        return max(1, math.ceil(seconds / self.round_s))

    def round(self, r: int):
        if r not in self._rounds:
            rng = random.Random(f"{self.name}:{self.seed}:{r}")
            self._rounds[r] = self._make_round(rng)
        return self._rounds[r]

    def _make_round(self, rng):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sl2q-search
# ---------------------------------------------------------------------------

# Each ring's menu spans the accept ratio of the exact predicate: Z[1/2] at
# C = 4 keeps ~13% of its candidates, SL(2, Z) at C = 6 about half.
ENUM_MENU = ((1, 3.0), (1, 4.0), (1, 5.0), (1, 6.0),
             (2, 2.0), (2, 2.5), (2, 3.0), (2, 3.5), (2, 4.0),
             (3, 2.0), (3, 2.5), (3, 3.0),
             (6, 1.5))
# word_bfs tasks over <S, T, diag(p, 1/p)>; each (p, C) is an ENUM_MENU
# point, so the word set is checked against that enumeration.  At C = 2.0
# every answer is integral (tree displacement 0); at C = 2.5 most have a p
# in a denominator, so the tree re-check sees displacement 2.
WORD_MENU = ((2, 7, 2.5), (3, 6, 2.0))
PROPER_MENU = ((2, 5, 2.5), (3, 5, 2.0))
# Enumerate and properness points run twice a round (with their own seeded
# presentations), the two long word tasks once: the median and the tail
# then fall inside clusters of several samples each run.
LIGHT_REPEAT = 2


class Sl2qSearch(Workload):
    name = "sl2q-search"
    round_s = 15.0

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.enum_sets = {}

    def _ring_group(self, s, rng):
        """A seeded generating set of SL(2, Z[1/s]); the enumeration
        depends only on the ring, so every presentation has one answer."""
        gens = [S, sk.mat([[1, rng.randint(1, 3)], [0, 1]])]
        for p in RING_PRIMES[s]:
            gens.append(diag(p) if rng.random() < 0.5 else diag(p).inverse())
        rng.shuffle(gens)
        return self._warm(sk.make_group(gens))

    @staticmethod
    def _warm(group):
        group.tree_contexts, group.embedding  # lazy set-up, outside timing
        return group

    def _word_group(self, p, rng):
        gens = [S, T, diag(p)]
        rng.shuffle(gens)  # the word set does not depend on the order
        return self._warm(sk.make_group(gens))

    def _make_round(self, rng):
        tasks = []
        for s, C in ENUM_MENU * LIGHT_REPEAT:
            g = self._ring_group(s, rng)
            tasks.append(Task("enumerate", enum_key(s, C),
                              lambda g=g, C=C: sk.enumerate_bounded(g, C),
                              self._enum_check(s, C, g, rng.random())))
        word_deps = []
        for p, L, C in WORD_MENU:
            g = self._word_group(p, rng)
            tasks.append(Task("word_bfs", word_key(p, L, C),
                              lambda g=g, L=L, C=C: sk.word_bfs(g, L, C),
                              self._word_check(p, L, C, g, rng.random())))
            word_deps.append((tasks[-1], enum_key(p, C)))
        for p, L, C in PROPER_MENU * LIGHT_REPEAT:
            g = self._word_group(p, rng)
            tasks.append(Task("properness", word_key(p, L, C),
                              lambda g=g, L=L, C=C: sk.properness_check(g, C, L),
                              self._proper_check(p, L, C)))
        rng.shuffle(tasks)
        # a word task runs after the enumeration it is checked against
        for task, label in word_deps:
            i = tasks.index(task)
            j = next(k for k, u in enumerate(tasks)
                     if u.kind == "enumerate" and u.label == label)
            if j > i:
                tasks.insert(j, tasks.pop(i))
        return tasks

    def _enum_check(self, s, C, group, sample_seed):
        ref = self.ref["enumerate"][enum_key(s, C)]

        def check(res):
            require(res.complete, "enumeration not marked complete")
            found = res.elements
            check_set(found, ref, random.Random(sample_seed), RING_PRIMES[s],
                      C, group.tree_contexts, group.embedding)
            for g in found:
                e = entries(g)
                require(sk.Matrix(_rows(inv2(e))) in found,
                        "answer set not closed under inverse")
                require(sk.Matrix(_rows(neg2(e))) in found,
                        "answer set not closed under -I")
            if any(p == s and c == C for p, _, c in WORD_MENU):
                self.enum_sets[(s, C)] = found
        return check

    def _word_check(self, p, L, C, group, sample_seed):
        ref = self.ref["word_bfs"][word_key(p, L, C)]

        def check(words):
            check_set(words, ref, random.Random(sample_seed), (p,), C,
                      group.tree_contexts, group.embedding)
            bound = self.enum_sets.get((p, C))
            require(bound is not None, "no enumeration ran before the word task")
            require(words <= bound, "word_bfs found elements outside "
                                    "enumerate_bounded")
        return check

    def _proper_check(self, p, L, C):
        enum_count = self.ref["enumerate"][enum_key(p, C)]["count"]
        word_count = self.ref["word_bfs"][word_key(p, L, C)]["count"]

        def check(report):
            require(report.contained and not report.violations,
                    "properness report found violations")
            require(report.enum_count == enum_count,
                    f"enum_count {report.enum_count} != reference {enum_count}")
            require(report.word_count == word_count,
                    f"word_count {report.word_count} != reference {word_count}")
        return check


def _rows(flat):
    return ((flat[0], flat[1]), (flat[2], flat[3]))


# ---------------------------------------------------------------------------
# field-algebra
# ---------------------------------------------------------------------------

# (p, minpoly constant-first).  Inert pairs pass the gate at once; split
# pairs force the counterexample search, whose cost grows with p.
GATE_MENU = ((103, (1, 0, 1)), (7, (1, 0, 1)), (83, (-5, 0, 1)),
             (101, (2, 0, 1)), (53, (1, 1, 1)), (7, (-2, 0, 0, 1)),
             (5, (1, 0, 1)), (13, (1, 0, 1)), (2, (-2, 0, 1)),
             (5, (-2, 0, 0, 1)), (101, (1, 0, 1)), (31, (-2, 0, 0, 1)))
QI = (1, 0, 1)            # Q(i)
QI_P, QI_RADIUS = 3, 2    # inert, so the tree is (9+1)-regular
QI_WORD_LEN = 3
QI_WORD_C = (1.5, 2.5)
BALLS, CLASSIFY, FACTOR, EMBED = 2, 6, 6, 3
EMBED_SAMPLES = 20


def _rand_frac(rng, top=9):
    return F(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, top))


def _gate(p, minpoly, x):
    field = sk.make_field(minpoly)
    try:
        val = sk.extend(p, field)
    except sk.NotAValuationError as exc:
        return ("rejected", exc.counterexample)
    return ("accepted", val.residue_size, val(field.element(x)))


def _embed(stream, samples):
    rep = sk.Rep4(sk.select_basis(stream))
    return sk.verify_embedding(rep, samples)


def _words(rng, count, max_len):
    steps = [entries(S), entries(T), inv2(entries(S)), inv2(entries(T))]
    out = []
    for _ in range(count):
        m = (F(1), F(0), F(0), F(1))
        for _ in range(rng.randint(1, max_len)):
            m = mul2(m, rng.choice(steps))
        out.append(sk.Matrix(_rows(m)))
    return out


class FieldAlgebra(Workload):
    name = "field-algebra"
    round_s = 1.5

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.field = sk.make_field(QI)
        K = self.field
        self.ctx = sk.tree_context(QI_P, K)
        self.ctx.residue_reps()
        self.qi_group = sk.make_group(
            [S, T, diag(QI_P), sk.mat([[K.one(), K.gamma()], [K.zero(), K.one()]])], K)
        self.qi_group.tree_contexts, self.qi_group.embedding

    def _make_round(self, rng):
        tasks = []
        for p, minpoly in GATE_MENU:
            x = tuple(_rand_frac(rng) * F(p) ** rng.randint(-2, 2)
                      for _ in range(len(minpoly) - 1))
            tasks.append(Task("extend", f"p={p},minpoly={list(minpoly)}",
                              lambda p=p, m=minpoly, x=x: _gate(p, m, x),
                              self._gate_check(p, minpoly, x)))
        for _ in range(BALLS):
            center = self._vertex(rng)
            tasks.append(Task("ball", f"Q(i),p={QI_P},r={QI_RADIUS}",
                              lambda c=center: sk.ball(c, QI_RADIUS),
                              self._ball_check(center)))
        for C in QI_WORD_C:
            tasks.append(Task("word_bfs", f"Q(i),L={QI_WORD_LEN},C={C}",
                              lambda C=C: sk.word_bfs(self.qi_group, QI_WORD_LEN, C),
                              self._qi_word_check(C, rng.random())))
        for _ in range(CLASSIFY):
            y1, y2 = self._borel_basis(rng)
            tasks.append(Task("classify", "Q(i) conjugate Borel",
                              lambda y1=y1, y2=y2:
                              sk.classify_2dim(sk.make_subalgebra(y1, y2)),
                              self._classify_check(y1, y2)))
        for _ in range(FACTOR):
            g, target = self._sl2q(rng, lower=True), self._sl2q(rng)
            tasks.append(Task("maximality_factor", "SL(2,Q)",
                              lambda g=g, t=target: sk.maximality_factor(g, t),
                              self._factor_check(g, target)))
        for _ in range(EMBED):
            stream = _words(rng, 12, 6) + [sk.Matrix.identity(2), S, T, S * T]
            samples = _words(rng, EMBED_SAMPLES, 6)
            tasks.append(Task("embed", f"SL(2,Z),samples={EMBED_SAMPLES}",
                              lambda st=stream, sa=samples: _embed(st, sa),
                              _embed_check))
        rng.shuffle(tasks)
        return tasks

    # -- inputs ---------------------------------------------------------

    def _gauss_int(self, rng):
        return self.field.element((rng.randint(-3, 3), rng.randint(-3, 3)))

    def _vertex(self, rng):
        K = self.field
        n = rng.randint(-1, 2)
        b = K.element((_rand_frac(rng, 4), _rand_frac(rng, 4)))
        return sk.canonicalize(
            sk.mat([[K.from_rational(F(QI_P) ** n), b], [K.zero(), K.one()]]),
            self.ctx)

    def _borel_basis(self, rng):
        """Two independent combinations of E and H + cE, conjugated by a
        seeded element of SL(2, Z[i])."""
        K = self.field
        one, zero = K.one(), K.zero()
        g = sk.mat([[one, self._gauss_int(rng)], [zero, one]]) * \
            sk.mat([[one, zero], [self._gauss_int(rng), one]])
        gi = g.inverse()
        E = sk.mat([[zero, one], [zero, zero]])
        H = sk.mat([[K.from_rational(F(1, 2)), zero],
                    [zero, K.from_rational(F(-1, 2))]])
        b1, b2 = g * E * gi, g * (H + self._gauss_int(rng) * E) * gi
        while True:
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
            if a * d - b * c:
                return a * b1 + b * b2, c * b1 + d * b2

    @staticmethod
    def _sl2q(rng, lower=False):
        a, d = _rand_frac(rng), _rand_frac(rng)
        if not lower and rng.random() < 0.2:
            return sk.mat([[a, _rand_frac(rng)], [0, 1 / a]])
        c = _rand_frac(rng)
        return sk.mat([[a, (a * d - 1) / c], [c, d]])

    # -- checks ---------------------------------------------------------

    @staticmethod
    def _gate_check(p, minpoly, x):
        deg = len(minpoly) - 1

        def check(out):
            if inert(minpoly, p):
                require(out[0] == "accepted", "inert pair was rejected")
                require(out[1] == p ** deg,
                        f"residue size {out[1]} != {p}^{deg}")
                require(out[2] == min_rule(x, p), "valuation differs from the "
                                                  "coefficient rule")
            else:
                require(out[0] == "rejected", "split pair passed the gate")
                require(out[1] is not None, "rejection without a counterexample")
                x1, y1 = (_coeffs(v) for v in out[1])
                xy = poly_mulmod(x1, y1, minpoly)
                require(min_rule(xy, p) != min_rule(x1, p) + min_rule(y1, p),
                        "counterexample is multiplicative after all")
        return check

    @staticmethod
    def _ball_check(center):
        def check(vertices):
            q = QI_P ** 2
            require(len(vertices) == ball_size(q, QI_RADIUS),
                    f"ball has {len(vertices)} vertices, "
                    f"expected {ball_size(q, QI_RADIUS)}")
            require(center in vertices, "ball misses its centre")
        return check

    def _qi_word_check(self, C, sample_seed):
        ref = self.ref["qi_word_bfs"][f"C={C}"]
        g = self.qi_group

        def check(words):
            check_set(words, ref, random.Random(sample_seed), g.ring.primes, C,
                      g.tree_contexts, g.embedding, self.field)
        return check

    @staticmethod
    def _classify_check(y1, y2):
        def check(outcome):
            q = gq_entries(outcome.conjugator)
            require(det2(q), "conjugator is singular")
            qi = inv2(q)
            for y in (y1, y2):
                conj = mul2(mul2(qi, gq_entries(y)), q)
                require(not conj[2], "conjugate is not upper triangular")
        return check

    @staticmethod
    def _factor_check(g, target):
        def check(word):
            prod = (F(1), F(0), F(0), F(1))
            for f in word:
                m = entries(f.matrix)
                if f.tag == "h":
                    require(m[2] == 0 and det2(m) == 1, "h factor not in H")
                else:
                    want = entries(g) if f.tag == "g" else inv2(entries(g))
                    require(m == want, f"{f.tag} factor is not {f.tag}")
                prod = mul2(prod, m)
            require(prod == entries(target), "factors do not multiply "
                                             "to the target")
        return check


def _embed_check(report):
    require(report["ok"], f"verify_embedding failed: {report['failures'][:2]}")
    require(report["samples"] == EMBED_SAMPLES
            and report["homomorphism_pairs"] == EMBED_SAMPLES - 1,
            "verify_embedding skipped samples")


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

SL2Z = '{"generators": [[["0","-1"],["1","0"]],[["1","1"],["0","1"]]]}'
CLI_TIMEOUT_S = 30


def envelope(result, status="ok", diagnostics=()):
    return json.dumps({"diagnostics": list(diagnostics), "result": result,
                       "status": status}, sort_keys=True) + "\n"


def _fields(**want):
    """Check of chosen result fields, for outputs too large to spell out."""
    def check(doc):
        for key, value in want.items():
            require(doc["result"].get(key) == value,
                    f"result.{key} = {doc['result'].get(key)!r}, want {value!r}")
    return check


# (argv, exit code, exact stdout or a field check) -- golden-style inputs
# for all 13 subcommands plus the documented error paths
CLI_CASES = (
    (["valuate", "--p", "3", "--x", "9/2"], 0, envelope({"value": 2})),
    (["tree-dist", "--p", "2", "--g", '[["2","0"],["0","1/2"]]'], 0,
     envelope({"distance": 2})),
    (["tree-ball", "--p", "2", "--radius", "1"], 0,
     envelope({"size": 4, "vertices": [{"b": "0", "n": -1}, {"b": "0", "n": 0},
                                       {"b": "0", "n": 1}, {"b": "1", "n": 1}]})),
    (["tree-act", "--p", "2", "--g", '[["1","1"],["0","1"]]',
      "--vertex", '{"n": 1, "b": "0"}'], 0,
     envelope({"vertex": {"b": "1", "n": 1}})),
    (["hyp-dist", "--x", '{"z": [0, 0], "t": 1}', "--y", '{"z": [0, 0], "t": 4}'],
     0, envelope({"distance": 1.38629436112})),
    (["displacement", "--g", '[["2","0"],["0","1/2"]]'], 0,
     envelope({"hyp": 1.38629436112, "primes": [2], "trees": [2]})),
    (["enumerate", "--group", SL2Z, "--C", "0.1"], 0,
     envelope({"C": 0.1, "complete": True, "count": 4, "elements": [
         [["-1", "0"], ["0", "-1"]], [["0", "-1"], ["1", "0"]],
         [["0", "1"], ["-1", "0"]], [["1", "0"], ["0", "1"]]]},
         diagnostics=["primes []"])),
    (["check-proper", "--group", SL2Z, "--C", "1.0", "--max-len", "4"], 0,
     envelope({"certificate": "bounded-displacement set is finite, "
                              "cardinality 20",
               "contained": True, "enum_count": 20, "word_count": 20})),
    (["check-integral", "--g", '[["1","1"],["0","1"]]'], 0,
     envelope({"integral": True, "trace_minpoly": ["-2", "1"]})),
    (["classify", "--basis", '[[["0","0"],["1","0"]],[["1/2","0"],["0","-1/2"]]]'],
     0, _fields(conjugator=[["0", "1"], ["1", "0"]], verified=True,
                kind="upper-triangular")),
    (["normalizer", "--g", '[["0","3"],["-1/3","0"]]', "--which", "torus"], 0,
     envelope({"normalizes": True, "which": "torus"})),
    (["factor-maximal", "--g", '[["0","-1"],["1","0"]]',
      "--target", '[["1","0"],["1","1"]]'], 0,
     _fields(length=3, verified=True)),
    # documented error paths: usage (exit 1), gate failure and det != 1 (exit 2)
    (["nonsense"], 1, _fields(code="Usage")),
    (["valuate", "--p", "4", "--x", "1"], 1,
     envelope({"code": "Usage", "message": "p must be a prime number, got 4"},
              status="error")),
    (["valuate", "--p", "2", "--minpoly", "[-2,0,1]", "--x", '["0","1"]'], 2,
     _fields(code="NotAValuation", counterexample=[["0", "1"], ["0", "1"]])),
    (["displacement", "--g", '[["2","0"],["0","1"]]'], 2,
     _fields(code="DetNotOne")),
)

# ROADMAP item 3 repros.  They escape the envelope with a traceback at the
# seed commit, so they run once per run outside the timed mix and are
# reported as known defects rather than counted as failed operations.
OVERFLOW_REPROS = (
    ["enumerate", "--group", SL2Z, "--C", "800"],
    ["enumerate", "--group", SL2Z, "--C", "inf"],
    ["displacement", "--g", json.dumps([["1" + "0" * 400, "0"],
                                        ["0", "1/1" + "0" * 400]])],
)


def cli_command(argv, traced=False):
    if traced:
        return [sys.executable, str(BENCH / "cli_shim.py"), *argv]
    return [sys.executable, "-m", "sl2kit", *argv]


def run_cli(argv, traced=False):
    rc, stdout, stderr, _ = run_child(cli_command(argv, traced), CLI_TIMEOUT_S,
                                      env=child_env(), cwd=ROOT)
    return rc, stdout, stderr


def check_envelope(out, code, expect):
    """One sorted-key JSON envelope, the documented exit code, no traceback,
    and the golden bytes (or the chosen fields)."""
    rc, stdout, stderr = out
    require("Traceback" not in stderr, "traceback on stderr")
    lines = stdout.splitlines()
    require(len(lines) == 1 and stdout.endswith("\n"),
            f"{len(lines)} lines on stdout, want one envelope")
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None
    require(isinstance(doc, dict)
            and set(doc) == {"diagnostics", "result", "status"}
            and json.dumps(doc, sort_keys=True) == lines[0],
            "stdout is not a sorted-key envelope")
    require(rc == code, f"exit code {rc}, documented {code}")
    require(doc["status"] == ("ok" if code == 0 else "error"),
            f"status {doc['status']!r} with exit code {rc}")
    if isinstance(expect, str):
        require(stdout == expect, "stdout differs from the golden bytes")
    else:
        expect(doc)


class CliOneshot(Workload):
    name = "cli-oneshot"
    probe = staticmethod(spawn_probe)
    round_s = 2.3

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.traced = False  # route calls through the tracing shim
        self.tracer = None   # merges the shim's per-call records
        self.child_times = []

    def _make_round(self, rng):
        cases = list(CLI_CASES)
        # seeded cases whose envelopes are worked out here
        p = rng.choice((2, 3, 5, 7))
        num, den, k = rng.randint(1, 99), rng.randint(1, 99), rng.randint(-3, 3)
        x = F(num, den) * F(p) ** k
        cases.append((["valuate", "--p", str(p), "--x", f"{x.numerator}/{x.denominator}"],
                      0, envelope({"value": int(min_rule((x,), p))})))
        n = rng.randint(-4, 4)
        g = [[str(F(p) ** n), "0"], ["0", str(F(p) ** -n)]]
        cases.append((["tree-dist", "--p", str(p), "--g", json.dumps(g)], 0,
                      envelope({"distance": 2 * abs(n)})))
        seed = rng.randint(0, 999)
        cases.append((["embed", "--group", SL2Z, "--samples", "10", "--ball", "2",
                       "--seed", str(seed)], 0,
                      _embed_fields(seed)))
        rng.shuffle(cases)
        return [Task("cli", argv[0], lambda argv=argv: self._call(argv),
                     lambda out, code=code, expect=expect:
                     check_envelope(out, code, expect))
                for argv, code, expect in cases]

    def _call(self, argv):
        rc, stdout, stderr = run_cli(argv, self.traced)
        if self.traced:
            stderr = self._take_trace(stderr)
        return rc, stdout, stderr

    def _take_trace(self, stderr):
        keep = []
        for line in stderr.splitlines(keepends=True):
            if line.startswith(MARK):
                rec = json.loads(line[len(MARK):])
                self.tracer.merge(rec["trace"])
                self.child_times.append(rec["times"])
            else:
                keep.append(line)
        return "".join(keep)

    def known_defects(self):
        out = []
        for argv in OVERFLOW_REPROS:
            rc, stdout, stderr = run_cli(argv)
            out.append({"call": " ".join(argv)[:60], "exit": rc, "stdout_lines": len(stdout.splitlines()),
                        "traceback": "Traceback" in stderr,
                        "ok": rc in (0, 1, 2, 3) and len(stdout.splitlines()) == 1
                        and "Traceback" not in stderr})
        return out


def _embed_fields(seed):
    def check(doc):
        checks = doc["result"]["checks"]
        require(checks["ok"] is True and checks["samples"] == 10,
                "embed self-checks failed")
        require(doc["diagnostics"] == [f"seed {seed}", "ball radius 2"],
                "embed diagnostics differ")
    return check


WORKLOADS = {cls.name: cls for cls in (Sl2qSearch, FieldAlgebra, CliOneshot)}


def build(name: str, seed: int):
    """Set up a workload: reference table, inputs of round 0, lazy state."""
    wl = WORKLOADS[name](seed, load_reference())
    wl.round(0)
    return wl
