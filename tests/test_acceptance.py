"""Acceptance suite: ten headline checks, one test and one printed line each.

Every check re-derives its expected values independently (closed forms
against graph walks, predicates against brute conjugation, algebra against
recomputed identities) and enforces a wall-clock budget, so a pass means
the behavior and the speed both hold.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import (bfs_spanning_tree, displacement_oracle, random_sl2z,
                     walk_distance)
from sl2kit import (ArchimedeanEmbedding, CommutativeError, Matrix,
                    NotASubalgebraError, NotAValuationError, PAdicValuation,
                    Subalgebra2, alpha, ball, base_vertex, classify_2dim,
                    displacement_hyp, distance, enumerate_bounded, extend,
                    hyp_distance, make_field, make_group, make_subalgebra,
                    mat, maximality_factor, neighbors, normalize_basis,
                    normalizes_torus, normalizes_unipotent, select_basis,
                    tree_context, word_ball, word_bfs, HPoint)

import pytest

S = mat([[0, -1], [1, 0]])
T = mat([[1, 1], [0, 1]])
HALF = Fraction(1, 2)


@contextmanager
def criterion(number, description, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        print(f"[FAIL] criterion {number}: {description} "
              f"(runtime {elapsed:.1f}s over the {limit:.0f}s budget)",
              flush=True)
        raise AssertionError(
            f"criterion {number} overran its budget: {elapsed:.1f}s")
    print(f"[PASS] criterion {number}: {description} "
          f"({elapsed:.1f}s < {limit:.0f}s)", flush=True)


def rand_rational(rng, span=60):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_criterion_01_valuation_axioms():
    with criterion(1, "valuation axioms hold exactly on 10^4 random pairs, "
                      "base and extended", 5):
        rng = random.Random(1001)
        for p in (2, 3, 5):
            v = PAdicValuation(p)
            for _ in range(10_000):
                a, b = rand_rational(rng), rand_rational(rng)
                if a != 0 and b != 0:
                    assert v(a * b) == v(a) + v(b)
                s = a + b
                if s != 0 and a != 0 and b != 0:
                    assert v(s) >= min(v(a), v(b))
        k = make_field([1, 1, 1])
        vk = extend(2, k)
        for _ in range(10_000):
            x = k.element([rand_rational(rng, 20) for _ in range(2)])
            y = k.element([rand_rational(rng, 20) for _ in range(2)])
            if x != 0 and y != 0:
                assert vk(x * y) == vk(x) + vk(y)
                s = x + y
                if s != 0:
                    assert vk(s) >= min(vk(x), vk(y))


def test_criterion_02_extension_gate():
    with criterion(2, "extension gate rejects a splitting polynomial with a "
                      "concrete counterexample and accepts inert ones", 1):
        base = PAdicValuation(2)
        k_bad = make_field([-2, 0, 1])
        with pytest.raises(NotAValuationError) as exc:
            extend(2, k_bad)
        x, y = exc.value.counterexample

        def rule(e):
            return min(base(c) for c in e.coeffs if c != 0)

        assert rule(x * y) != rule(x) + rule(y)
        assert extend(2, make_field([1, 1, 1])).residue_size == 4
        assert extend(3, make_field([1, 0, 1])).residue_size == 9


def test_criterion_03_tree_distance_matches_graph():
    with criterion(3, "closed-form tree distance equals graph distance on "
                      "every vertex pair in large balls", 60):
        for p, radius in ((2, 6), (3, 6), (5, 4)):
            v0 = base_vertex(tree_context(p))
            verts, depth, parent = bfs_spanning_tree(v0, radius)
            vset = set(verts)
            edges = sum(1 for v in verts
                        for w in neighbors(v) if w in vset)
            # the ball really is a tree, so spanning-tree walks are exact
            assert edges == 2 * (len(verts) - 1)
            for i, u in enumerate(verts):
                for j, w in enumerate(verts):
                    assert distance(u, w) == walk_distance(i, j,
                                                           depth, parent)


def test_criterion_04_ball_sizes():
    with criterion(4, "ball cardinalities match the closed-form count "
                      "for p in {2, 3}, radius up to 5", 30):
        for p in (2, 3):
            v0 = base_vertex(tree_context(p))
            for r in range(6):
                expect = 1 + (p + 1) * (p**r - 1) // (p - 1)
                assert len(ball(v0, r)) == expect


def test_criterion_05_hyperbolic_consistency():
    with criterion(5, "matrix displacement matches the move-and-measure "
                      "oracle within 1e-9, real and complex", 5):
        assert abs(hyp_distance(HPoint(0, 1), HPoint(0, 4))
                   - math.log(4)) < 1e-12
        rng = random.Random(1005)
        for _ in range(500):
            g = random_sl2z(rng, size=8)
            assert abs(displacement_hyp(g) - displacement_oracle(g)) < 1e-9
        k = make_field([1, 0, 1])
        emb = ArchimedeanEmbedding(k)
        i = k.gamma()
        gens = [mat([[k.one(), i], [k.zero(), k.one()]]),
                mat([[k.zero(), -k.one()], [k.one(), k.zero()]]),
                mat([[k.one(), k.one()], [k.zero(), k.one()]])]
        for _ in range(500):
            g = mat([[k.one(), k.zero()], [k.zero(), k.one()]])
            for _ in range(rng.randint(1, 6)):
                g = g * rng.choice(gens)
            assert abs(displacement_hyp(g, emb)
                       - displacement_oracle(g, emb)) < 1e-9


def test_criterion_06_bounded_sets():
    with criterion(6, "tiny displacement bound pins down the basepoint "
                      "stabilizer; word balls stay inside the enumerated "
                      "bounded set", 60):
        sl2z = make_group([S, T])
        res = enumerate_bounded(sl2z, 0.1)
        eye = Matrix.identity(2)
        assert res.elements == frozenset({eye, eye.scale(-1),
                                          S, S.inverse()})
        half_group = make_group([S, T, mat([[2, 0], [0, HALF]])])
        words = word_bfs(half_group, 8, 3.0)
        bounded = enumerate_bounded(half_group, 3.0)
        assert bounded.complete
        assert words <= bounded.elements
        card = len(bounded.elements)
        assert card == len(frozenset(bounded.elements))  # finite, explicit
        print(f"  bounded set at C=3 over Z[1/2] has {card} elements",
              flush=True)


def test_criterion_07_trace_embedding():
    with criterion(7, "rank-4 trace basis exists in the radius-3 word ball "
                      "and the 4x4 image is an exact injective "
                      "homomorphism", 30):
        basis = select_basis(word_ball([S, T], 3))
        assert len(basis.elements) == 4
        assert basis.gram.det() != 0
        rng = random.Random(1007)
        for _ in range(500):
            g, h = random_sl2z(rng, size=8), random_sl2z(rng, size=8)
            assert alpha(g * h, basis) == alpha(g, basis) * alpha(h, basis)
        for _ in range(100):
            g = random_sl2z(rng, size=8)
            c0, c1, c2 = g.charpoly()
            squared = (c0 * c0, 2 * c0 * c1, c1 * c1 + 2 * c0 * c2,
                       2 * c1 * c2, c2 * c2)
            assert alpha(g, basis).charpoly() == squared
        for _ in range(1000):
            g = random_sl2z(rng, size=9)
            if alpha(g, basis).is_identity():
                assert g.is_identity()


def test_criterion_08_classification():
    with criterion(8, "random conjugates of the upper-triangular span are "
                      "classified with verified conjugators; degenerate "
                      "inputs are rejected with witnesses", 10):
        rng = random.Random(1008)
        k = make_field([1, 0, 1])
        e_k = mat([[k.zero(), k.one()], [k.zero(), k.zero()]])
        h_k = mat([[k.from_rational(HALF), k.zero()],
                   [k.zero(), k.from_rational(-HALF)]])
        f_k = mat([[k.zero(), k.zero()], [k.one(), k.zero()]])

        def rand_invertible():
            while True:
                m = mat([[k.element([Fraction(rng.randint(-4, 4)),
                                     Fraction(rng.randint(-4, 4))])
                          for _ in range(2)] for _ in range(2)])
                if m.det() != k.zero():
                    return m

        for _ in range(100):
            p = rand_invertible()
            p_inv = p.inverse()
            s = make_subalgebra(p * e_k * p_inv, p * h_k * p_inv)
            out = classify_2dim(s)
            q, q_inv = out.conjugator, out.conjugator.inverse()
            for y in (s.y1, s.y2):
                assert (q_inv * y * q)[1, 0] == k.zero()
        for _ in range(20):
            p = rand_invertible()
            p_inv = p.inverse()
            # commuting pair: dependent, so the bracket vanishes
            c = k.from_rational(Fraction(rng.randint(2, 9)))
            y1 = p * h_k * p_inv
            bad = Subalgebra2(y1, y1.scale(c))
            with pytest.raises(CommutativeError) as exc:
                normalize_basis(bad)
            assert exc.value.witness == c
            # non-closed pair: the bracket escapes the span
            s2 = make_subalgebra(p * e_k * p_inv, p * f_k * p_inv)
            with pytest.raises(NotASubalgebraError) as exc:
                normalize_basis(s2)
            assert exc.value.witness is not None


def test_criterion_09_maximality_words():
    with criterion(9, "factorization words over the upper-triangular "
                      "subgroup and one outside element multiply back "
                      "exactly", 5):
        rng = random.Random(1009)
        k = make_field([1, 0, 1])

        def rand_elt():
            return k.element([Fraction(rng.randint(-4, 4)),
                              Fraction(rng.randint(-4, 4))])

        eye = mat([[k.one(), k.zero()], [k.zero(), k.one()]])
        count = 0
        while count < 100:
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            if a == k.zero() or c == k.zero():
                continue
            g = mat([[a, b], [c, (k.one() + b * c) / a]])
            t11, t12, t21 = rand_elt(), rand_elt(), rand_elt()
            if t11 == k.zero():
                continue
            target = mat([[t11, t12], [t21, (k.one() + t12 * t21) / t11]])
            word = maximality_factor(g, target)
            assert len(word) <= 4
            prod = eye
            for f in word:
                prod = prod * f.matrix
            assert prod == target
            count += 1


def test_criterion_10_normalizer_predicates():
    with criterion(10, "normalizer predicates agree with brute conjugation "
                       "on 10^3 random determinant-one matrices", 5):
        rng = random.Random(1010)
        torus_elt = mat([[2, 0], [0, HALF]])
        uni = mat([[1, 1], [0, 1]])

        def rand_sl2q():
            while True:
                a, b, c = (Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(3))
                if a != 0:
                    return mat([[a, b], [c, (1 + b * c) / a]])

        for _ in range(1000):
            g = rand_sl2q()
            conj = g * torus_elt * g.inverse()
            stays = ((conj[0, 1] == 0 and conj[1, 0] == 0)
                     or (conj[0, 0] == 0 and conj[1, 1] == 0))
            assert normalizes_torus(g) == stays
            conj = g * uni * g.inverse()
            assert normalizes_unipotent(g) == (conj[1, 0] == 0)
