"""Upper half-space geometry: embeddings, the Mobius action, displacement."""

import cmath
import math
import random
from fractions import Fraction

import pytest

import sl2kit.hyperbolic as hyperbolic
from oracles import displacement_oracle, random_sl2z
from sl2kit import (BASEPOINT, ArchimedeanEmbedding, DegenerateInputError,
                    HPoint, Matrix, UnsupportedError, displacement_hyp,
                    embed_matrix, hyp_distance, make_field, mat, mobius_act)


def test_embed_rationals():
    e = ArchimedeanEmbedding()
    assert e(Fraction(3, 2)) == 1.5
    assert e(7) == 7.0


def test_embed_field_roots():
    k = make_field([-5, 0, 1])
    e0 = ArchimedeanEmbedding(k, root_index=0)
    assert abs(e0(k.gamma()) - 2.2360679774997896) < 1e-12
    phi = (k.one() + k.gamma()) / 2
    assert abs(e0(phi) - 1.618033988749895) < 1e-12
    e1 = ArchimedeanEmbedding(k, root_index=1)
    assert abs(e1(k.gamma()) + 2.2360679774997896) < 1e-12


def test_root_index_bounds():
    k = make_field([-5, 0, 1])
    with pytest.raises(ValueError):
        ArchimedeanEmbedding(k, root_index=2)
    with pytest.raises(ValueError):
        ArchimedeanEmbedding(k, root_index=-1)


def test_embedding_is_ring_map():
    rng = random.Random(11)
    k = make_field([1, 1, 1])
    e = ArchimedeanEmbedding(k)
    for _ in range(100):
        x = k.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(2)])
        y = k.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(2)])
        assert abs(e(x + y) - (e(x) + e(y))) < 1e-9
        assert abs(e(x * y) - e(x) * e(y)) < 1e-9
    assert abs(e(k.one()) - 1.0) < 1e-15


def test_embed_rejects_foreign_field_elements():
    k = make_field([-5, 0, 1])
    other = make_field([1, 1, 1])
    e = ArchimedeanEmbedding(k)
    with pytest.raises(ValueError):
        e(other.gamma())
    # rational-valued foreign elements still embed
    assert e(other.from_rational(Fraction(1, 4))) == 0.25


@pytest.mark.parametrize("minpoly", [[1, 0, 1], [1, 1, 1], [-2, 0, 0, 1],
                                     [1, 1, 0, 0, 1]])
def test_field_embedding_is_complex_horner(minpoly):
    # bit for bit, signed zeros included, against acc * z + complex(c) from
    # the top coefficient down
    rng = random.Random(73)
    k = make_field(minpoly)
    for idx in range(k.degree):
        e = ArchimedeanEmbedding(k, root_index=idx)
        for _ in range(50):
            x = k.element([Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                           * rng.randint(0, 1) for _ in range(k.degree)])
            acc = 0j
            for c in reversed(x.coeffs):
                acc = acc * e.root + complex(c)
            got = e(x)
            assert type(got) is complex and repr(got) == repr(acc)


def test_mobius_examples():
    p = HPoint(0, 1)
    same = mobius_act(((1, 0), (0, 1)), p)
    assert same.z == 0 and same.t == 1.0
    moved = mobius_act(((1, 1), (0, 1)), p)
    assert abs(moved.z - 1) < 1e-15 and abs(moved.t - 1) < 1e-15
    scaled = mobius_act(((2, 0), (0, 0.5)), p)
    assert abs(scaled.z) < 1e-15 and abs(scaled.t - 4) < 1e-15


def test_mobius_requires_det_one():
    with pytest.raises(ValueError):
        mobius_act(((2, 0), (0, 2)), BASEPOINT)


def test_mobius_rejects_exact_matrices():
    with pytest.raises(TypeError):
        mobius_act(mat([[1, 0], [0, 1]]), BASEPOINT)


def test_hpoint_requires_positive_height():
    with pytest.raises(DegenerateInputError):
        HPoint(0, 0)
    with pytest.raises(DegenerateInputError):
        HPoint(1j, -2)


def test_distance_examples():
    p = HPoint(0, 1)
    assert hyp_distance(p, p) == 0.0
    q = HPoint(0, 4)
    assert abs(hyp_distance(p, q) - math.log(4)) < 1e-12
    assert hyp_distance(p, q) == hyp_distance(q, p)


def test_distance_matches_arccosh_formula():
    rng = random.Random(37)
    for _ in range(300):
        p, q = (HPoint(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                       rng.uniform(0.1, 5)) for _ in range(2))
        arg = 1 + (abs(p.z - q.z) ** 2 + (p.t - q.t) ** 2) / (2 * p.t * q.t)
        assert abs(hyp_distance(p, q) - math.acosh(arg)) < 1e-9


def test_points_must_be_finite():
    for z, t in ((complex(math.inf, 0), 1.0), (0j, math.inf),
                 (complex(0, math.nan), 1.0)):
        with pytest.raises(DegenerateInputError):
            HPoint(z, t)


def test_distance_triangle_inequality():
    rng = random.Random(31)
    for _ in range(200):
        pts = [HPoint(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                      rng.uniform(0.1, 5)) for _ in range(3)]
        a, b, c = pts
        assert hyp_distance(a, c) <= (hyp_distance(a, b)
                                      + hyp_distance(b, c) + 1e-9)


def test_displacement_examples():
    assert displacement_hyp(mat([[1, 0], [0, 1]])) == 0.0
    g = mat([[2, 0], [0, Fraction(1, 2)]])
    assert abs(displacement_hyp(g) - math.log(4)) < 1e-12
    t = mat([[1, 1], [0, 1]])
    assert abs(displacement_hyp(t) - math.acosh(1.5)) < 1e-12


def test_displacement_requires_det_one():
    with pytest.raises(ValueError):
        displacement_hyp(mat([[2, 0], [0, 1]]))


def test_displacement_matches_motion_oracle_rational():
    rng = random.Random(47)
    for _ in range(300):
        g = random_sl2z(rng, size=6)
        assert abs(displacement_hyp(g) - displacement_oracle(g)) < 1e-9


def test_displacement_matches_motion_oracle_complex():
    rng = random.Random(53)
    k = make_field([1, 0, 1])  # gamma = i under root 0
    e = ArchimedeanEmbedding(k)
    i = k.gamma()
    gens = [mat([[k.one(), i], [k.zero(), k.one()]]),
            mat([[k.zero(), -k.one()], [k.one(), k.zero()]]),
            mat([[k.one(), k.one()], [k.zero(), k.one()]])]
    for _ in range(200):
        g = Matrix.identity(2)
        for _ in range(rng.randint(1, 5)):
            g = g * rng.choice(gens)
        assert abs(displacement_hyp(g, e) - displacement_oracle(g, e)) < 1e-9


def test_mobius_action_is_isometric():
    rng = random.Random(61)
    for _ in range(100):
        g = embed_matrix(random_sl2z(rng, size=5))
        p = HPoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                   rng.uniform(0.2, 4))
        q = HPoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                   rng.uniform(0.2, 4))
        assert abs(hyp_distance(mobius_act(g, p), mobius_act(g, q))
                   - hyp_distance(p, q)) < 1e-9


def test_mobius_action_composes():
    rng = random.Random(67)
    for _ in range(100):
        g, h = random_sl2z(rng), random_sl2z(rng)
        p = HPoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                   rng.uniform(0.2, 4))
        lhs = mobius_act(embed_matrix(g * h), p)
        rhs = mobius_act(embed_matrix(g), mobius_act(embed_matrix(h), p))
        assert abs(lhs.z - rhs.z) < 1e-9 and abs(lhs.t - rhs.t) < 1e-9


def test_embedding_root_is_actual_root():
    for coeffs in ([-5, 0, 1], [1, 1, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 1]):
        k = make_field(coeffs)
        for idx in range(k.degree):
            e = ArchimedeanEmbedding(k, root_index=idx)
            val = sum(c * e.root**j for j, c in enumerate(coeffs))
            assert abs(val) < 1e-8


@pytest.mark.parametrize("c", [2, 2 ** 1023], ids=["2", "2^1023"])
def test_embedding_refuses_a_root_whose_check_overflows(monkeypatch, c):
    # at z = 1e300 i, f(z) and |z|^2 leave float range, so the backward
    # error |f(z)| <= 1e-12 sum |c_k| |z|^k compares inf with inf
    k = make_field([c, 0, 1])
    assert abs(ArchimedeanEmbedding(k).root ** 2 + c) <= 1e-12 * 2 * c
    monkeypatch.setattr(hyperbolic, "_refine_root", lambda coeffs, z: 1e300j)
    with pytest.raises(UnsupportedError):
        ArchimedeanEmbedding(k)
