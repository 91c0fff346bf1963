"""Tree geometry at a prime: canonical vertices, distance, balls."""

import random
from fractions import Fraction

import pytest

from oracles import (bfs_distance, bfs_spanning_tree, product_neighbors,
                     walk_distance)
from sl2kit import (act, ball, base_vertex, canonicalize, distance,
                    make_field, mat, matrix_form, neighbors, tree_context,
                    vertices_equal)


def test_canonicalize_frozen():
    c = tree_context(2)
    v = canonicalize(mat([[1, 0], [0, 1]]), c)
    assert (v.n, v.b) == (0, Fraction(0))
    v = canonicalize(mat([[1, 0], [0, 2]]), c)
    assert (v.n, v.b) == (-1, Fraction(0))
    v = canonicalize(mat([[2, 1], [0, 1]]), c)
    assert (v.n, v.b) == (1, Fraction(1))


def random_gl2(rng):
    while True:
        g = mat([[Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
                  for _ in range(2)] for _ in range(2)])
        if g.det() != 0:
            return g


def test_canonicalize_idempotent():
    rng = random.Random(7)
    c = tree_context(3)
    for _ in range(50):
        g = random_gl2(rng)
        v = canonicalize(g, c)
        assert canonicalize(matrix_form(v), c) == v


def test_homothety_invariance():
    rng = random.Random(21)
    c = tree_context(2)
    for _ in range(40):
        g = random_gl2(rng)
        v = canonicalize(g, c)
        for s in (2, Fraction(1, 2), -3, Fraction(5, 4)):
            assert canonicalize(g.scale(s), c) == v


def test_column_operation_invariance():
    # right multiplication by an integral matrix that is invertible over the
    # local ring keeps the lattice, hence the vertex
    rng = random.Random(22)
    c = tree_context(3)
    units = [mat([[1, 1], [0, 1]]), mat([[1, 0], [1, 1]]),
             mat([[0, 1], [1, 0]]), mat([[2, 1], [1, 1]])]
    for _ in range(40):
        g = random_gl2(rng)
        v = canonicalize(g, c)
        u = rng.choice(units)
        assert canonicalize(g * u, c) == v


@pytest.mark.parametrize("p, minpoly", [(3, [1, 0, 1]), (2, [1, 1, 1]),
                                        (7, [-2, 0, 0, 1])])
def test_field_offsets_reduce_coefficientwise(p, minpoly):
    # at an inert prime the offset of [[p^n, b], [0, 1]] is reduced one
    # power-basis coefficient at a time, as the tree over Q reduces it
    rng = random.Random(p + len(minpoly))
    k = make_field(minpoly)
    ck, cq = tree_context(p, k), tree_context(p)
    for _ in range(60):
        n = rng.randint(-2, 3)
        cs = [Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 5, 7, 49]))
              * Fraction(p) ** rng.randint(-2, 2) for _ in range(k.degree)]
        v = canonicalize(mat([[k.from_rational(Fraction(p) ** n),
                               k.element(cs)], [k.zero(), k.one()]]), ck)
        assert v.n == n
        assert v.b.coeffs == tuple(
            canonicalize(mat([[Fraction(p) ** n, c], [0, 1]]), cq).b
            for c in cs)


def _vp(x: Fraction, p: int) -> int:
    """v_p of a nonzero Fraction, by repeated division."""
    v = 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def _check_reduced(b: Fraction, r: Fraction, n: int, p: int):
    # same class: r = b, or b - r in p^n Z_(p)
    assert r == b or _vp(b - r, p) >= n
    # canonical: 0, or m p^v with m an integer, 0 < m < p^(n - v), p prime to m
    if r != 0:
        v = _vp(r, p)
        m = r / Fraction(p) ** v
        assert m.denominator == 1 and 0 < m < p ** (n - v) and m % p != 0


@pytest.mark.parametrize("p, minpoly", [
    (2, None), (3, None), (5, None), (3, [1, 0, 1]), (7, [1, 0, 1]),
    (2, [1, 1, 1]), (5, [1, 1, 1]), (7, [-2, 0, 0, 1]), (13, [-2, 0, 0, 1])])
def test_offsets_reduce_to_their_definition(p, minpoly):
    # the offset b' of [[p^n, b], [0, 1]] lies in b + p^n O and has the
    # canonical form, coefficient by coefficient over Q(gamma), for every
    # n in -3..4 and denominators with and without p
    rng = random.Random(10 * p + len(minpoly or ()))
    k = None if minpoly is None else make_field(minpoly)
    ctx, m = tree_context(p, k), 1 if k is None else k.degree
    dens = [1, 2, 3, 5, 7, 11, 13, 49] + [p ** e * rng.choice([1, 2, 3, 7])
                                           for e in (1, 2, 3)]
    for n in range(-3, 5):
        for _ in range(40):
            cs = [Fraction(rng.randint(-999, 999), rng.choice(dens))
                  * rng.choice([0, 1, 1, 1]) for _ in range(m)]
            pn = Fraction(p) ** n
            if k is None:
                g = mat([[pn, cs[0]], [0, 1]])
            else:
                g = mat([[k.from_rational(pn), k.element(cs)],
                         [k.zero(), k.one()]])
            v = canonicalize(g, ctx)
            assert v.n == n
            out = (v.b,) if k is None else v.b.coeffs
            for b, r in zip(cs, out):
                _check_reduced(b, r, n, p)


def test_distance_frozen():
    c = tree_context(2)
    v0 = base_vertex(c)
    assert distance(v0, v0) == 0
    g = mat([[2, 0], [0, Fraction(1, 2)]])
    assert distance(v0, canonicalize(g, c)) == 2
    h = mat([[1, Fraction(1, 2)], [0, 1]])
    assert distance(v0, canonicalize(h, c)) == 2


def test_distance_matches_bfs_small():
    # direct per-pair BFS on a small ball
    c = tree_context(2)
    verts = sorted(ball(base_vertex(c), 2), key=repr)
    for u in verts:
        for w in verts:
            assert distance(u, w) == bfs_distance(u, w)


def test_distance_matches_spanning_tree_walks():
    for p in (2, 3):
        v0 = base_vertex(tree_context(p))
        verts, depth, parent = bfs_spanning_tree(v0, 3)
        for i, u in enumerate(verts):
            for j, w in enumerate(verts):
                assert distance(u, w) == walk_distance(i, j, depth, parent)


@pytest.mark.parametrize("p, minpoly, radius", [(2, None, 5), (3, None, 4),
                                                (3, [1, 0, 1], 2),
                                                (2, [1, 1, 1], 3)])
def test_neighbors_match_matrix_products(p, minpoly, radius):
    # the closed form against canonicalize() of the lattice products, which
    # also ties the BFS oracles above to canonicalize()
    field = make_field(minpoly) if minpoly else None
    for v in ball(base_vertex(tree_context(p, field)), radius):
        got, want = neighbors(v), product_neighbors(v)
        assert got == want
        assert ({(type(w.b), repr(w)) for w in got}
                == {(type(w.b), repr(w)) for w in want})


def test_neighbor_counts():
    assert len(neighbors(base_vertex(tree_context(2)))) == 3
    assert len(neighbors(base_vertex(tree_context(3)))) == 4
    k = make_field([1, 1, 1])
    ext = tree_context(2, k)
    assert len(neighbors(base_vertex(ext))) == 5


def test_neighbors_at_distance_one():
    v0 = base_vertex(tree_context(3))
    for w in neighbors(v0):
        assert distance(v0, w) == 1


def test_ball_sizes():
    assert len(ball(base_vertex(tree_context(2)), 0)) == 1
    assert len(ball(base_vertex(tree_context(2)), 2)) == 10
    assert len(ball(base_vertex(tree_context(3)), 1)) == 5
    k = make_field([1, 1, 1])
    ext = tree_context(2, k)
    # q = 4: 1 + 5 * (16 - 1) / 3 = 26
    assert len(ball(base_vertex(ext), 2)) == 26


def test_ball_size_formula():
    for p in (2, 3):
        v0 = base_vertex(tree_context(p))
        for r in range(4):
            expect = 1 + (p + 1) * (p**r - 1) // (p - 1)
            assert len(ball(v0, r)) == expect


def test_ball_negative_radius():
    with pytest.raises(ValueError):
        ball(base_vertex(tree_context(2)), -1)


def test_tree_has_no_cycles():
    # within the radius-3 ball each vertex but the origin hangs off exactly
    # one neighbor closer to the origin, so internal edges number |V| - 1
    c = tree_context(2)
    v0 = base_vertex(c)
    verts = ball(v0, 3)
    edges = 0
    for v in verts:
        for w in neighbors(v):
            if w in verts:
                edges += 1
    assert edges == 2 * (len(verts) - 1)
    for v in verts:
        assert bfs_distance(v0, v) <= 3


def test_act_isometry():
    rng = random.Random(55)
    c = tree_context(2)
    verts = sorted(ball(base_vertex(c), 2), key=repr)
    gens = [mat([[1, 1], [0, 1]]), mat([[0, -1], [1, 0]]),
            mat([[2, 0], [0, Fraction(1, 2)]])]
    for _ in range(60):
        g = rng.choice(gens) * rng.choice(gens)
        u, w = rng.choice(verts), rng.choice(verts)
        assert distance(act(g, u), act(g, w)) == distance(u, w)


def test_unit_determinant_integral_stabilizer():
    c = tree_context(5)
    v0 = base_vertex(c)
    for g in (mat([[1, 1], [0, 1]]), mat([[0, -1], [1, 0]]),
              mat([[2, 1], [1, 1]])):
        assert vertices_equal(act(g, v0), v0)


def test_vertices_equal_examples():
    c = tree_context(2)
    a = canonicalize(mat([[1, 0], [0, 1]]), c)
    b = canonicalize(mat([[2, 0], [0, 2]]), c)
    assert vertices_equal(a, b)
    d = canonicalize(mat([[2, 0], [0, 1]]), c)
    assert not vertices_equal(a, d)


def test_extension_tree_distance_example():
    k = make_field([1, 1, 1])
    c = tree_context(2, k)
    v0 = base_vertex(c)
    g = mat([[k.from_rational(2), k.zero()],
             [k.zero(), k.from_rational(Fraction(1, 2))]])
    assert distance(v0, act(g, v0)) == 2


def test_coerce_keeps_each_tree_in_its_field():
    k = make_field([1, 0, 1])
    with pytest.raises(ValueError, match="different field"):
        tree_context(3, k).coerce(make_field([-2, 0, 1]).gamma())
    x = tree_context(3).coerce(k.from_rational(Fraction(2, 3)))
    assert type(x) is Fraction and x == Fraction(2, 3)


def test_distance_across_two_trees_raises():
    with pytest.raises(ValueError, match="different trees"):
        distance(base_vertex(tree_context(2)), base_vertex(tree_context(3)))


def test_contexts_built_apart_are_equal():
    a = tree_context(3, make_field([1, 0, 1]))
    b = tree_context(3, make_field([1, 0, 1]))
    assert a is not b and a.field is not b.field
    assert a == b and hash(a) == hash(b)
    assert distance(base_vertex(a), base_vertex(b)) == 0
    assert tree_context(3) != a
