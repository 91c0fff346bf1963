"""The 4x4 representation built from trace pairings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (alpha_by_solve, det_leibniz, first_independent,
                     inverse_by_adjugate, matrix_word_ball, random_sl2z,
                     rank_by_minors)
from sl2kit import (DetNotOneError, FieldElement, Matrix, RankDeficientError,
                    Rep4, SingularError, TraceBasis, alpha,
                    integral_characteristic, make_field, mat, reconstruct,
                    select_basis, verify_embedding, word_ball)
from sl2kit.properaction import _word_layers
from sl2kit.traceembed import _select_layered

S = mat([[0, -1], [1, 0]])
T = mat([[1, 1], [0, 1]])


def sl2z_basis():
    return select_basis(word_ball([S, T], 2))


def test_integral_characteristic_examples():
    assert integral_characteristic(mat([[1, 1], [0, 1]]))
    assert integral_characteristic(mat([[2, 1], [1, 1]]))
    half = Fraction(1, 2)
    g = mat([[half, -1], [half, 1]])
    assert g.det() == 1
    assert not integral_characteristic(g)


def test_integral_characteristic_field_trace():
    k = make_field([-5, 0, 1])
    phi = (k.one() + k.gamma()) / 2
    g = mat([[phi, -k.one()], [k.one(), k.zero()]])
    assert g.det() == k.one()
    assert integral_characteristic(g)
    h = mat([[k.from_rational(Fraction(1, 2)), -k.one()],
             [k.one(), k.zero()]])
    assert not integral_characteristic(h)


def test_integral_characteristic_needs_det_one():
    with pytest.raises(DetNotOneError):
        integral_characteristic(mat([[2, 0], [0, 1]]))


def test_select_basis_modular_group():
    basis = sl2z_basis()
    eye = Matrix.identity(2)
    assert basis.elements == (eye, S, T, S * T)
    assert basis.gram.det() == -1


def test_select_basis_skips_minus_identity():
    eye = Matrix.identity(2)
    words = [eye, eye.scale(-1), S, T, S * T]
    basis = select_basis(words)
    assert eye.scale(-1) not in basis.elements


def test_select_basis_rank_deficient_stream():
    diag = [mat([[2, 0], [0, Fraction(1, 2)]]),
            mat([[4, 0], [0, Fraction(1, 4)]]),
            Matrix.identity(2)]
    with pytest.raises(RankDeficientError):
        select_basis(diag)


def test_trace_basis_rejects_dependent_elements():
    # S^3 = -S, so the elements are dependent
    with pytest.raises(RankDeficientError):
        TraceBasis([Matrix.identity(2), S, T, S * S * S])


HALF = mat([[2, 0], [0, Fraction(1, 2)]])
L = mat([[1, 0], [1, 1]])


def _unipotent(minpoly):
    k = make_field(minpoly)
    return mat([[k.one(), k.gamma()], [k.zero(), k.one()]])


def _trace_of_product(a, b):
    return sum((a[r, s] * b[s, r] for r in range(2) for s in range(2)),
               Fraction(0))


def _check_against_rank_oracle(stream, choose=None):
    """choose() (by default select_basis(stream)) keeps exactly the first
    four elements of stream whose entries raise the rank (by minors), and
    refuses with the rank of the whole stream when it is below 4."""
    choose = choose or (lambda: select_basis(stream))
    kept = first_independent(stream)
    if len(kept) == 4:
        basis = choose()
        assert basis.elements == tuple(kept)
        assert basis.gram == Matrix(tuple(
            tuple(_trace_of_product(a, b) for b in kept) for a in kept))
        return True
    total = rank_by_minors([[g[0, 0], g[0, 1], g[1, 0], g[1, 1]]
                            for g in stream])
    assert total == len(kept) < 4
    with pytest.raises(RankDeficientError) as info:
        choose()
    assert str(info.value) == f"stream exhausted with trace rank {total} < 4"
    return False


def test_select_basis_matches_the_rank_oracle_on_random_streams():
    rng = random.Random(71)
    outcomes = set()
    for _ in range(60):
        stream = [random_sl2z(rng, size=rng.randint(1, 4))
                  for _ in range(rng.randint(1, 8))]
        outcomes.add(_check_against_rank_oracle(stream))
    assert outcomes == {True, False}


BALL_GENS = {
    "S,T": [S, T], "T,S": [T, S], "T,L": [T, L], "L,S": [L, S],
    "S,T,D": [S, T, HALF], "D,S,T": [HALF, S, T], "T,D,L": [T, HALF, L],
    "D,T,L": [HALF, T, L], "T": [T], "D": [HALF], "S": [S],
    "U(i),S": [_unipotent([1, 0, 1]), S], "S,U(i)": [S, _unipotent([1, 0, 1])],
    "U(w),S": [_unipotent([1, 1, 1]), S], "S,U(w)": [S, _unipotent([1, 1, 1])],
}


@pytest.mark.parametrize("name, radius", [
    pytest.param(name, radius, id=f"{radius}-{name}")
    for radius in range(1, 7) for name, gens in BALL_GENS.items()
    # the Matrix oracle walks 4,424 to 13,300 elements for three
    # generators at radius 6
    if radius < 6 or len(gens) < 3])
def test_select_basis_matches_the_rank_oracle_on_word_balls(name, radius):
    # one generator spans at most I and g; at radius 1 two generators give
    # I, a, b, a^-1, b^-1, and each inverse here is tr(g) I - g
    gens = BALL_GENS[name]
    full = len(gens) > 2 or len(gens) == 2 and radius > 1
    ball = matrix_word_ball(gens, radius)
    assert _check_against_rank_oracle(ball) == full
    # the search of CLI embed reads the walker's layers and stops after the
    # first one that raises no rank; it answers as the whole ball does
    assert _check_against_rank_oracle(ball, lambda: _select_layered(
        _word_layers(gens, radius))) == full


def test_select_basis_takes_a_parabolic_after_the_identity():
    # the Gram block {I, g} of a parabolic g is singular (tr(g)^2 - 4 = 0),
    # yet I, T, diag(2, 1/2), L are linearly independent
    basis = select_basis(word_ball([T, HALF, L], 1))
    assert basis.elements == (Matrix.identity(2), T, HALF, L)


UNITS = [mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]]),
         mat([[0, 0], [1, 0]]), mat([[0, 0], [0, 1]])]


def test_tables_solve_the_gram_system():
    # the trace definition itself: tr(E_ab g_i g_k) = sum_j A_ab[j][i] G[j][k]
    # with G[j][k] = tr(g_j g_k), every trace from plain Matrix products
    k = make_field([1, 1, 1])
    u = mat([[k.one(), k.gamma()], [k.zero(), k.one()]])
    for basis in (sl2z_basis(), select_basis(word_ball([S, u], 2))):
        g = basis.elements
        gram = [[(a * b).trace() for b in g] for a in g]
        assert basis.gram == Matrix(tuple(map(tuple, gram)))
        for e, table in zip(UNITS, basis.tables):
            for i in range(4):
                for kk in range(4):
                    solved = table[0, i] * gram[0][kk]
                    for j in range(1, 4):
                        solved = solved + table[j, i] * gram[j][kk]
                    assert (e * g[i] * g[kk]).trace() == solved


def test_alpha_identity():
    basis = sl2z_basis()
    assert alpha(Matrix.identity(2), basis).is_identity()


def test_alpha_is_homomorphism():
    rng = random.Random(17)
    basis = sl2z_basis()
    for _ in range(100):
        g, h = random_sl2z(rng, size=6), random_sl2z(rng, size=6)
        assert alpha(g * h, basis) == alpha(g, basis) * alpha(h, basis)


def test_alpha_inverse():
    rng = random.Random(19)
    basis = sl2z_basis()
    for _ in range(50):
        g = random_sl2z(rng, size=6)
        assert alpha(g.inverse(), basis) == alpha(g, basis).inverse()


def test_alpha_charpoly_squares():
    rng = random.Random(23)
    basis = sl2z_basis()
    for _ in range(60):
        g = random_sl2z(rng, size=6)
        small = g.charpoly()
        big = alpha(g, basis).charpoly()
        # multiply (x^2 - tx + 1) by itself, constant-first coefficients
        c0, c1, c2 = small
        squared = (c0 * c0, 2 * c0 * c1, c1 * c1 + 2 * c0 * c2,
                   2 * c1 * c2, c2 * c2)
        assert big == squared


def test_alpha_det_one():
    rng = random.Random(29)
    basis = sl2z_basis()
    for _ in range(40):
        g = random_sl2z(rng, size=6)
        assert alpha(g, basis).det() == 1


def test_reconstruct_roundtrip():
    rng = random.Random(37)
    basis = sl2z_basis()
    for _ in range(60):
        g = random_sl2z(rng, size=7)
        assert reconstruct(alpha(g, basis), basis) == g


def test_alpha_injective_on_samples():
    rng = random.Random(41)
    basis = sl2z_basis()
    for _ in range(200):
        g = random_sl2z(rng, size=7)
        if alpha(g, basis).is_identity():
            assert g.is_identity()


def test_alpha_entries_integral_for_modular_group():
    rng = random.Random(43)
    basis = sl2z_basis()
    for _ in range(60):
        m4 = alpha(random_sl2z(rng, size=6), basis)
        for i in range(4):
            for j in range(4):
                assert m4[i, j].denominator == 1


def test_basis_choice_changes_alpha_only_by_conjugacy():
    rng = random.Random(47)
    basis_a = sl2z_basis()
    # a different generating stream gives a different basis of the same span
    words = word_ball([T, S], 3)
    basis_b = select_basis(words)
    for _ in range(40):
        g = random_sl2z(rng, size=6)
        assert alpha(g, basis_a).charpoly() == alpha(g, basis_b).charpoly()


def test_alpha_matches_coordinate_solve():
    rng = random.Random(59)
    basis = sl2z_basis()
    rep = Rep4(basis)
    for _ in range(40):
        g = random_sl2z(rng, size=6)
        assert rep(g) == alpha(g, basis) == alpha_by_solve(g, basis)
    # a basis and words mixing Fraction and FieldElement entries
    k = make_field([1, 1, 1])
    u = mat([[k.one(), k.gamma()], [k.zero(), k.one()]])
    basis = select_basis(word_ball([S, u], 2))
    for g in word_ball([S, u, T], 2):
        assert alpha(g, basis) == alpha_by_solve(g, basis)


def test_verify_embedding_report():
    rng = random.Random(53)
    basis = sl2z_basis()
    rep = Rep4(basis)
    samples = [random_sl2z(rng, size=5) for _ in range(30)]
    report = verify_embedding(rep, samples)
    assert report["ok"]
    assert report["samples"] == 30
    assert report["failures"] == []
    assert report["all_entries_integral"]
    assert all(report["entry_integrality"])


class DoubledRep(Rep4):
    """alpha, doubled on one chosen sample; counts its calls."""

    def __init__(self, basis, target):
        super().__init__(basis)
        self.target = target
        self.calls = 0

    def __call__(self, g):
        self.calls += 1
        m = super().__call__(g)
        return m.scale(2) if g == self.target else m


def test_verify_embedding_reports_failures():
    samples = [T, S, T * T, S * T]
    rep = DoubledRep(sl2z_basis(), S)
    report = verify_embedding(rep, samples)
    assert rep.calls == 2 * len(samples) - 1
    assert report["failures"] == [
        f"homomorphism: {T!r} * {S!r}",
        f"homomorphism: {S!r} * {T * T!r}",
        f"probe: reconstruction mismatch for {S!r}",
        f"characteristic square identity: {S!r}",
        f"determinant: {S!r}",
    ]
    assert not report["ok"]
    assert report["homomorphism_pairs"] == 3
    assert report["identity_images"] == 0
    assert report["entry_integrality"] == [True] * 4
    assert report["all_entries_integral"]


P61 = 2 ** 61 - 1  # a prime; the planted error below is 1/P61^2


class NudgedRep(Rep4):
    """alpha, with 1/P61^2 added to entry (0, 0) of one sample's image."""

    def __init__(self, basis, target):
        super().__init__(basis)
        self.target = target
        self.calls = 0

    def __call__(self, g):
        self.calls += 1
        m = super().__call__(g)
        if g != self.target:
            return m
        rows = [list(r) for r in m.rows]
        rows[0][0] += Fraction(1, P61 * P61)
        return Matrix(tuple(map(tuple, rows)))


def test_verify_embedding_finds_a_failure_at_large_denominators():
    u = mat([[1, Fraction(1, P61)], [0, 1]])
    d = mat([[10 ** 6 + 3, 0], [0, Fraction(1, 10 ** 6 + 3)]])
    samples = [u * d, T * u, S * d * u, d * T * u, u]
    basis = select_basis(word_ball([S, T, u], 2))
    assert verify_embedding(Rep4(basis), samples)["ok"]
    rep = NudgedRep(basis, samples[1])
    report = verify_embedding(rep, samples)
    assert rep.calls == 2 * len(samples) - 1
    a, b, c = samples[:3]
    assert report["failures"] == [
        f"homomorphism: {a!r} * {b!r}",
        f"homomorphism: {b!r} * {c!r}",
        f"probe: reconstruction mismatch for {b!r}",
        f"characteristic square identity: {b!r}",
        f"determinant: {b!r}",
    ]
    assert report["homomorphism_pairs"] == 4
    assert report["entry_integrality"] == [False] * 5


def _generic_alpha(g, basis):
    """sum g_ab * A_ab by Matrix arithmetic on the stored unit tables."""
    (g00, g01), (g10, g11) = g.rows
    a00, a01, a10, a11 = basis.tables
    return g00 * a00 + g01 * a01 + g10 * a10 + g11 * a11


def _typed(m):
    return [(type(x), x) for row in m.rows for x in row]


def test_alpha_matches_the_generic_sum_in_types_and_values():
    rng = random.Random(61)
    k = make_field([1, 0, 1])
    u = mat([[k.one(), k.gamma()], [k.zero(), k.one()]])

    def rational():
        return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                        rng.choice((1, 3, 10 ** 6 + 3, P61)))

    rational_gs = [mat([[rational() for _ in range(2)] for _ in range(2)])
                   for _ in range(10)] + [random_sl2z(rng, size=6)]
    field_gs = [mat([[k.element([rational(), rational()]), rational()],
                     [rational(), k.element([0, rational()])]])
                for _ in range(5)] + [u * T]
    for basis, field_basis in [(sl2z_basis(), False),
                               (select_basis(word_ball([S, u], 2)), True)]:
        # each table is alpha(E_ab), all FieldElements
        # exactly when the basis holds one
        kind = FieldElement if field_basis else Fraction
        for e, table in zip(UNITS, basis.tables):
            assert table == alpha_by_solve(e, basis)
            assert all(type(x) is kind for row in table.rows for x in row)
        for g in rational_gs + field_gs:
            assert _typed(alpha(g, basis)) == _typed(_generic_alpha(g, basis))


# The rational path of TraceBasis, reconstruct and verify_embedding runs on
# int numerators; these oracles run on Fractions, from tests/oracles.py and
# plain list arithmetic.

UNITS_AB = ((0, 0), (0, 1), (1, 0), (1, 1))


def _letters(p):
    """S, T, diag(p, 1/p), [[1, 1/p], [0, 1]] and their inverses."""
    gens = [S, T, mat([[p, 0], [0, Fraction(1, p)]]),
            mat([[1, Fraction(1, p)], [0, 1]])]
    return gens + [g.inverse() for g in gens]


def _word(letters, indices):
    g = Matrix.identity(2)
    for i in indices:
        g = g * letters[i]
    return g


def _rows(m):
    return [list(row) for row in m.rows]


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _charpoly_at(m, x):
    """det(xI - m) by the permutation expansion."""
    return det_leibniz([[(x if i == j else 0) - v for j, v in enumerate(row)]
                        for i, row in enumerate(m)])


def _oracle_report(basis, samples, image):
    """verify_embedding's report from image(g), the 4x4 image of g as row
    lists, by Fraction arithmetic on lists."""
    g1_inverse = inverse_by_adjugate(_rows(basis.elements[0]))
    eye4 = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    failures = [f"homomorphism: {a!r} * {b!r}"
                for a, b in zip(samples, samples[1:])
                if _matmul(image(a), image(b)) != image(a * b)]
    identity_images, integrality = 0, []
    for g in samples:
        m = image(g)
        if m == eye4:
            identity_images += 1
            if not g.is_identity():
                failures.append(f"injectivity: nonidentity {g!r} maps to I")
        combo = [[sum((m[j][0] * gj[r, s]
                       for j, gj in enumerate(basis.elements)), Fraction(0))
                  for s in range(2)] for r in range(2)]
        if _matmul(combo, g1_inverse) != _rows(g):
            failures.append(f"probe: reconstruction mismatch for {g!r}")
        # two monic quartics agree when they agree at five points
        if any(_charpoly_at(m, x) != _charpoly_at(_rows(g), x) ** 2
               for x in range(5)):
            failures.append(f"characteristic square identity: {g!r}")
        if det_leibniz(m) != 1:
            failures.append(f"determinant: {g!r}")
        integrality.append(all(x.denominator == 1 for row in m for x in row))
    return {"samples": len(samples), "homomorphism_pairs": len(samples) - 1,
            "identity_images": identity_images,
            "entry_integrality": integrality,
            "all_entries_integral": all(integrality),
            "failures": failures, "ok": not failures}


class NudgedAtRep(Rep4):
    """alpha, with 1/P61^2 added to entry (i, j) of one sample's image."""

    def __init__(self, basis, target, i, j):
        super().__init__(basis)
        self.target, self.i, self.j = target, i, j
        self.calls = 0

    def __call__(self, g):
        self.calls += 1
        m = super().__call__(g)
        if g != self.target:
            return m
        rows = _rows(m)
        rows[self.i][self.j] += Fraction(1, P61 * P61)
        return Matrix(tuple(map(tuple, rows)))


_words = st.lists(st.integers(0, 7), max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, P61]), st.lists(_words, max_size=8),
       st.lists(_words, min_size=1, max_size=5), st.data())
def test_rational_path_matches_the_fraction_oracles(p, stream, samples,
                                                    data):
    letters = _letters(p)
    # the fallback keeps a basis in reach whatever the drawn words span
    stream = [_word(letters, w) for w in stream] + [
        Matrix.identity(2), S, T, S * T]
    samples = [_word(letters, w) for w in samples]
    basis = select_basis(stream)
    g = basis.elements
    # column i of A_ab holds the coordinates W vec(E_ab g_i), W = V^-1 by
    # the adjugate, V[2r + s][i] = (g_i)_rs
    w = inverse_by_adjugate([[gi[r, s] for gi in g]
                             for r in range(2) for s in range(2)])
    for (a, b), table in zip(UNITS_AB, basis.tables):
        want = [[sum((w[j][2 * r + s] * (g[i][b, s] if r == a else 0)
                      for r in range(2) for s in range(2)), Fraction(0))
                 for i in range(4)] for j in range(4)]
        assert _rows(table) == want
        assert all(type(x) is Fraction for row in table.rows for x in row)
    assert basis.gram == Matrix(tuple(
        tuple(_trace_of_product(a, b) for b in g) for a in g))
    images = {}

    def image(h):
        if h not in images:
            images[h] = _rows(alpha_by_solve(h, basis))
        return images[h]

    for h in samples:
        assert _rows(alpha(h, basis)) == image(h)
        rebuilt = reconstruct(alpha(h, basis), basis)
        assert rebuilt == h
        assert all(type(x) is Fraction for row in rebuilt.rows for x in row)
    report = verify_embedding(Rep4(basis), samples)
    assert report == _oracle_report(basis, samples, image)
    assert report["ok"]
    # a nudge of 1/P61^2 at a drawn entry of a drawn sample's image
    target = data.draw(st.sampled_from(samples))
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    rep = NudgedAtRep(basis, target, i, j)
    nudged = verify_embedding(rep, samples)
    assert rep.calls == 2 * len(samples) - 1

    def nudged_image(h):
        rows = [list(row) for row in image(h)]
        if h == target:
            rows[i][j] += Fraction(1, P61 * P61)
        return rows

    assert nudged == _oracle_report(basis, samples, nudged_image)
    kinds = {f.split(":")[0] for f in nudged["failures"]}
    assert kinds <= {"homomorphism", "probe",
                     "characteristic square identity", "determinant"}
    # the probe reads column 0 only
    assert (f"probe: reconstruction mismatch for {target!r}"
            in nudged["failures"]) == (j == 0)


def test_trace_basis_refuses_a_singular_first_element():
    # E_00, E_01, E_10, E_11 are independent, but reconstruct divides by
    # the first element
    with pytest.raises(SingularError):
        TraceBasis(UNITS)
    with pytest.raises(RankDeficientError):
        TraceBasis([UNITS[0], UNITS[0], UNITS[1], UNITS[2]])


# The same formulas serve Q(gamma), each field entry being its own
# numerator over 1.  Over Q(i) and Q(omega) the ring of integers is
# Z[gamma], so an entry is an algebraic integer exactly when every
# power-basis coefficient is an integer; the oracle below runs on Matrix
# arithmetic and reads integrality that way.

QI = make_field([1, 0, 1])
QW = make_field([1, 1, 1])


def _field_letters(k):
    """S, T, [[1, gamma], [0, 1]], [[1, 0], [gamma/2, 1]] and inverses."""
    one, zero, gamma = k.one(), k.zero(), k.gamma()
    gens = [S, T, mat([[one, gamma], [zero, one]]),
            mat([[one, zero], [gamma / 2, one]])]
    return gens + [g.inverse() for g in gens]


def _coefficients_integral(x):
    coeffs = x.coeffs if isinstance(x, FieldElement) else (x,)
    return all(c.denominator == 1 for c in coeffs)


def _field_oracle_report(basis, samples, image):
    """verify_embedding's report from image(g), the 4x4 Matrix image of g,
    by Matrix arithmetic, det_leibniz and charpolys at five points."""
    g1_inverse = basis.elements[0].inverse()
    failures = [f"homomorphism: {a!r} * {b!r}"
                for a, b in zip(samples, samples[1:])
                if image(a) * image(b) != image(a * b)]
    identity_images, integrality = 0, []
    for g in samples:
        m = image(g)
        if m == Matrix.identity(4):
            identity_images += 1
            if g != Matrix.identity(2):
                failures.append(f"injectivity: nonidentity {g!r} maps to I")
        combo = m[0, 0] * basis.elements[0]
        for j in range(1, 4):
            combo = combo + m[j, 0] * basis.elements[j]
        if combo * g1_inverse != g:
            failures.append(f"probe: reconstruction mismatch for {g!r}")
        if any(_charpoly_at(_rows(m), x) != _charpoly_at(_rows(g), x) ** 2
               for x in range(5)):
            failures.append(f"characteristic square identity: {g!r}")
        if det_leibniz(_rows(m)) != 1:
            failures.append(f"determinant: {g!r}")
        integrality.append(all(_coefficients_integral(x)
                               for row in m.rows for x in row))
    return {"samples": len(samples), "homomorphism_pairs": len(samples) - 1,
            "identity_images": identity_images,
            "entry_integrality": integrality,
            "all_entries_integral": all(integrality),
            "failures": failures, "ok": not failures}


class FieldNudgedRep(Rep4):
    """alpha, with gamma/P61^2 added to entry (i, j) of one sample's
    image."""

    def __init__(self, basis, target, i, j, nudge):
        super().__init__(basis)
        self.target, self.i, self.j, self.nudge = target, i, j, nudge
        self.calls = 0

    def __call__(self, g):
        self.calls += 1
        m = super().__call__(g)
        if g != self.target:
            return m
        rows = _rows(m)
        rows[self.i][self.j] += self.nudge
        return Matrix(tuple(map(tuple, rows)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QI, QW]), st.lists(_words, max_size=6),
       st.lists(_words, min_size=1, max_size=4), st.data())
def test_field_report_matches_the_matrix_oracle(k, stream, samples, data):
    letters = _field_letters(k)
    u = letters[2]
    # the fallback keeps a basis in reach whatever the drawn words span
    stream = [_word(letters, w) for w in stream] + [
        Matrix.identity(2), S, u, S * u]
    samples = [_word(letters, w) for w in samples]
    basis = select_basis(stream)
    field_basis = any(isinstance(x, FieldElement) for g in basis.elements
                      for row in g.rows for x in row)
    kind = FieldElement if field_basis else Fraction
    for e, table in zip(UNITS, basis.tables):
        assert table == alpha_by_solve(e, basis)
        assert all(type(x) is kind for row in table.rows for x in row)
    images = {}

    def image(h):
        if h not in images:
            images[h] = alpha_by_solve(h, basis)
        return images[h]

    for h in samples:
        assert alpha(h, basis) == image(h)
        assert reconstruct(image(h), basis) == h
    report = verify_embedding(Rep4(basis), samples)
    assert report == _field_oracle_report(basis, samples, image)
    assert report["ok"]
    # a nudge of gamma/P61^2 at a drawn entry of a drawn sample's image
    nudge = k.gamma() / (P61 * P61)
    target = data.draw(st.sampled_from(samples))
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    rep = FieldNudgedRep(basis, target, i, j, nudge)
    nudged = verify_embedding(rep, samples)
    assert rep.calls == 2 * len(samples) - 1

    def nudged_image(h):
        m = image(h)
        if h != target:
            return m
        rows = _rows(m)
        rows[i][j] += nudge
        return Matrix(tuple(map(tuple, rows)))

    assert nudged == _field_oracle_report(basis, samples, nudged_image)
    assert not nudged["entry_integrality"][samples.index(target)]
    kinds = {f.split(":")[0] for f in nudged["failures"]}
    assert kinds <= {"homomorphism", "probe",
                     "characteristic square identity", "determinant"}
    # the probe reads column 0 only
    assert (f"probe: reconstruction mismatch for {target!r}"
            in nudged["failures"]) == (j == 0)
