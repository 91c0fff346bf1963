import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (det_leibniz, inverse_by_adjugate, pivot_columns,
                     rank_by_minors)
from sl2kit import (ArchimedeanEmbedding, Factor, FieldElement, HPoint,
                    Matrix, PropernessReport, SingularError, base_vertex,
                    classify_2dim, displacement, enumerate_bounded, extend,
                    linear_solve, make_field, make_group, make_subalgebra,
                    mat, rank, select_basis, tree_context, word_ball)


def test_mat_coerces_ints():
    m = mat([[1, 2], [3, 4]])
    assert m[0, 0] == Fraction(1)
    assert isinstance(m[1, 1], Fraction)


def test_floats_rejected():
    with pytest.raises(TypeError):
        mat([[1.0, 0], [0, 1]])
    with pytest.raises(TypeError):
        mat([[True, 0], [0, 1]])


def test_sizes():
    with pytest.raises(ValueError):
        mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        mat([[1, 2, 3, 4, 5]] * 5)


def test_identity_and_product():
    i2 = Matrix.identity(2)
    m = mat([[1, 1], [0, 1]])
    assert i2 * m == m
    assert m * m == mat([[1, 2], [0, 1]])
    assert m.inverse() == mat([[1, -1], [0, 1]])
    # int entries stay exact: int / int would be a float
    assert repr(Matrix(((1, 2), (3, 4))).inverse()) == \
        "Matrix[-2, 1; 3/2, -1/2]"


def test_det_examples():
    a = Fraction(7, 3)
    assert mat([[a, 0], [0, 1 / a]]).det() == 1
    assert mat([[0, 1], [-1, 0]]).det() == 1
    assert mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3


def test_det_4x4_vs_permutation_expansion():
    rng = random.Random(11)
    k = make_field([1, 0, 1])

    def ints(n):
        return [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(n)]

    def combination(rows):
        coeffs = [rng.randint(-3, 3) for _ in rows]
        return [sum((c * x for c, x in zip(coeffs, col)), Fraction(0))
                for col in zip(*rows)]

    def mixed(x):
        return k.element([x, rng.randint(-2, 2)]) if rng.random() < 0.5 else x

    cases = [ints(4) for _ in range(20)] + [ints(3) for _ in range(20)]
    cases.append([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # two row swaps
    for rank_ in (2, 3):
        for _ in range(10):
            rows = ints(4)[:rank_]
            while len(rows) < 4:
                rows.insert(rng.randrange(len(rows) + 1), combination(rows))
            assert rank_by_minors(rows) == rank_
            cases.append(rows)
    for _ in range(15):
        cases.append([[mixed(x) for x in row] for row in ints(4)])
    for rows in cases:
        expect = det_leibniz(rows)
        assert mat(rows).det() == expect, rows
        assert (expect == 0) == (rank_by_minors(rows) < len(rows))

def test_inverse_roundtrip():
    rng = random.Random(5)
    done = 0
    while done < 25:
        n = rng.choice((2, 3, 4))
        m = mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if m.det() == 0:
            continue
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()
        done += 1


def test_singular_inverse():
    with pytest.raises(SingularError):
        mat([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularError):
        mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]]).inverse()


def test_charpoly_2x2():
    m = mat([[2, 3], [5, 7]])
    # det(xI - A) = x^2 - tr x + det, constant term first
    assert m.charpoly() == (Fraction(-1), Fraction(-9), Fraction(1))


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        m = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        cp = m.charpoly()
        assert len(cp) == n + 1
        assert cp[-1] == 1
        assert cp[0] == (-1) ** n * m.det()
        # evaluate at the matrix itself: Cayley-Hamilton
        acc = Matrix.identity(n).scale(cp[0])
        power = Matrix.identity(n)
        for c in cp[1:]:
            power = power * m
            acc = acc + power.scale(c)
        assert all(acc[i, j] == 0 for i in range(n) for j in range(n))


def _char_value(cp, x):
    acc = Fraction(0)
    for c in reversed(cp):
        acc = acc * x + c
    return acc


def test_charpoly_matches_leibniz_oracle():
    # det(xI - A) by the permutation expansion at five rational points
    rng = random.Random(31)
    k = make_field([1, 0, 1])
    dens = (1, 2, 9, 97, 10 ** 6 + 3, 2 ** 61 - 1)

    def rational():
        return Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.choice(dens))

    cases = [[[rational() for _ in range(n)] for _ in range(n)]
             for n in (3, 4) for _ in range(12)]
    cases += [[[k.element([rational(), rational()]) for _ in range(4)]
               for _ in range(4)] for _ in range(6)]
    xs = (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 5),
          Fraction(10 ** 6 + 3, 11))
    for rows in cases:
        n = len(rows)
        cp = Matrix(tuple(map(tuple, rows))).charpoly()
        assert len(cp) == n + 1
        for x in xs:
            shifted = [[(x if i == j else 0) - rows[i][j] for j in range(n)]
                       for i in range(n)]
            assert _char_value(cp, x) == det_leibniz(shifted)


def test_charpoly_coefficient_types():
    # a rational matrix gives Fractions, whatever its denominators
    big = Fraction(5, 2 ** 61 - 1)
    cp = mat([[big, 1, 0], [Fraction(-3, 7), 2, big], [0, 1, 1]]).charpoly()
    assert [type(c) for c in cp] == [Fraction] * 4
    # otherwise a coefficient is a FieldElement once field entries reach
    # it: all at once through a field diagonal entry, else from the
    # x^(n-2) coefficient down
    k = make_field([1, 0, 1])
    i, F = k.gamma(), FieldElement

    def with_field_entries(n, positions):
        rows = [[Fraction(1 + r * n + c, 1 + (r + c) % 3) for c in range(n)]
                for r in range(n)]
        for r, c in positions:
            rows[r][c] = rows[r][c] + i
        return Matrix(tuple(map(tuple, rows)))

    for n, positions, types in [
            (4, [(0, 1)], [F, F, F, Fraction, Fraction]),
            (4, [(1, 2), (2, 1)], [F, F, F, Fraction, Fraction]),
            (4, [(3, 3)], [F, F, F, F, Fraction]),
            (4, [(r, c) for r in range(4) for c in range(4)],
             [F, F, F, F, Fraction]),
            (3, [(2, 0)], [F, F, Fraction, Fraction])]:
        cp = with_field_entries(n, positions).charpoly()
        assert [type(c) for c in cp] == types


def test_transpose_trace_neg():
    m = mat([[1, 2], [3, 4]])
    assert m.transpose() == mat([[1, 3], [2, 4]])
    assert m.trace() == 5
    assert -m == mat([[-1, -2], [-3, -4]])
    assert m - m == mat([[0, 0], [0, 0]])


def test_scalar_multiplication():
    m = mat([[1, 2], [3, 4]])
    assert Fraction(1, 2) * m == mat([[Fraction(1, 2), 1],
                                      [Fraction(3, 2), 2]])
    assert m.scale(2) == mat([[2, 4], [6, 8]])


def test_hash_dedup():
    a = mat([[1, 1], [0, 1]])
    b = mat([[1, 1], [0, 1]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a * b}) == 2


def _one_value_of_each_type():
    s, t = mat([[0, -1], [1, 0]]), mat([[1, 1], [0, 1]])
    field = make_field([1, 0, 1])
    group = make_group([s, t])
    e, h = mat([[0, 1], [0, 0]]), mat([[1, 0], [0, -1]])
    sub = make_subalgebra(e, h)
    ctx = tree_context(3)
    ext = extend(3, field)
    return [t, field, field.gamma(), ext.base, ext, ctx, base_vertex(ctx),
            ArchimedeanEmbedding(), HPoint(0, 1), group.ring,
            displacement(t, group), enumerate_bounded(group, 1.0),
            PropernessReport(True, 1, 1, "finite", ()), sub,
            classify_2dim(sub), Factor("h", t),
            select_basis(word_ball([s, t], 3))]


def test_immutable():
    values = _one_value_of_each_type()
    assert len({type(v).__name__ for v in values}) == 17
    for v in values:
        name = type(v).__slots__[0]
        before = getattr(v, name)
        message = f"{type(v).__name__} is immutable"
        with pytest.raises(AttributeError) as exc:
            setattr(v, name, None)
        assert str(exc.value) == message
        with pytest.raises(AttributeError) as exc:
            delattr(v, name)
        assert str(exc.value) == message
        assert getattr(v, name) is before
    m = mat([[1, 0], [0, 1]])
    held = {m}
    with pytest.raises(AttributeError):
        del m.rows
    assert m in held and m.rows == ((1, 0), (0, 1))


def test_linear_solve_unique():
    sol = linear_solve([[Fraction(2), Fraction(1)],
                        [Fraction(1), Fraction(3)]],
                       [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]
    sol = linear_solve([[3]], [1])  # an int pivot divides exactly
    assert sol == [Fraction(1, 3)] and type(sol[0]) is Fraction


def test_linear_solve_inconsistent_and_free():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linear_solve(rows, [Fraction(1), Fraction(3)]) is None
    # consistent but underdetermined: free variable pinned to zero
    sol = linear_solve(rows, [Fraction(3), Fraction(6)])
    assert sol == [Fraction(3), Fraction(0)]


def test_linear_solve_overdetermined():
    rows = [[Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(1)]]
    assert linear_solve(rows, [Fraction(2), Fraction(3), Fraction(5)]) == \
        [Fraction(2), Fraction(3)]
    assert linear_solve(rows, [Fraction(2), Fraction(3), Fraction(4)]) is None


def test_rank():
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert rank([]) == 0
    # in floats 1 - (10^17 + 1)/10^17 rounds to 0 and the rank reads 1
    assert rank([[10 ** 17, 1], [10 ** 17 + 1, 1]]) == 2


QI = make_field([1, 0, 1])
FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# Q(i) draws include zeros and rational values; a mixed system draws each
# entry from any of the three kinds
KINDS = [st.integers(-3, 3), FRACTIONS,
         st.builds(lambda a, b: QI.element([a, b]), FRACTIONS,
                   st.integers(-1, 1))]
ENTRIES = st.sampled_from(KINDS + [st.one_of(KINDS)])


def _combine(coeffs, rows):
    """sum(c * row) from the first term on, in the type the entries give
    (an int start would be lifted into the field; ints stay ints)."""
    return [sum((c * row[j] for c, row in zip(coeffs[1:], rows[1:])),
                coeffs[0] * rows[0][j]) for j in range(len(rows[0]))]


@st.composite
def exact_rows(draw, m, n, entries):
    """An m x n list of rows; half the time the last row is a combination
    of the others, so singular matrices come up often."""
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        a[-1] = _combine([draw(entries) for _ in range(m - 1)], a[:-1])
    return a


@st.composite
def exact_systems(draw):
    """(A, b) with A of size m x n, 1 <= m, n <= 4, entries of one kind or
    mixed; b is A times a random vector half the time, so overdetermined
    systems can be consistent."""
    entries = draw(ENTRIES)
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = draw(exact_rows(m, n, entries))
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(n)]
        b = _combine(x, [list(col) for col in zip(*a)])
    else:
        b = [draw(entries) for _ in range(m)]
    return a, b


@settings(max_examples=200, deadline=None)
@given(exact_systems())
def test_row_reduction_matches_minor_oracles(system):
    a, b = system
    n = len(a[0])
    rk = rank_by_minors(a)
    assert rank(a) == rk
    sol = linear_solve(a, b)
    if rk < rank_by_minors([row + [bi] for row, bi in zip(a, b)]):
        assert sol is None
        return
    assert sol is not None and len(sol) == n
    assert [sum(r[j] * sol[j] for j in range(n)) for r in a] == b
    free = set(range(n)) - set(pivot_columns(a))
    assert all(sol[j] == 0 for j in free)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 4), ENTRIES).flatmap(
    lambda drawn: exact_rows(drawn[0], drawn[0], drawn[1])))
def test_inverse_matches_adjugate(a):
    # a raw Matrix keeps int entries, which mat would lift to Fractions
    m = Matrix(tuple(tuple(row) for row in a))
    assert m.det() == det_leibniz(a)
    expected = inverse_by_adjugate(a)
    if expected is None:
        with pytest.raises(SingularError):
            m.inverse()
    else:
        assert m.inverse() == mat(expected)
