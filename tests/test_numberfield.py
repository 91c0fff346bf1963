"""Exact number-field arithmetic, minimal polynomials, integrality."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import poly_mulmod, rank_by_minors

from sl2kit import (ArchimedeanEmbedding, FieldElement, NotMonicError,
                    ReducibleError, UnsupportedError, is_algebraic_integer,
                    make_field, minimal_polynomial)


def test_make_field_degree_two():
    k = make_field([-5, 0, 1])
    assert k.degree == 2
    assert make_field([1, 1, 1]).degree == 2


def test_make_field_rejects_reducible():
    with pytest.raises(ReducibleError) as exc:
        make_field([-1, 0, 1])  # x^2 - 1
    assert exc.value.witness == (-1, 1)  # x - 1 found before x + 1


def test_make_field_large_constant_term():
    # the rational-root search lists the divisors of c0 from its prime
    # factors, so a 15-digit prime c0 is settled without a sqrt(c0) scan
    q = 10**14 + 31
    assert make_field([q, 0, 1]).degree == 2
    with pytest.raises(ReducibleError) as exc:
        make_field([-q, 1, -q, 1])  # (x - q)(x^2 + 1)
    assert exc.value.witness == (-q, 1)
    # q^2 is beyond certified primality, but a perfect square is split by
    # its exact square root
    assert make_field([q * q, 0, 1]).degree == 2
    r = 10**14 + 67  # prime, and q * r is not a square
    with pytest.raises(UnsupportedError):
        make_field([q * r, 0, 1])


def test_make_field_rejects_nonmonic():
    with pytest.raises(NotMonicError):
        make_field([1, 0, 2])
    with pytest.raises(NotMonicError):
        make_field([Fraction(1, 2), 1])


def test_make_field_degree_limits():
    with pytest.raises(ValueError):
        make_field([1])
    with pytest.raises(ValueError):
        make_field([1, 0, 0, 0, 0, 1])  # degree 5


def test_quartic_irreducibility():
    # (x^2+1)(x^2+2) = x^4 + 3x^2 + 2 must be caught
    with pytest.raises(ReducibleError) as exc:
        make_field([2, 0, 3, 0, 1])
    w = exc.value.witness
    assert len(w) == 3 and w[-1] == 1
    # x^4 + 1 has no rational root and no integer quadratic split
    assert make_field([1, 0, 0, 0, 1]).degree == 4
    assert make_field([1, -1, 0, 0, 1]).degree == 4


def test_cubic():
    assert make_field([-2, 0, 0, 1]).degree == 3
    with pytest.raises(ReducibleError):
        make_field([-1, 0, 0, 1])  # x^3 - 1


def test_golden_ratio_arithmetic():
    k = make_field([-5, 0, 1])
    gamma = k.gamma()
    phi = (1 + gamma) / 2
    assert phi * phi == phi + 1
    assert gamma * gamma == 5
    assert 1 / gamma == gamma / 5
    assert (gamma + 2) * (gamma - 2) == 1


def test_element_padding_and_validation():
    k = make_field([-5, 0, 1])
    assert k.element([3]) == 3
    with pytest.raises(ValueError):
        k.element([1, 2, 3])


def test_division_and_zero():
    k = make_field([1, 1, 1])
    g = k.gamma()
    x = 2 * g + 3
    assert x / x == 1
    assert (x * x.inverse()) == k.one()
    with pytest.raises(ZeroDivisionError):
        k.zero().inverse()
    assert bool(k.zero()) is False and bool(g) is True


def test_powers():
    k = make_field([1, 0, 0, 0, 1])  # gamma^4 = -1
    g = k.gamma()
    assert g ** 4 == -1
    assert g ** 8 == 1
    assert g ** 0 == 1
    acc = k.one()
    for _ in range(7):
        acc = acc * g
    assert g ** 7 == acc


@pytest.mark.parametrize("minpoly", [
    [3, 1], [1, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [1, 1, 0, 0, 1],
    [2, 1, 0, 3, 1], [1, 0, 0, 0, 1]])
def test_products_match_the_schoolbook_oracle(minpoly):
    rng = random.Random(sum(minpoly))
    k = make_field(minpoly)

    def scalar():
        return rng.choice([0, rng.randint(-9, 9),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 6))])

    def check(z, expect):
        assert all(type(c) is Fraction for c in z.coeffs)
        assert z.coeffs == expect

    for _ in range(40):
        a = [scalar() for _ in range(k.degree)]
        b = [scalar() for _ in range(k.degree)]
        x, y = k.element(a), k.element(b)
        check(x * y, poly_mulmod(minpoly, a, b))
        n, q = rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)
        check(x * n, poly_mulmod(minpoly, a, [n]))
        check(q * x, poly_mulmod(minpoly, [q], a))
        if x:
            one = poly_mulmod(minpoly, a, x.inverse().coeffs)
            assert one == (1,) + (0,) * (k.degree - 1)


def test_minimal_polynomial_examples():
    k = make_field([-5, 0, 1])
    gamma = k.gamma()
    assert minimal_polynomial((1 + gamma) / 2) == \
        (Fraction(-1), Fraction(-1), Fraction(1))
    assert minimal_polynomial(Fraction(3)) == (Fraction(-3), Fraction(1))
    assert minimal_polynomial(3) == (Fraction(-3), Fraction(1))
    assert minimal_polynomial(gamma) == (Fraction(-5), Fraction(0),
                                         Fraction(1))


def test_minimal_polynomial_subfield_element():
    k = make_field([-2, 0, 0, 0, 1])  # gamma^4 = 2
    g = k.gamma()
    assert minimal_polynomial(g * g) == (Fraction(-2), Fraction(0),
                                         Fraction(1))
    assert minimal_polynomial(k.from_rational(Fraction(1, 2))) == \
        (Fraction(-1, 2), Fraction(1))


def test_minimal_polynomial_annihilates():
    rng = random.Random(23)
    k = make_field([1, -1, 0, 0, 1])
    for _ in range(25):
        x = k.element([Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                       for _ in range(4)])
        mp = minimal_polynomial(x)
        acc = k.zero()
        power = k.one()
        for c in mp:
            acc = acc + c * power
            power = power * x
        assert acc == 0
        assert mp[-1] == 1


# Q(i), Q(omega), Q(cbrt 2), Q(2^(1/4)), Q(zeta_8), x^4 + x + 1; sparse
# coefficients land in proper subfields of the quartics often
MINPOLY_FIELDS = [(1, 0, 1), (1, 1, 1), (-2, 0, 0, 1), (-2, 0, 0, 0, 1),
                  (1, 0, 0, 0, 1), (1, 1, 0, 0, 1)]
SPARSE = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-5, 5),
                             st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MINPOLY_FIELDS), st.data())
def test_minimal_polynomial_matches_annihilation_and_rank(minpoly, data):
    # monic, kills x, and 1, x, ..., x^(deg - 1) are independent (rank by
    # minors), so no polynomial of lower degree kills x
    k = make_field(minpoly)
    x = k.element([data.draw(SPARSE) for _ in range(k.degree)])
    mp = minimal_polynomial(x)
    deg = len(mp) - 1
    assert mp[-1] == 1 and k.degree % deg == 0
    assert all(type(c) is Fraction for c in mp)
    powers = [k.one()]
    for _ in range(deg):
        powers.append(powers[-1] * x)
    assert sum((c * p for c, p in zip(mp, powers)), k.zero()) == 0
    assert rank_by_minors([list(p.coeffs) for p in powers[:deg]]) == deg


def test_is_algebraic_integer():
    k = make_field([-5, 0, 1])
    gamma = k.gamma()
    assert is_algebraic_integer((1 + gamma) / 2)
    assert not is_algebraic_integer(Fraction(1, 2))
    assert is_algebraic_integer(7)
    assert not is_algebraic_integer(gamma / 2)
    assert is_algebraic_integer(gamma)


def test_integer_closure_under_sum_and_product():
    # sums and products of algebraic integers stay integral
    rng = random.Random(31)
    k = make_field([-5, 0, 1])
    gamma = k.gamma()
    phi = (1 + gamma) / 2
    pool = [gamma, phi, k.one(), 3 - gamma, 2 * phi + 1]
    for _ in range(40):
        a = rng.choice(pool) + rng.randint(-3, 3)
        b = rng.choice(pool) * rng.randint(1, 3)
        assert is_algebraic_integer(a + b)
        assert is_algebraic_integer(a * b)


def test_field_axioms_random_triples():
    rng = random.Random(47)
    k = make_field([1, 1, 1])

    def rand():
        return k.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(2)])

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_rational_comparisons_and_hash():
    k = make_field([1, 1, 1])
    two = k.from_rational(2)
    assert two == 2
    assert two == Fraction(2)
    assert hash(two) == hash(Fraction(2))
    assert k.gamma() != Fraction(1)
    other = make_field([-5, 0, 1])
    assert k.from_rational(3) == other.from_rational(3)
    assert k.gamma() != other.gamma()


def test_mixed_scalar_ops():
    k = make_field([-5, 0, 1])
    g = k.gamma()
    assert Fraction(1, 2) * g == g / 2
    assert 3 - g == -(g - 3)
    assert (6 / (g + 1)).field is k


def test_degree_one_field_gamma_is_its_root():
    k = make_field([5, 1])  # x + 5
    assert k.degree == 1
    assert k.gamma().is_rational and k.gamma().as_fraction() == -5


def test_float_and_bool_operands_raise():
    g = make_field([-5, 0, 1]).gamma()
    for other in (1.5, True):
        for op in (lambda: g + other, lambda: other * g, lambda: g - other):
            with pytest.raises(TypeError):
                op()


def test_rational_of_another_field_lifts_in_a_sum():
    k, other = make_field([1, 0, 1]), make_field([-2, 0, 1])
    s = k.gamma() + other.from_rational(Fraction(3, 2))
    assert s.field is k and s == k.element((Fraction(3, 2), 1))
    with pytest.raises(TypeError):  # an irrational one does not lift
        k.gamma() + other.gamma()


def test_is_rational_and_as_fraction():
    k = make_field([-5, 0, 1])
    x = k.from_rational(Fraction(7, 2))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 2)
    assert not k.gamma().is_rational
    with pytest.raises(ValueError):
        k.gamma().as_fraction()


def test_field_element_repr_is_stable():
    k = make_field([-5, 0, 1])
    assert isinstance(repr(k.gamma() / 2 + 1), str)
    assert isinstance(k.gamma(), FieldElement)


INT_FIELDS = [[1, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [2, 1, 0, 3, 1]]
_rationals = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=10 ** 4).filter(lambda q: abs(q) < 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 20)))


def _horner_over_fractions(coeffs, z):
    # the float rule of the embedding, written out: from the top
    # coefficient down, acc * z + complex(c) on the Fractions
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(INT_FIELDS), st.lists(_rationals, min_size=4,
                                            max_size=4),
       st.lists(_rationals, min_size=4, max_size=4))
def test_int_representation(minpoly, a, b):
    k = make_field(minpoly)
    a, b = a[:k.degree], b[:k.degree]
    x, y = k.element(a), k.element(b)
    for z in (x, y, x * y, x + y, x - y, -x):
        nums, den = z._nums, z._den
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in nums) and len(nums) == k.degree
        assert math.gcd(*nums, den) == 1
        assert z.coeffs == tuple(Fraction(n, den) for n in nums)
    assert (x * y).coeffs == poly_mulmod(minpoly, a, b)
    if x:
        inv = x.inverse()
        assert math.gcd(*inv._nums, inv._den) == 1 and inv._den > 0
        assert x * inv == 1 and (x * inv).coeffs == (1,) + (0,) * (k.degree - 1)
    q = k.from_rational(a[0])
    assert hash(q) == hash(Fraction(a[0])) and q == a[0]
    if not x.is_rational:
        assert hash(x) == hash((k.minpoly, tuple(Fraction(c) for c in a)))
    for idx in range(k.degree):
        emb = ArchimedeanEmbedding(k, root_index=idx)
        for z in (x, y, x * y):
            got, want = emb(z), _horner_over_fractions(z.coeffs, emb.root)
            assert type(got) is complex and repr(got) == repr(want)


_MODULUS = sys.hash_info.modulus
# denominators at and around the hash modulus, where a Fraction hashes as
# sys.hash_info.inf or reduces the modulus away
_hash_rationals = st.one_of(
    _rationals,
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.sampled_from([_MODULUS, 2 * _MODULUS, _MODULUS ** 2,
                               _MODULUS - 1, _MODULUS + 1])),
    st.builds(lambda n: Fraction(n * _MODULUS, 3 * _MODULUS + 3),
              st.integers(-10 ** 6, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INT_FIELDS + [[-3, 1]]),
       st.lists(_hash_rationals, min_size=4, max_size=4),
       st.integers(0, 3))
def test_hash_equals_the_fraction_tuple_hash(minpoly, a, rational_from):
    # the hash is read off the ints, yet equals hash((minpoly, coeffs)) on
    # the Fraction coefficients, and the Fraction's hash when rational
    k = make_field(minpoly)
    a = a[:k.degree]
    for cs in (a, a[:rational_from] + [0] * (k.degree - rational_from)):
        x = k.element(cs)
        coeffs = tuple(Fraction(c) for c in cs)
        assert x.coeffs == coeffs
        want = (hash(coeffs[0]) if x.is_rational
                else hash((k.minpoly, coeffs)))
        assert hash(x) == want


def test_hash_with_the_modulus_in_the_denominator():
    k = make_field([1, 0, 1])
    for cs in ([Fraction(1, _MODULUS), Fraction(1, 2)],
               [Fraction(-1, _MODULUS), 0],
               [Fraction(_MODULUS, 2 * _MODULUS + 2), Fraction(3, _MODULUS)],
               [Fraction(-7, _MODULUS ** 2), Fraction(-1)]):
        x = k.element(cs)
        assert x._den % _MODULUS == 0
        coeffs = tuple(Fraction(c) for c in cs)
        want = (hash(coeffs[0]) if x.is_rational
                else hash((k.minpoly, coeffs)))
        assert hash(x) == want
    assert hash(k.element([Fraction(1, _MODULUS)])) == sys.hash_info.inf
    assert hash(k.element([-1])) == hash(-1) == -2
