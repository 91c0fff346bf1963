"""Valuation axioms, the extension rule, and its validity gate."""

import random
from fractions import Fraction

import pytest

from oracles import random_nonzero_rational, reducible_mod_p
import sl2kit.valuations as valuations
from sl2kit import (INF, NotAValuationError, PAdicValuation, UnsupportedError,
                    extend, make_field)
from sl2kit.valuations import _MR_BOUND, _is_prime, _prime_factors


def test_padic_examples():
    v3 = PAdicValuation(3)
    assert v3(Fraction(9, 2)) == 2
    assert v3(0) == INF
    assert PAdicValuation(2)(7) == 0
    assert PAdicValuation(5)(Fraction(1, 25)) == -2


def test_padic_rejects_nonprime():
    # the last two: the least strong pseudoprime to every base 2..41, where
    # Miller-Rabin with those bases stops being exact, and the prime 2^89 - 1
    # beyond that bound
    for bad in (1, 4, 6, -3, 0, True, 2.0, 3317044064679887385961981,
                2 ** 89 - 1):
        with pytest.raises(ValueError):
            PAdicValuation(bad)
    assert PAdicValuation(2 ** 61 - 1).p == 2 ** 61 - 1


def _sieve(limit):
    prime = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit ** 0.5) + 1):
        if prime[d]:
            prime[d * d::d] = [False] * len(prime[d * d::d])
    return prime


def test_is_prime_matches_sieve():
    prime = _sieve(10 ** 5)
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if prime[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number, then the least strong pseudoprimes to the bases
    # 2; 2..7; 2..23; 2..37 (only base 41 catches the last one)
    for n in (561, 2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(10 ** 14 + 31) and _is_prime(1000000000000000003)


def test_prime_factors_ascending_and_exact():
    prime = _sieve(2000)
    for n in range(-2, 2000):
        assert _prime_factors(n) == tuple(
            q for q in range(2, max(n, 0) + 1) if prime[q] and n % q == 0)
    big = 10 ** 14 + 31
    assert _prime_factors(big) == (big,)
    assert _prime_factors(12 * big) == (2, 3, big)


def test_prime_factors_splits_composite_cofactors():
    # no cofactor is ever prime here, so trial division alone would run to
    # the smaller factor
    q, r = 10 ** 9 + 7, 10 ** 11 + 3
    assert _is_prime(q) and _is_prime(r)
    assert _prime_factors(q * q) == (q,)
    assert _prime_factors(6 * r * q) == (2, 3, q, r)


def test_prime_factors_takes_square_roots_above_the_bound():
    q = 10 ** 14 + 31
    assert q * q > _MR_BOUND
    assert _prime_factors(q * q) == (q,)
    assert _prime_factors(6 * q ** 4) == (2, 3, q)
    with pytest.raises(UnsupportedError, match=str(_MR_BOUND)):
        _prime_factors(q ** 3)  # cubes are still refused


def test_prime_factors_refuses_what_it_cannot_certify(monkeypatch):
    m89 = 2 ** 89 - 1  # a Mersenne prime above the Miller-Rabin bound
    assert m89 > _MR_BOUND
    with pytest.raises(UnsupportedError, match=str(_MR_BOUND)):
        _prime_factors(12 * m89)
    monkeypatch.setattr(valuations, "_RHO_STEPS", 10)
    with pytest.raises(UnsupportedError, match="within 10 steps"):
        _prime_factors((10 ** 9 + 7) * (10 ** 11 + 3))


def test_padic_rejects_floats():
    with pytest.raises(TypeError):
        PAdicValuation(2)(0.5)


def test_uniformizer_and_residue():
    v = PAdicValuation(7)
    assert v(v.uniformizer) == 1
    assert v.residue_size == 7


def test_axioms_random_pairs():
    rng = random.Random(101)
    for p in (2, 3, 5):
        v = PAdicValuation(p)
        for _ in range(400):
            a = random_nonzero_rational(rng)
            b = random_nonzero_rational(rng)
            assert v(a * b) == v(a) + v(b)
            if a + b != 0:
                assert v(a + b) >= min(v(a), v(b))
            else:
                assert v(a + b) == INF


def test_ring_of_integers_closed(seedval=303):
    rng = random.Random(seedval)
    v = PAdicValuation(3)
    pool = []
    while len(pool) < 40:
        q = random_nonzero_rational(rng)
        if v(q) >= 0:
            pool.append(q)
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        assert v(a + b) >= 0 or a + b == 0
        assert v(a * b) >= 0


def test_extend_accepted_cases():
    k = make_field([1, 1, 1])
    v = extend(2, k)
    assert v.residue_degree == 2
    assert v.residue_size == 4
    assert extend(3, make_field([1, 0, 1])).residue_size == 9


def test_extend_over_a_degree_one_field():
    # x + 5 has no proper factor mod any p: the gate passes at once
    k = make_field([5, 1])
    v = extend(3, k)
    assert v.residue_size == 3
    assert v(k.from_rational(Fraction(9, 2))) == 2


def test_extend_quartic():
    # x^4 + x + 1 stays irreducible mod 2
    v = extend(2, make_field([1, 1, 0, 0, 1]))
    assert v.residue_size == 16


def test_extension_gate_rejects_with_counterexample():
    k = make_field([-2, 0, 1])
    with pytest.raises(NotAValuationError) as exc:
        extend(2, k)
    x, y = exc.value.counterexample
    # recompute the min rule by hand and watch multiplicativity fail
    base = PAdicValuation(2)

    def rule(e):
        return min(base(c) for c in e.coeffs if c != 0)

    assert rule(x * y) != rule(x) + rule(y)


def test_extension_gate_more_cases():
    with pytest.raises(NotAValuationError):
        extend(5, make_field([1, 0, 1]))  # x^2+1 = (x+2)(x+3) mod 5
    with pytest.raises(NotAValuationError):
        extend(3, make_field([1, 1, 1]))  # x^2+x+1 has the root 1 mod 3
    assert extend(2, make_field([1, 1, 1])) is not None


def test_extended_values():
    k = make_field([1, 1, 1])
    v = extend(2, k)
    g = k.gamma()
    assert v(g / 2 + 3) == -1
    assert v(k.zero()) == INF
    assert v(g) == 0
    assert v(2 * g) == 1
    assert v(Fraction(4, 3)) == 2  # rational passthrough
    assert v(v.uniformizer) == 1


def test_extended_axioms_random():
    rng = random.Random(909)
    k = make_field([1, 1, 1])
    v = extend(2, k)

    def rand_elt():
        while True:
            x = k.element([Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                           for _ in range(2)])
            if x != 0:
                return x

    for _ in range(300):
        x, y = rand_elt(), rand_elt()
        assert v(x * y) == v(x) + v(y)
        s = x + y
        if s == 0:
            assert v(s) == INF
        else:
            assert v(s) >= min(v(x), v(y))


def test_extended_rejects_foreign_elements():
    k = make_field([1, 1, 1])
    other = make_field([-5, 0, 1])
    v = extend(2, k)
    with pytest.raises(TypeError):
        v(other.gamma())


GRID_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_POLYS = (
    (1, 0, 1), (-2, 0, 1), (1, 1, 1), (-5, 0, 1), (3, 0, 1),
    (-2, 0, 0, 1), (1, 1, 0, 1), (1, -3, 0, 1), (2, 0, 0, 1),
    (1, 0, 0, 0, 1), (1, 1, 0, 0, 1), (-2, 0, 0, 0, 1), (1, 1, 1, 1, 1),
    (1, 0, -10, 0, 1),  # (x^2 - 5)^2 - 24 x^2: reducible mod every prime
)


def _hand_rule(e, p):
    """min over coefficients of v_p, from the numerators and denominators."""
    def v(q):
        num, den, n = q.numerator, q.denominator, 0
        while num % p == 0:
            num //= p
            n += 1
        while den % p == 0:
            den //= p
            n -= 1
        return n
    return min(v(c) for c in e.coeffs if c != 0)


@pytest.mark.parametrize("p", GRID_PRIMES)
def test_gate_matches_brute_force_factor_oracle(p):
    for f in GRID_POLYS:
        k = make_field(f)
        if not reducible_mod_p(f, p):
            assert extend(p, k).residue_size == p ** k.degree, (p, f)
            continue
        with pytest.raises(NotAValuationError) as exc:
            extend(p, k)
        x, y = exc.value.counterexample
        assert x != 0 and y != 0 and x * y != 0, (p, f)
        assert _hand_rule(x, p) == 0 and _hand_rule(y, p) == 0, (p, f)
        assert _hand_rule(x * y, p) >= 1, (p, f)
        assert str(exc.value).endswith(
            f"counterexample x = {x!r}, y = {y!r} has "
            f"rule(x*y) != rule(x) + rule(y)")
        if all(sum(c * r ** i for i, c in enumerate(f)) % p
               for r in range(p)):
            # a reducible quartic with no root, such as x^4 + 1 at p = 3:
            # the pair is two monic quadratics
            assert x.coeffs[2:] == y.coeffs[2:] == (1, 0), (p, f)


def test_gate_counterexample_is_the_factor_pair():
    # x^2 - 2 = x * x mod 2 gives (gamma, gamma); x^2 + 1 = (x + 3)(x + 2)
    # mod 5, whose first root is 2
    k = make_field([-2, 0, 1])
    with pytest.raises(NotAValuationError) as exc:
        extend(2, k)
    assert exc.value.counterexample == (k.gamma(), k.gamma())
    k = make_field([1, 0, 1])
    with pytest.raises(NotAValuationError) as exc:
        extend(5, k)
    assert exc.value.counterexample == (k.element([3, 1]), k.element([2, 1]))
