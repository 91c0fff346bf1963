"""Discrete valuations on Q and their coefficientwise extension to Q(gamma).

The p-adic valuation sends p^n * a/b (a, b prime to p) to n, and 0 to +infinity
(represented by math.inf, which orders and adds correctly against ints).

The extension to Q(gamma) takes the minimum of the p-adic valuations of the
power-basis coefficients.  Both run one rule on ints, _val, with an element
read as its numerators over their common denominator and a rational as one
numerator.  The minimum rule is a genuine valuation exactly when the
defining polynomial f stays irreducible modulo p (the extension is then
unramified with residue field of size p^degree); extend() certifies this gate
and refuses otherwise.  A refusal carries a multiplicativity counterexample
built from the factor found mod p (Cohen, GTM 138, section 3.4): if
f = g*h mod p with g, h monic of degree below deg f and coefficients in
0..p-1, then x = g(gamma) and y = h(gamma) have rule value 0, while
x*y = (g*h - f)(gamma) has every coefficient divisible by p and is nonzero
because f is irreducible over Q.  Example of a refusal: p = 2 with
gamma^2 = 2 has val(gamma) = 0 by the rule, yet val(gamma^2) = val(2) = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotAValuationError, UnsupportedError, _written
from .matrices import Immutable
from .numberfield import FieldElement, NumberField, _horner

INF = math.inf


# ---------------------------------------------------------------------------
# primality, factorisation and p-adic valuations of integers and fractions
# ---------------------------------------------------------------------------

# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; False for n < 2 and for n >= _MR_BOUND,
    where these bases no longer certify primality."""
    if n < 2 or n >= _MR_BOUND:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no factor up to 41 and below 43^2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_BOUND = 1000    # trial division by 2 .. 999
_RHO_STEPS = 1 << 22   # Pollard-Brent iterations allowed per cofactor


def _prime_factors(n: int):
    """The distinct prime factors of n, ascending; () for n < 2.

    Trial division below _TRIAL_BOUND leaves parts with no smaller prime
    factor: one below _TRIAL_BOUND^2 is prime, a larger one is certified by
    Miller-Rabin or split by _rho.  A part at or above _MR_BOUND is replaced
    by its square root when it is a perfect square; any other part there
    (a cube of a large prime, say) raises UnsupportedError, so the work
    stays bounded."""
    out = []
    for d in range(2, _TRIAL_BOUND):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    parts, large = [n] if n > 1 else [], set()
    while parts:
        c = parts.pop()
        if c < _TRIAL_BOUND ** 2 or _is_prime(c):
            large.add(c)
        elif c >= _MR_BOUND:
            root = math.isqrt(c)
            if root * root != c:
                size = _written(c, lambda c: f"a {len(str(c))}-digit number")
                raise UnsupportedError(
                    f"cannot factor {size} with no prime factor below "
                    f"{_TRIAL_BOUND}: primality is certified only below "
                    f"{_MR_BOUND}")
            parts.append(root)
        else:
            f = _rho(c)
            parts += [f, c // f]
    return tuple(out) + tuple(sorted(large))


def _rho(n: int) -> int:
    """A proper factor of the composite n by Pollard-Brent rho on
    x -> x^2 + c from x = 2, for c = 1, 2, ... (Brent, BIT 20, 1980), with
    gcds batched over 128 steps; UnsupportedError after _RHO_STEPS steps."""
    steps, c = 0, 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += r + min(k, r)
            if steps > _RHO_STEPS:
                raise UnsupportedError(
                    f"cannot factor {n}: Pollard rho found no factor within "
                    f"{_RHO_STEPS} steps")
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _int_val(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _val(nums, den: int, p: int):
    """v_p of sum_r nums[r] gamma^r / den (ints, den > 0) by the
    coefficientwise minimum: the least v_p of the nonzero numerators minus
    v_p(den), or INF when every numerator is 0.  A rational is the one
    numerator (x.numerator,) over x.denominator."""
    vs = [_int_val(n, p) for n in nums if n]
    if not vs:
        return INF
    return min(vs) - _int_val(den, p)


class PAdicValuation(Immutable):
    """The valuation nu_p on Q; call it on an int or Fraction.

    p must be a prime below _MR_BOUND (about 3.3e24), the range in which
    _is_prime decides primality exactly."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"p must be a prime number, got {p!r}")
        object.__setattr__(self, "p", p)

    @property
    def uniformizer(self) -> int:
        return self.p

    @property
    def residue_size(self) -> int:
        return self.p

    def __call__(self, x):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"expected a rational number, got {type(x).__name__}")
        return _val((x.numerator,), x.denominator, self.p)

    def __repr__(self):
        return f"PAdicValuation(p={self.p})"


# ---------------------------------------------------------------------------
# extension to a number field
# ---------------------------------------------------------------------------
# Polynomials are coefficient tuples, constant term first.

def _divmod_mod_p(f, g, p: int):
    """Quotient and remainder of f by the monic g in F_p[x], as lists with
    entries in 0..p-1; the remainder has deg g entries."""
    rem = [c % p for c in f]
    dg = len(g) - 1
    quot = [0] * (len(rem) - dg)
    for shift in range(len(quot) - 1, -1, -1):
        lead = quot[shift] = rem[shift + dg]
        if lead:
            for i, c in enumerate(g):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
    return quot, rem[:dg]


def _factor_mod_p(f, p: int):
    """A monic factor of f mod p of degree below deg f, or None.

    For deg f <= 4 (the field degrees allowed), f is reducible mod p exactly
    when it has a root or, for a quartic, a quadratic divisor: x - r for the
    first root r in 0..p-1, else the first x^2 + b*x + c in (b, c) order."""
    if len(f) < 3:
        return None
    for r in range(p):
        if _horner(f, r) % p == 0:
            return ((-r) % p, 1)
    if len(f) == 5:
        for b in range(p):
            for c in range(p):
                if not any(_divmod_mod_p(f, (c, b, 1), p)[1]):
                    return (c, b, 1)
    return None


def extend(p: int, field: NumberField) -> "ExtendedValuation":
    """Extend nu_p to Q(gamma), gated on irreducibility of the minimal
    polynomial modulo p."""
    base = PAdicValuation(p)
    g = _factor_mod_p(field.minpoly, p)
    if g is not None:
        h, _ = _divmod_mod_p(field.minpoly, g, p)
        x, y = field.element(g), field.element(h)
        raise NotAValuationError(
            f"defining polynomial is reducible mod {p}, so the "
            f"coefficientwise-minimum rule is not a valuation; counterexample "
            f"x = {x!r}, y = {y!r} has rule(x*y) != rule(x) + rule(y)",
            counterexample=(x, y))
    return ExtendedValuation(base, field)


class ExtendedValuation(Immutable):
    """Certified unramified extension of nu_p to Q(gamma).

    Instances come from extend(); the constructor does not re-run the gate.
    Accepts FieldElement, Fraction or int arguments (rationals are treated as
    constant elements, which agrees with the minimum rule).
    """

    __slots__ = ("base", "field")

    def __init__(self, base: PAdicValuation, field: NumberField):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "field", field)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def uniformizer(self) -> int:
        return self.base.p

    @property
    def residue_degree(self) -> int:
        return self.field.degree

    @property
    def residue_size(self) -> int:
        return self.base.p ** self.field.degree

    def __call__(self, x):
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return self.base(x)
        if not isinstance(x, FieldElement) or x.field != self.field:
            raise TypeError("expected an element of the declared field")
        return _val(x._nums, x._den, self.base.p)

    def __repr__(self):
        return f"ExtendedValuation(p={self.p}, field={self.field!r})"
