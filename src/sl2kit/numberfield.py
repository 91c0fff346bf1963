"""Exact arithmetic in small number fields Q(gamma).

A field is declared by a monic integer polynomial of degree 1..4 that is
irreducible over Q; ``gamma`` denotes a root.  An element c_0 + c_1*gamma
+ ... in the power basis is stored as the int numerators (n_0, ..., n_{m-1})
of its coefficients over one denominator D > 0, with gcd 1 over all of
them, so c_r = n_r / D and equal elements have equal ints; an element
stores only these ints, and the coefficients as Fractions (``coeffs``) are
built on each read.  Every operation is
exact and runs on ints: a product is the field's table of integer structure
constants (NumberField._terms) on the numerators over the product of the
denominators, compiled as the 1 x 1 case of _product, an inverse solves the
m x m system of that table fraction-free (matrices._eliminate), and each
result is divided by one gcd.
Irreducibility for these degrees is decided by the rational-root test plus,
for quartics, an exhaustive search for integer quadratic factors (Gauss's
lemma makes that complete for monic integer polynomials).

Plain rationals interoperate: FieldElement arithmetic accepts int and
Fraction operands, and an element whose higher coefficients vanish compares
and hashes equal to the corresponding Fraction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from .errors import NotMonicError, ReducibleError
from .matrices import Immutable, _eliminate

MAX_DEGREE = 4


def _divisors(n: int):
    """The positive divisors of n != 0, ascending, from its prime factors;
    UnsupportedError when they cannot be certified."""
    from .valuations import _int_val, _prime_factors  # it imports this module
    divs = [1]
    for p in _prime_factors(abs(n)):
        divs = [d * p ** e for d in divs for e in range(_int_val(n, p) + 1)]
    return sorted(divs)


def _horner(coeffs, x):
    """The polynomial with constant-first coefficients coeffs at x, in the
    type the arithmetic gives (int at an int, complex at a complex)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _reducible_witness(coeffs):
    """A monic factor of the polynomial (constant-first), or None.

    Checks integer roots first (any rational root of a monic integer
    polynomial is an integer dividing the constant term), then for quartics
    searches integer quadratic factors x^2 + px + q directly.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return None
    c0 = coeffs[0]
    if c0 == 0:
        return (0, 1)  # the factor x
    for d in _divisors(c0):
        for r in (d, -d):
            if _horner(coeffs, r) == 0:
                return (-r, 1)
    if deg == 4:
        a0, a1, a2, a3 = coeffs[0], coeffs[1], coeffs[2], coeffs[3]
        for d in _divisors(a0):
            for q in (d, -d):
                s = a0 // q  # q divides a0
                # x^4+a3x^3+a2x^2+a1x+a0 = (x^2+px+q)(x^2+rx+s)
                # requires p+r = a3 and p*r = a2-q-s: p, r = (a3 +- t) / 2
                # with t^2 = a3^2 - 4(a2-q-s), so only p*s+q*r = a1 is left
                disc = a3 * a3 - 4 * (a2 - q - s)
                if disc < 0:
                    continue
                t = isqrt(disc)
                if t * t != disc or (a3 + t) % 2:
                    continue
                for p in ((a3 + t) // 2, (a3 - t) // 2):
                    r = a3 - p
                    if p * s + q * r == a1:
                        return (q, p, 1)
    return None


def make_field(minpoly) -> "NumberField":
    """Declare Q(gamma) from monic integer coefficients, constant term first."""
    coeffs = tuple(minpoly)
    if not coeffs or not all(isinstance(c, int) and not isinstance(c, bool)
                             for c in coeffs):
        raise NotMonicError("coefficients must be integers, constant term first")
    if coeffs[-1] != 1:
        raise NotMonicError("defining polynomial must be monic")
    deg = len(coeffs) - 1
    if not 1 <= deg <= MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {MAX_DEGREE}, got {deg}")
    witness = _reducible_witness(coeffs)
    if witness is not None:
        raise ReducibleError(
            f"polynomial {_poly_str(coeffs)} factors over Q; "
            f"one factor is {_poly_str(witness)}",
            witness=witness)
    return NumberField(coeffs)


def _poly_str(coeffs) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append(f"{c}*x" if c != 1 else "x")
        else:
            parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
    return " + ".join(parts) if parts else "0"


class NumberField(Immutable):
    """Q(gamma) for gamma a root of a certified-irreducible monic polynomial.

    Use make_field() rather than the constructor; the constructor trusts its
    input.  Fields compare and hash by their defining polynomial.  A term
    (r, s, t, w) of _terms (int w != 0, sorted by s, t, r) adds w x_s y_t
    to coefficient r of x * y (Cohen, GTM 138, 4.2).
    """

    __slots__ = ("minpoly", "_terms", "_mul")

    def __init__(self, minpoly):
        object.__setattr__(self, "minpoly", tuple(int(c) for c in minpoly))
        m = self.degree
        # gamma^k for k = 0 .. 2m-2 (all a product needs) as int lists:
        # gamma^(k+1) is gamma^k shifted up one place, minus its top
        # coefficient times c_0 .. c_(m-1)
        powers = [[int(i == k) for i in range(m)] for k in range(m)]
        while len(powers) < 2 * m - 1:
            cur = powers[-1]
            powers.append([lo - cur[-1] * c
                           for lo, c in zip([0] + cur[:-1], self.minpoly)])
        object.__setattr__(self, "_terms", tuple(
            (r, s, t, w) for s in range(m) for t in range(m)
            for r, w in enumerate(powers[s + t]) if w))
        object.__setattr__(self, "_mul", None)  # _product(self, 1), lazily

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def element(self, coeffs) -> "FieldElement":
        """Element from rational coefficients; short tuples are zero-padded."""
        cs = [c if type(c) is int or type(c) is Fraction else Fraction(c)
              for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("too many coefficients for this field")
        # each Fraction is reduced, so over the lcm of the denominators the
        # numerators have gcd 1 with it
        den = lcm(*[c.denominator for c in cs])
        return FieldElement(self, tuple(
            [c.numerator * (den // c.denominator) for c in cs]
            + [0] * (self.degree - len(cs))), den)

    def from_rational(self, q) -> "FieldElement":
        q = q if type(q) is int else Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def gamma(self) -> "FieldElement":
        if self.degree == 1:
            return self.from_rational(-self.minpoly[0])
        return self.element((0, 1))

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({_poly_str(self.minpoly)})"


_PRODUCTS = {}


def _product(field: NumberField | None, n: int):
    """The normalised product of two n x n matrices over field (None for Q),
    compiled once per (field, n) into straight-line int code.  Over degree
    m (1 for Q) a matrix is n^2 m int numerators, then one denominator
    D > 0, gcd 1 over all: index n^2 r + n i + j holds D times the gamma^r
    coefficient of entry (i, j); n = 1 is a FieldElement's _nums, _den.
    Each term (r, s, t, w) of _terms adds w x[n^2 s + n i + k] y[n^2 t +
    n k + j] to numerator n^2 r + n i + j of x y for each k < n."""
    mul = _PRODUCTS.get((field, n))
    if mul is None:
        nn = n * n
        table = [[] for _ in range(nn * (field.degree if field else 1))]
        for r, s, t, w in field._terms if field else ((0, 0, 0, 1),):
            for i, j, k in product(range(n), repeat=3):
                table[nn * r + n * i + j].append(
                    (w, nn * s + n * i + k, nn * t + n * k + j))
        idx = range(len(table))
        out = ", ".join(f"o{i}" for i in idx)
        src = [
            "def mul(x, y):",
            f"    {', '.join(f'x{i}' for i in idx)}, X = x",
            f"    {', '.join(f'y{i}' for i in idx)}, Y = y",
            *(f"    o{i} = " + " + ".join(
                f"{'' if w == 1 else f'{w} * '}x{p} * y{q}"
                for w, p, q in table[i]) for i in idx),
            "    den = X * Y",
            "    if den != 1:",
            f"        k = gcd({out}, den)",
            "        if k != 1:",
            "            return "
            f"{', '.join(f'o{i} // k' for i in idx)}, den // k",
            f"    return {out}, den"]
        namespace = {"gcd": gcd}
        exec("\n".join(src), namespace)
        mul = _PRODUCTS[field, n] = namespace["mul"]
    return mul


def _normal(field: NumberField, nums, den: int) -> "FieldElement":
    """The element sum_r nums[r] gamma^r / den for ints over den > 0,
    divided by the gcd of them all."""
    if den != 1:
        g = gcd(*nums, den)
        if g != 1:
            return FieldElement(field, tuple([n // g for n in nums]), den // g)
    return FieldElement(field, tuple(nums), den)


_HASH_MODULUS = sys.hash_info.modulus


def _signed_hash(n: int, h: int) -> int:
    """The hash of a rational with numerator n whose absolute value hashes
    to h; -1 is reserved for errors, so it becomes -2."""
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


class FieldElement(Immutable):
    """sum_r nums[r] gamma^r / den, stored as the int numerators _nums over
    one denominator _den > 0 with gcd 1, so that equal elements have equal
    (_nums, _den).  The constructor trusts that form; build elements with
    NumberField.element() or from_rational()."""

    __slots__ = ("field", "_nums", "_den")

    def __init__(self, field: NumberField, nums, den: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions, built on each read."""
        den = self._den
        return tuple([Fraction(n, den) for n in self._nums])

    # -- coercion ---------------------------------------------------------

    def _lift(self, other):
        """Bring ``other`` into this field, or return None if impossible."""
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            if other.is_rational:
                return FieldElement(self.field, other._nums[:1]
                                    + (0,) * (self.field.degree - 1),
                                    other._den)
            return None
        if isinstance(other, bool) or isinstance(other, float):
            return None
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    @property
    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._nums[0], self._den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, da, b, db = self._nums, self._den, o._nums, o._den
        if da == db:
            return _normal(self.field, [x + y for x, y in zip(a, b)], da)
        return _normal(self.field, [x * db + y * da for x, y in zip(a, b)],
                       da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, da, b, db = self._nums, self._den, o._nums, o._den
        if da == db:
            return _normal(self.field, [x - y for x, y in zip(a, b)], da)
        return _normal(self.field, [x * db - y * da for x, y in zip(a, b)],
                       da * db)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return FieldElement(self.field, tuple([-a for a in self._nums]),
                            self._den)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        field = self.field
        mul = field._mul
        if mul is None:
            mul = _product(field, 1)
            object.__setattr__(field, "_mul", mul)
        k = mul(self._nums + (self._den,), o._nums + (o._den,))
        return FieldElement(field, k[:-1], k[-1])

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("division by zero in number field")
        a, m = self._nums, self.field.degree
        # row r, column t: the gamma^r coefficient of a * gamma^t for the
        # int element a = self * den, with e_0 appended; then a^-1 = z / d
        # and self^-1 = den * z / d
        rows = [[0] * m + [int(r == 0)] for r in range(m)]
        for r, s, t, w in self.field._terms:
            rows[r][t] += w * a[s]
        d = _eliminate(rows, m)[1]
        den = self._den if d > 0 else -self._den
        return _normal(self.field, [den * row[m] for row in rows], abs(d))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons ------------------------------------------------------

    def __bool__(self):
        return any(self._nums)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return self._den == other._den and self._nums == other._nums
            if self.is_rational and other.is_rational:
                return (self._den == other._den
                        and self._nums[0] == other._nums[0])
            return False
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return (self.is_rational and self._den == other.denominator
                    and self._nums[0] == other.numerator)
        return NotImplemented

    def __hash__(self):
        # hash((minpoly, coeffs)), with each hash(Fraction(n, den)) read off
        # the ints: the hash of a rational depends only on its value, and is
        # n * den^-1 modulo the hash modulus unless the modulus divides den.
        # Rational-valued elements hash like their Fraction so mixed-type
        # matrices stay hash-consistent with their Fraction twins.
        nums, den = self._nums, self._den
        if den % _HASH_MODULUS:
            inv = pow(den, -1, _HASH_MODULUS)
            hashes = [_signed_hash(n, abs(n) * inv % _HASH_MODULUS)
                      for n in nums]
        else:
            hashes = [hash(c) for c in self.coeffs]
        if self.is_rational:
            return hashes[0]
        # an int in (-modulus, modulus) other than -1 hashes to itself
        return hash((self.field.minpoly, tuple(hashes)))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*g")
            else:
                terms.append(f"{c}*g^{k}")
        return " + ".join(terms) if terms else "0"


def minimal_polynomial(x) -> tuple:
    """Monic minimal polynomial of x over Q, coefficients constant-first.

    One elimination on the m x (m + 1) int matrix whose column k holds the
    numerators of x^k, that is D_k x^k for its denominator D_k.  The first
    column k without a pivot is the first power in the span of those
    before it, so k is the degree, which divides m, and that column, z,
    reduced with last pivot d, gives x^k = sum_r (z_r D_r / (d D_k)) x^r.
    """
    if isinstance(x, bool):
        raise TypeError("exact scalars only")
    if isinstance(x, (int, Fraction)):
        return (Fraction(-x), Fraction(1))
    m = x.field.degree
    powers = [x.field.one()]
    for _ in range(m):
        powers.append(powers[-1] * x)
    rows = [[y._nums[i] for y in powers] for i in range(m)]
    pivots, d, _ = _eliminate(rows, m + 1)
    k = len(pivots)  # the pivots are the columns 0, ..., k - 1
    dk = d * powers[k]._den
    return tuple(Fraction(-rows[r][k] * powers[r]._den, dk)
                 for r in range(k)) + (Fraction(1),)


def is_algebraic_integer(x) -> bool:
    """True iff the minimal polynomial of x has integer coefficients; an int n
    has X - n."""
    if type(x) is int:
        return True
    return all(c.denominator == 1 for c in minimal_polynomial(x))
