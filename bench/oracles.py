"""Independent answer checks for the benchmark.

Nothing here calls the sl2kit code a task times: exact 2x2 products and
inverses, Gaussian-rational arithmetic for Q(i), p-adic valuations on
integers, polynomial arithmetic modulo a minimal polynomial, and digests of
answer sets are all written out directly.  Library objects are only read
(their entries and coefficients), never asked to compute.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


class Mismatch(Exception):
    """A task's output disagrees with its check."""


def require(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def int_val(n: int, p: int) -> float:
    if n == 0:
        return float("inf")
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_val(x, p: int) -> float:
    x = Fraction(x)
    if x == 0:
        return float("inf")
    return int_val(x.numerator, p) - int_val(x.denominator, p)


def min_rule(coeffs, p: int) -> float:
    """Coefficientwise-minimum rule on a power-basis coefficient list."""
    return min(frac_val(c, p) for c in coeffs)


def tree_displacement(entries, p: int) -> float:
    """d(v0, g v0) = -2 min_ij v_p(g_ij) for det g = 1 (Serre, Trees, II.1)."""
    return -2 * min(frac_val(x, p) for x in entries)


# ---------------------------------------------------------------------------
# polynomials over Q modulo a monic minimal polynomial (constant-first)
# ---------------------------------------------------------------------------

def poly_mulmod(a, b, minpoly):
    m = len(minpoly) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for k in range(len(prod) - 1, m - 1, -1):
        top = prod[k]
        if top:
            for i in range(m + 1):
                prod[k - m + i] -= top * minpoly[i]
    return (prod + [Fraction(0)] * m)[:m]


def has_root_mod_p(coeffs, p: int) -> bool:
    return any(sum(c * pow(r, k, p) for k, c in enumerate(coeffs)) % p == 0
               for r in range(p))


def inert(minpoly, p: int) -> bool:
    """Irreducible mod p, for degree 2 or 3 (no root means irreducible)."""
    if len(minpoly) - 1 not in (2, 3):
        raise ValueError("the gate oracle covers degrees 2 and 3 only")
    return not has_root_mod_p(minpoly, p)


# ---------------------------------------------------------------------------
# 2x2 matrices as nested tuples over any exact scalar with + - * /
# ---------------------------------------------------------------------------

def entries(m):
    """Row-major 4-tuple of a sl2kit Matrix or nested tuple."""
    rows = m.rows if hasattr(m, "rows") else m
    return rows[0][0], rows[0][1], rows[1][0], rows[1][1]


def mul2(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det2(x):
    a, b, c, d = x
    return a * d - b * c


def inv2(x):
    a, b, c, d = x
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def neg2(x):
    return tuple(-v for v in x)


# ---------------------------------------------------------------------------
# Gaussian rationals: Q(i) with gamma = i, as (re, im) Fraction pairs
# ---------------------------------------------------------------------------

class GQ:
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x) -> "GQ":
        """From a Fraction, an int, or a Q(i) FieldElement."""
        coeffs = getattr(x, "coeffs", None)
        if coeffs is None:
            return cls(x)
        return cls(coeffs[0], coeffs[1] if len(coeffs) > 1 else 0)

    def __add__(self, o):
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, o):
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return GQ((self.re * o.re + self.im * o.im) / n,
                  (self.im * o.re - self.re * o.im) / n)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)


def gq_entries(m):
    return tuple(GQ.of(x) for x in entries(m))


# ---------------------------------------------------------------------------
# digests of answer sets
# ---------------------------------------------------------------------------

def _scalar_key(x) -> str:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        coeffs = (Fraction(x),)
    return ",".join(f"{c.numerator}/{c.denominator}" for c in coeffs)


def matrix_key(m) -> str:
    return ";".join(_scalar_key(x) for x in entries(m))


def digest(matrices) -> str:
    """sha256 over the sorted exact entries of a set of 2x2 matrices."""
    lines = sorted(matrix_key(m) for m in matrices)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def ball_size(q: int, radius: int) -> int:
    """Vertices within the radius in the (q+1)-regular tree."""
    if radius == 0:
        return 1
    return 1 + (q + 1) * (q ** radius - 1) // (q - 1)
