"""Upper half-space model and displacement at the archimedean place.

Points are (z, t) with z complex and t > 0; real matrices act on the t-axis
slice exactly as on the upper half-plane, so one set of formulas covers both
the real and complex cases.  A 2x2 complex matrix g of determinant 1 acts by

    D  = |c z + d|^2 + |c|^2 t^2
    z' = ((a z + b) * conj(c z + d) + a * conj(c) * t^2) / D
    t' = t / D

and the distance is arccosh(1 + (|z1 - z2|^2 + (t1 - t2)^2) / (2 t1 t2)).
The displacement of the basepoint (0, 1) under g has the closed form
arccosh((sum of |g_ij|^2) / 2); the halving makes the identity displace by 0,
and the Moebius formulas above serve as the independent oracle in the tests.
displacement_hyp checks its input (2x2, determinant 1 within 1e-9 in
floats); properaction, which proves determinant 1 exactly, reads the same
formula (_hyp_of_images) off its integer kernel, with no float re-check.
Both refuse a value beyond float range with UnsupportedError.

Exact field entries reach this module through an ArchimedeanEmbedding, which
pins down a complex root of the defining polynomial (numpy estimates, Newton
polish, deterministic descending (Re, Im) ordering, the backward error
|f(root)| <= 1e-12 sum_k |c_k| |root|^k for f = sum_k c_k x^k enforced on
values over the largest term: a root that misses it or overflows, or a
coefficient of f or f' beyond float range, is refused with UnsupportedError).

For a rational g = [[a, b], [c, d]] / D the same displacement is
arccosh(N / (2 D^2)) with N = a^2 + b^2 + c^2 + d^2, and _HypBound decides
hyp < C on the ints exactly, as N < 2 cosh(C) D^2 (used by the integer
kernel of properaction).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateInputError, UnsupportedError
from .matrices import Immutable, Matrix
from .numberfield import FieldElement, NumberField, _horner

_ROOT_TOL = 1e-12


def _refine_root(coeffs, z: complex) -> complex:
    """Newton polish of a root estimate; coeffs are ints, constant-first."""
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(80):
        pz = _horner(coeffs, z)
        if abs(pz) < 1e-16:
            break
        dz = _horner(deriv, z)
        if dz == 0:
            break
        step = pz / dz
        z -= step
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
    return z


def _accurate(coeffs, z: complex) -> bool:
    """|f(z)| <= _ROOT_TOL sum_k |c_k| |z|^k, both sides over the largest
    term so that no sum overflows; False when a side is not finite."""
    try:
        terms = [abs(c) * abs(z) ** k for k, c in enumerate(coeffs) if c]
        top = max(terms) or 1.0  # all terms 0: f(z) = 0 too
        lhs = abs(_horner(coeffs, z)) / top
        rhs = _ROOT_TOL * sum(t / top for t in terms)
    except OverflowError:
        return False
    return math.isfinite(lhs + rhs) and lhs <= rhs


class ArchimedeanEmbedding(Immutable):
    """Ring map Q(gamma) -> C given by one chosen root of the minimal
    polynomial; with no field it is just Fraction -> float."""

    __slots__ = ("field", "root_index", "root", "roots")

    def __init__(self, field: NumberField | None = None, root_index: int = 0):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "root_index", root_index)
        if field is None:
            object.__setattr__(self, "roots", ())
            object.__setattr__(self, "root", None)
            return
        coeffs = field.minpoly
        try:  # each step meets the int coefficients with floats
            raw = np.roots(list(reversed(coeffs)))
            refined = [_refine_root(coeffs, complex(r)) for r in raw]
            # irreducible over Q implies squarefree, so roots are simple and
            # the descending (Re, Im) order is unambiguous
            refined.sort(key=lambda z: (z.real, z.imag), reverse=True)
            if not 0 <= root_index < len(refined):
                raise ValueError(
                    f"root_index out of range 0..{len(refined) - 1}")
            root = refined[root_index]
        except OverflowError:
            raise UnsupportedError(
                "the defining polynomial or its derivative has a coefficient "
                "beyond float range; its roots need floats") from None
        if not _accurate(coeffs, root):
            raise UnsupportedError("root refinement failed its tolerance")
        object.__setattr__(self, "roots", tuple(refined))
        object.__setattr__(self, "root", root)

    def __call__(self, x) -> complex:
        if isinstance(x, FieldElement):
            if self.field is None or x.field != self.field:
                if x.is_rational:
                    return complex(x.as_fraction())
                raise ValueError("element does not belong to the embedded field")
            return self.image(x._nums, x._den)
        if isinstance(x, (int, Fraction)):
            return complex(x)
        raise TypeError(f"cannot embed {type(x).__name__}")

    def image(self, nums, den: int) -> complex:
        """The image of sum_r nums[r] gamma^r / den (ints, den > 0): Horner
        at the root over the floats nums[r] / den.  Int true division is
        correctly rounded, as float(Fraction) is, so this is the same float
        computation as on the Fraction coefficients, bit for bit."""
        return _horner([n / den for n in nums], self.root)

    def __repr__(self):
        if self.field is None:
            return "ArchimedeanEmbedding(Q)"
        return (f"ArchimedeanEmbedding({self.field!r}, "
                f"root_index={self.root_index}, root={self.root:.6g})")


def embed_matrix(g: Matrix, emb: ArchimedeanEmbedding | None = None):
    """Entries of g as complex floats, nested row-major tuples."""
    if emb is None:
        emb = ArchimedeanEmbedding()
    return tuple(tuple(emb(x) for x in row) for row in g.rows)


class HPoint(Immutable):
    """A point (z, t) of the upper half-space, t > 0."""

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        t = float(t)
        z = complex(z)
        if not t > 0:
            raise DegenerateInputError(f"height must be positive, got {t}")
        if not (math.isfinite(t) and cmath.isfinite(z)):
            raise DegenerateInputError("point coordinates must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)

    def __repr__(self):
        return f"HPoint(z={self.z:.6g}, t={self.t:.6g})"


BASEPOINT = HPoint(0j, 1.0)


def _complex_entries(g):
    if isinstance(g, Matrix):
        raise TypeError("embed exact matrices first (see embed_matrix)")
    (a, b), (c, d) = g
    return complex(a), complex(b), complex(c), complex(d)


def _check_det_one(a, b, c, d) -> None:
    if abs(a * d - b * c - 1) > 1e-9:
        raise ValueError("matrix must have determinant 1 (within 1e-9)")


def mobius_act(g, p: HPoint) -> HPoint:
    """Action of a determinant-1 complex matrix ((a,b),(c,d)) on (z, t)."""
    a, b, c, d = _complex_entries(g)
    _check_det_one(a, b, c, d)
    cz_d = c * p.z + d
    denom = abs(cz_d) ** 2 + abs(c) ** 2 * p.t ** 2
    z_new = ((a * p.z + b) * cz_d.conjugate() + a * c.conjugate() * p.t ** 2) / denom
    return HPoint(z_new, p.t / denom)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """arccosh(1 + (|z1 - z2|^2 + (t1 - t2)^2) / (2 t1 t2)), evaluated as
    2 arcsinh(r) with r = |(z1, t1) - (z2, t2)| / (2 sqrt(t1 t2)).

    The coordinates are quartered before they are subtracted and r is taken
    in log space past 1e300, so the distance between any two points is
    finite."""
    h = math.hypot(p.z.real / 4 - q.z.real / 4, p.z.imag / 4 - q.z.imag / 4,
                   p.t / 4 - q.t / 4)
    s = math.sqrt(p.t) * math.sqrt(q.t)
    if h < 5e299 * s:
        return 2.0 * math.asinh(2.0 * h / s)
    # arcsinh(r) = log(2 r) + O(r^-2)
    return 2.0 * (math.log(4.0) + math.log(h)) - math.log(p.t) - math.log(q.t)


def displacement_hyp(g: Matrix, emb: ArchimedeanEmbedding | None = None) -> float:
    """Distance the basepoint (0, 1) moves under g: arccosh(sum |g_ij|^2 / 2).

    g must be 2x2 and its embedded entries must have determinant 1 within
    1e-9 in floats, else ValueError.  An embedded entry or sum of squares
    beyond float range raises UnsupportedError rather than OverflowError or
    an infinite distance."""
    if g.n != 2:
        raise ValueError("expected a 2x2 matrix")
    return _hyp_of_images(_matrix_images, g, emb)


def _matrix_images(g: Matrix, emb):
    (a, b), (c, d) = embed_matrix(g, emb)
    _check_det_one(a, b, c, d)
    return a, b, c, d


def _hyp_of_images(images, *args) -> float:
    """arccosh(sum |x|^2 / 2) over the four complex entries images(*args);
    an overflow in images or in the sum raises UnsupportedError."""
    try:
        a, b, c, d = images(*args)
        s = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise UnsupportedError(
            "hyperbolic displacement beyond float range: an embedded entry "
            "or the sum of the squared moduli overflows")
    return math.acosh(max(1.0, s / 2.0))


def _hyp_value(N: int, D2: int) -> float:
    """arccosh(N / (2 D^2)), the hyperbolic displacement of the basepoint,
    from the ints and without leaving float range.

    With ad - bc = D^2, N - 2 D^2 = (a - d)^2 + (b + c)^2 exactly, so
    u = N / (2 D^2) - 1 is computed from ints and arccosh(1 + u) is
    log1p(u + sqrt(u (u + 2))); past 1e150 it is log(2u) to double precision.
    """
    E = N - 2 * D2
    try:
        u = E / (2 * D2)
    except OverflowError:
        u = math.inf
    if u < 1e150:
        return math.log1p(u + math.sqrt(u * (u + 2.0)))
    return math.log(E) - math.log(D2)


_SLACK = 1 << 40  # relative slack 2^-40 on the float value of 2 cosh C


class _HypBound:
    """The strict predicate hyp < C on kernel elements, decided exactly.

    For determinant 1, hyp < C iff N < 2 cosh(C) D^2.  Per D^2, the float
    value of 2 cosh C widened by 2^-40 gives integer cut points lo <= hi:
    N < lo is below the bound and N >= hi is not.  An N in between, or any N
    when 2 cosh C overflows a float, goes to decide().
    """

    def __init__(self, C: float):
        self.C = C
        self._cuts = {}

    def cut(self, D2: int):
        cut = self._cuts.get(D2)
        if cut is None:
            cut = self._cuts[D2] = self._float_cut(D2)
        return cut

    def _float_cut(self, D2: int):
        C = self.C
        if not C > 0:
            return 0, 0  # hyp >= 0: nothing is below
        if C == math.inf:
            return math.inf, math.inf
        try:
            num, den = (2.0 * math.cosh(C)).as_integer_ratio()
        except OverflowError:
            return 0, math.inf
        num *= D2
        den *= _SLACK
        return -(-num * (_SLACK - 1) // den), num * (_SLACK + 1) // den + 1

    def below(self, N: int, D2: int) -> bool:
        lo, hi = self.cut(D2)
        if N < lo:
            return True
        if N >= hi:
            return False
        return self.decide(N, D2)

    def decide(self, N: int, D2: int) -> bool:
        """N < 2 cosh(C) D^2 by decimal arithmetic at rising precision.

        2 cosh C is transcendental for rational C > 0, so N never ties with
        the bound and the loop ends."""
        if N.bit_length() <= self.C:  # N < 2^C < 2 cosh(C) D^2
            return True
        prec = 40
        while True:
            lo, hi = _decimal_cut(self.C, D2, prec)
            if N < lo:
                return True
            if N >= hi:
                return False
            prec *= 2


def _decimal_cut(C: float, D2: int, prec: int):
    """Integer cut points around 2 cosh(C) D^2 at prec decimal digits.

    exp is correctly rounded, so the computed value t is within a relative
    10^(2 - prec) of the true one; the slack 10^(4 - prec) covers that and
    the rounding of t -/+ slack."""
    import decimal
    ctx = decimal.Context(prec=prec, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    x = decimal.Decimal(C)  # the exact binary value of C
    t = ctx.multiply(ctx.add(ctx.exp(x), ctx.exp(x.copy_negate())), D2)
    slack = t.scaleb(4 - prec, ctx)
    lo = ctx.subtract(t, slack).to_integral_value(decimal.ROUND_CEILING)
    hi = ctx.add(t, slack).to_integral_value(decimal.ROUND_FLOOR)
    return int(lo), int(hi) + 1
