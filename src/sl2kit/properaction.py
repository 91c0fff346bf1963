"""Displacement profiles and bounded enumeration for marked subgroups.

A marked group is a finite list of determinant-1 generators.  The ring they
live in is detected from the entries: s is the lcm of all coefficient
denominators, the relevant primes are the distinct prime factors of s, and
entries must stay inside Z[1/s, gamma].  The displacement profile of an
element is one tree distance per prime (base vertex to its image) together
with the hyperbolic displacement at the archimedean place; the properness
predicate is strict: every coordinate < C.

Rational groups (no field) run on a private integer kernel.  An element is
a tuple (a, b, c, d, D) of ints, the matrix [[a, b], [c, d]] / D, with D > 0
and gcd(a, b, c, d, D) = 1.  With determinant 1 that normalisation gives the
tree displacement at p in closed form, 2 v_p(D) (Serre, Trees, II.1), and
the hyperbolic one as arccosh(N / (2 D^2)) with N = a^2 + b^2 + c^2 + d^2.
The predicate hyp < C is N < 2 cosh(C) D^2, decided exactly: integer cut
points from a float enclosure of 2 cosh C settle almost every N, and the few
within a relative 2^-40 of the bound are settled by decimal arithmetic at
rising precision (2 cosh C is transcendental for rational C > 0, so there
are no ties).  Products multiply the ints and divide out the gcd, so word
balls are deduplicated on the normalised tuple, and a Matrix is built only
for an element that is returned.  Groups over a number field go through
act/canonicalize/distance and displacement_hyp instead.

enumerate_bounded lists, exactly and completely, the elements of the full
arithmetic group SL(2, Z[1/s]) whose profile is < C in every coordinate
(rational case only).  The search space is finite because the tree bound
caps denominators at D = prod p_k^floor(C/2), and the hyperbolic bound puts
the numerators over D in the 4-ball a11^2 + a12^2 + a21^2 + a22^2 <
2 cosh(C) D^2.  The search walks that ball, solves the fourth entry from
the determinant and applies the exact predicate to the ints.  Before it
starts, the candidate count of the enclosing cube |a_ij| <= D sqrt(2 cosh C)
+ 1 is checked against a budget (parameter, else the SL2KIT_ENUM_BUDGET
environment variable, else 10^7); a cube beyond float range is over any
budget.

word_bfs produces the empirical side: all distinct products of at most
max_len generators and inverses, filtered by the same predicate, so that
properness_check can certify word_bfs as a subset of enumerate_bounded and
report the finite bound.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .bttree import act, base_vertex, distance, tree_context
from .errors import (BudgetExceededError, DetNotOneError, EntryOutsideRingError,
                     UnsupportedError)
from .hyperbolic import ArchimedeanEmbedding, displacement_hyp
from .matrices import Immutable, Matrix, mat
from .numberfield import FieldElement, NumberField
from .valuations import _int_val, _prime_factors

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "SL2KIT_ENUM_BUDGET"


class Ring(Immutable):
    """Z[1/s, gamma], described by s, its prime factors, and the field."""

    __slots__ = ("s", "primes", "field")

    def __init__(self, s: int, primes, field: NumberField | None):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "primes", tuple(primes))
        object.__setattr__(self, "field", field)

    def __repr__(self):
        gen = ", gamma" if self.field is not None else ""
        return f"Ring(Z[1/{self.s}{gen}], primes={list(self.primes)})"


def _entry_denominator(x) -> int:
    if isinstance(x, FieldElement):
        den = 1
        for c in x.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den
    return x.denominator


def ring_detect(generators, field: NumberField | None = None) -> Ring:
    """Smallest Z[1/s, gamma] containing every generator entry."""
    s = 1
    for g in generators:
        for row in g.rows:
            for x in row:
                if isinstance(x, FieldElement) and field is None:
                    raise EntryOutsideRingError(
                        "field elements present but no field was declared")
                d = _entry_denominator(x)
                s = s * d // math.gcd(s, d)
    return Ring(s, _prime_factors(s), field)


class MarkedGroup:
    """Generators plus their detected ring; build via make_group()."""

    def __init__(self, generators, ring: Ring, root_index: int = 0):
        self.generators = tuple(generators)
        self.ring = ring
        self.root_index = root_index
        self._contexts = None
        self._embedding = None

    @property
    def tree_contexts(self):
        if self._contexts is None:
            self._contexts = tuple(tree_context(p, self.ring.field)
                                   for p in self.ring.primes)
        return self._contexts

    @property
    def embedding(self) -> ArchimedeanEmbedding:
        if self._embedding is None:
            self._embedding = ArchimedeanEmbedding(self.ring.field,
                                                   self.root_index)
        return self._embedding

    def __repr__(self):
        return f"MarkedGroup({len(self.generators)} generators, {self.ring!r})"


def make_group(generators, field: NumberField | None = None,
               root_index: int = 0) -> MarkedGroup:
    gens = tuple(generators)
    for g in gens:
        if not isinstance(g, Matrix) or g.n != 2:
            raise ValueError("generators must be 2x2 matrices")
        if g.det() != 1:
            raise DetNotOneError(f"generator {g!r} has determinant {g.det()}")
    return MarkedGroup(gens, ring_detect(gens, field), root_index)


class DisplacementProfile(Immutable):
    """Per-prime tree displacements plus the hyperbolic displacement.

    A rational profile also keeps the exact (N, D^2) of its kernel tuple, so
    less_than() decides hyp < bound exactly, as word_bfs and
    enumerate_bounded do; a field profile compares the float hyp."""

    __slots__ = ("trees", "hyp", "_exact")

    def __init__(self, trees, hyp: float, _exact=None):
        object.__setattr__(self, "trees", tuple(trees))
        object.__setattr__(self, "hyp", float(hyp))
        object.__setattr__(self, "_exact", _exact)

    def less_than(self, bound: float) -> bool:
        if not all(t < bound for t in self.trees):
            return False
        if self._exact is None:
            return self.hyp < bound
        return _HypBound(bound).below(*self._exact)

    def __repr__(self):
        return f"DisplacementProfile(trees={list(self.trees)}, hyp={self.hyp:.6g})"


def _check_entries_in_ring(g: Matrix, ring: Ring):
    for row in g.rows:
        for x in row:
            if isinstance(x, FieldElement):
                if ring.field is None or x.field != ring.field:
                    raise EntryOutsideRingError(
                        f"entry {x!r} is not in the declared field")
            d = _entry_denominator(x)
            for p in ring.primes:
                while d % p == 0:
                    d //= p
            if d != 1:
                raise EntryOutsideRingError(
                    f"entry denominator has a prime factor outside "
                    f"{{{', '.join(map(str, ring.primes))}}}" if ring.primes
                    else "entries must be integral (s = 1)")


def displacement(g: Matrix, group: MarkedGroup) -> DisplacementProfile:
    """Profile of g acting on the product of the trees and the half-space."""
    if g.det() != 1:
        raise DetNotOneError("displacement requires determinant 1")
    _check_entries_in_ring(g, group.ring)
    if group.ring.field is not None:
        trees = []
        for ctx in group.tree_contexts:
            v0 = base_vertex(ctx)
            trees.append(distance(v0, act(g, v0)))
        return DisplacementProfile(trees, displacement_hyp(g, group.embedding))
    a, b, c, d, D = _kernel(g)
    N, D2 = a * a + b * b + c * c + d * d, D * D
    return DisplacementProfile(_tree_moves(D, group.ring.primes),
                               _hyp_value(N, D2), (N, D2))


# ---------------------------------------------------------------------------
# integer kernel (rational case)
# ---------------------------------------------------------------------------
# A rational 2x2 matrix is held as a tuple (a, b, c, d, D): the matrix
# [[a, b], [c, d]] / D with D > 0 and gcd(a, b, c, d, D) = 1, which makes the
# tuple unique.  For determinant 1, ad - bc = D^2, so every entry is integral
# at p exactly when p does not divide D.

def _kernel(g: Matrix):
    """g as (a, b, c, d, D); D is the lcm of the entry denominators, which
    leaves gcd(a, b, c, d, D) = 1."""
    (w, x), (y, z) = g.rows
    D = math.lcm(w.denominator, x.denominator, y.denominator, z.denominator)
    return (w.numerator * (D // w.denominator),
            x.numerator * (D // x.denominator),
            y.numerator * (D // y.denominator),
            z.numerator * (D // z.denominator), D)


def _matrix(k) -> Matrix:
    a, b, c, d, D = k
    return Matrix(((Fraction(a, D), Fraction(b, D)),
                   (Fraction(c, D), Fraction(d, D))))


def _tree_moves(D: int, primes):
    """Tree displacement of the base vertex at each prime, 2 v_p(D).

    Serre's formula d(v0, g v0) = v_p(det g) - 2 min_ij v_p(g_ij) with
    det g = 1: some a_ij is a p-unit when p | D (the gcd is 1), and an
    integral g has an entry prime to p (else p^2 would divide det g)."""
    return tuple(2 * _int_val(D, p) for p in primes)


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


def _kernel_mul(x, y):
    """Product of two kernel tuples, normalised."""
    a, b, c, d, D = x
    e, f, g, h, E = y
    p11, p12 = a * e + b * g, a * f + b * h
    p21, p22, den = c * e + d * g, c * f + d * h, D * E
    if den != 1:
        k = math.gcd(p11, p12, p21, p22, den)
        if k != 1:
            return p11 // k, p12 // k, p21 // k, p22 // k, den // k
    return p11, p12, p21, p22, den


# ---------------------------------------------------------------------------
# word balls
# ---------------------------------------------------------------------------

def _ball(ident, steps, mul, max_len: int):
    """Distinct products of at most max_len steps under mul, in BFS
    discovery order from ident."""
    order = [ident]
    seen = {ident}
    frontier = [ident]
    for _ in range(max_len):
        nxt = []
        for m in frontier:
            for s in steps:
                prod = mul(m, s)
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return order


def _steps(generators):
    return list(generators) + [g.inverse() for g in generators]


def word_ball(generators, max_len: int):
    """Distinct products of at most max_len generators/inverses, in BFS
    discovery order (deterministic for a fixed generator order).  Rational
    2x2 generators are multiplied as kernel tuples."""
    steps = _steps(generators)
    if all(g.n == 2 and not any(isinstance(x, FieldElement)
                                for row in g.rows for x in row)
           for g in steps):
        ball = _ball((1, 0, 0, 1, 1), [_kernel(s) for s in steps],
                     _kernel_mul, max_len)
        return [_matrix(k) for k in ball]
    return _ball(Matrix.identity(2), steps, Matrix.__mul__, max_len)


def word_bfs(group: MarkedGroup, max_len: int, C: float) -> set:
    """Ball elements whose displacement profile is < C in every coordinate."""
    if group.ring.field is not None:
        return {g for g in word_ball(group.generators, max_len)
                if displacement(g, group).less_than(C)}
    steps = [_kernel(s) for s in _steps(group.generators)]
    bound = _HypBound(C)
    primes = group.ring.primes
    tree_ok = {}
    found = set()
    for k in _ball((1, 0, 0, 1, 1), steps, _kernel_mul, max_len):
        a, b, c, d, D = k
        ok = tree_ok.get(D)
        if ok is None:
            ok = tree_ok[D] = all(t < C for t in _tree_moves(D, primes))
        if ok and bound.below(a * a + b * b + c * c + d * d, D * D):
            found.add(_matrix(k))
    return found


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

class EnumerationResult(Immutable):
    __slots__ = ("elements", "C", "complete")

    def __init__(self, elements, C: float, complete: bool):
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "C", float(C))
        object.__setattr__(self, "complete", bool(complete))

    def __repr__(self):
        return (f"EnumerationResult({len(self.elements)} elements, "
                f"C={self.C}, complete={self.complete})")


def _resolve_budget(budget) -> int:
    if budget is not None:
        return int(budget)
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))


def _box_size(primes, C: float):
    """(D, candidates): the common denominator D = prod p^floor(C/2) and the
    size (2B+1)^3 + (2B+1)^2 of the box |a_ij| <= B = D sqrt(2 cosh C) + 1,
    or (None, None) when B is beyond float range (then B > 10^154)."""
    try:
        scale = math.sqrt(2.0 * math.cosh(C))
        D = 1
        for p in primes:  # C < 711 here, so the powers stay small
            D *= p ** int(math.floor(C / 2))
        B = int(D * scale) + 1
    except OverflowError:
        return None, None
    width = 2 * B + 1
    return D, width ** 3 + width ** 2


def _det_solutions(D2: int, hi: int):
    """Integer (a11, a12, a21, a22, N) with a11 a22 - a12 a21 = D2 and
    N = a11^2 + a12^2 + a21^2 + a22^2 < hi: the 4-ball, one coordinate
    solved from the determinant."""
    isqrt = math.isqrt
    m = isqrt(hi - 1)
    for a11 in range(-m, m + 1):
        if a11 == 0:
            continue
        r1 = hi - a11 * a11
        m12 = isqrt(r1 - 1)
        for a12 in range(-m12, m12 + 1):
            r2 = r1 - a12 * a12
            m21 = isqrt(r2 - 1)
            for a21 in range(-m21, m21 + 1):
                num = D2 + a12 * a21
                if num % a11:
                    continue
                a22 = num // a11
                r = r2 - a21 * a21 - a22 * a22
                if r > 0:
                    yield a11, a12, a21, a22, hi - r
    for a12 in range(-m, m + 1):  # a11 = 0 forces a12 a21 = -D2
        if a12 == 0 or D2 % a12:
            continue
        a21 = -(D2 // a12)
        r2 = hi - a12 * a12 - a21 * a21
        if r2 <= 0:
            continue
        m22 = isqrt(r2 - 1)
        for a22 in range(-m22, m22 + 1):
            yield 0, a12, a21, a22, hi - r2 + a22 * a22


def enumerate_bounded(group: MarkedGroup, C: float,
                      budget: int | None = None) -> EnumerationResult:
    """All of SL(2, Z[1/s]) with displacement profile < C, exactly.

    Candidates are [[a11, a12], [a21, a22]] / D with D = prod p^floor(C/2)
    (the tree bound).  The budget is checked against the cube
    |a_ij| <= D*sqrt(2 cosh C) + 1; the search itself runs over the 4-ball
    sum a_ij^2 < 2 cosh(C) D^2 (the hyperbolic bound), solves a22 from the
    determinant, and applies the exact predicate to the integers.
    """
    if group.ring.field is not None:
        raise UnsupportedError(
            "exact enumeration supports the rational case only")
    if not C > 0:
        raise ValueError("the bound C must be positive")
    if C == math.inf:
        raise ValueError("the bound C must be finite")
    budget = _resolve_budget(budget)
    primes = group.ring.primes
    D, candidates = _box_size(primes, C)
    if candidates is None:
        raise BudgetExceededError(
            f"search box holds over 10^462 candidate tuples (beyond float "
            f"range), over the budget of {budget}")
    if candidates > budget:
        raise BudgetExceededError(
            f"search box holds ~{candidates} candidate tuples, over the "
            f"budget of {budget}")
    D2 = D * D
    bound = _HypBound(C)
    lo, hi = bound.cut(D2)
    found = set()
    for a11, a12, a21, a22, N in _det_solutions(D2, hi):
        if N >= lo and not bound.decide(N, D2):
            continue
        k = math.gcd(a11, a12, a21, a22, D)
        if all(t < C for t in _tree_moves(D // k, primes)):
            found.add(_matrix((a11 // k, a12 // k, a21 // k, a22 // k,
                               D // k)))
    return EnumerationResult(found, C, True)


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------

class PropernessReport(Immutable):
    __slots__ = ("contained", "word_count", "enum_count", "certificate",
                 "violations")

    def __init__(self, contained, word_count, enum_count, certificate,
                 violations):
        object.__setattr__(self, "contained", bool(contained))
        object.__setattr__(self, "word_count", int(word_count))
        object.__setattr__(self, "enum_count", int(enum_count))
        object.__setattr__(self, "certificate", str(certificate))
        object.__setattr__(self, "violations", tuple(violations))

    def __repr__(self):
        status = "ok" if self.contained else "VIOLATED"
        return (f"PropernessReport({status}, words={self.word_count}, "
                f"bound={self.enum_count})")


def properness_check(group: MarkedGroup, C: float, max_len: int,
                     budget: int | None = None) -> PropernessReport:
    """Certify word_bfs(C, max_len) as a subset of the exact enumeration."""
    result = enumerate_bounded(group, C, budget)
    words = word_bfs(group, max_len, C)
    violations = sorted(words - result.elements, key=repr)
    return PropernessReport(
        contained=not violations,
        word_count=len(words),
        enum_count=len(result.elements),
        certificate=(f"bounded-displacement set is finite, "
                     f"cardinality {len(result.elements)}"),
        violations=violations)
