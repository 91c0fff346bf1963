"""Displacement profiles and bounded enumeration for marked subgroups.

A marked group is a finite list of determinant-1 generators.  The ring they
live in is detected from the entries: s is the lcm of all coefficient
denominators, the relevant primes are the distinct prime factors of s, and
entries must stay inside Z[1/s, gamma].  The displacement profile of an
element is one tree distance per prime (base vertex to its image) together
with the hyperbolic displacement at the archimedean place; the properness
predicate is strict: every coordinate < C.

Both cases run on a private integer kernel.  Over Q(gamma) of degree m an
element is the tuple (a_0, b_0, c_0, d_0, a_1, ..., d_(m-1), D), the matrix
sum_r [[a_r, b_r], [c_r, d_r]] gamma^r / D with D > 0 and gcd 1 over all
its ints; m = 1 is the rational (a, b, c, d, D).  The minimal polynomial is
monic and integral, so a product is an integer bilinear form (_mul_table)
and a gcd, and word balls are deduplicated on the normalised tuple.  For
determinant 1 the tree displacement at p is 2 v_p(D) (Serre, Trees, II.1),
read off the ints with no tree action.  A rational element's hyperbolic
displacement is arccosh(N / (2 D^2)), N = a^2 + b^2 + c^2 + d^2, and
hyperbolic._HypBound decides hyp < C as N < 2 cosh(C) D^2 exactly (float
cut points, then decimal arithmetic at rising precision; 2 cosh C is
transcendental for rational C > 0, so there are no ties).  Over a field,
displacement_hyp of the Matrix decides it in floats.  A Matrix is built only
for an element that is returned or needs displacement_hyp; a 4-bit mask
beside each field tuple (bit 2i + j for entry (i, j)) records which entries
are FieldElements, so it gets the entry types a Matrix product would.

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
from itertools import product

from .bttree import tree_context
from .errors import (BudgetExceededError, DetNotOneError, EntryOutsideRingError,
                     UnsupportedError)
from .hyperbolic import (ArchimedeanEmbedding, _HypBound, _hyp_value,
                         displacement_hyp)
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


def _denominator(g: Matrix) -> int:
    """The lcm of the denominators of every (power-basis) coefficient."""
    return math.lcm(*(c.denominator for row in g.rows for x in row for c in
                      (x.coeffs if isinstance(x, FieldElement) else (x,))))


def ring_detect(generators, field: NumberField | None = None) -> Ring:
    """Smallest Z[1/s, gamma] containing every generator entry."""
    s = 1
    for g in generators:
        if field is None and any(isinstance(x, FieldElement)
                                 for row in g.rows for x in row):
            raise EntryOutsideRingError(
                "field elements present but no field was declared")
        s = math.lcm(s, _denominator(g))
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


def _check_entries_in_ring(g: Matrix, ring: Ring) -> int:
    """The denominator of g, once g is known to lie in the ring."""
    for row in g.rows:
        for x in row:
            if isinstance(x, FieldElement) and x.field != ring.field:
                raise EntryOutsideRingError(
                    f"entry {x!r} is not in the declared field")
    D = _denominator(g)
    _check_denominator(D, ring)
    return D


def _check_denominator(d: int, ring: Ring):
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
    D = _check_entries_in_ring(g, group.ring)
    if group.ring.field is not None:
        group.tree_contexts  # the valuation gate refuses a non-inert prime
        return DisplacementProfile(_tree_moves(D, group.ring.primes),
                                   displacement_hyp(g, group.embedding))
    a, b, c, d, D = _kernel(g)
    N, D2 = a * a + b * b + c * c + d * d, D * D
    return DisplacementProfile(_tree_moves(D, group.ring.primes),
                               _hyp_value(N, D2), (N, D2))


# ---------------------------------------------------------------------------
# integer kernel
# ---------------------------------------------------------------------------

def _kernel(g: Matrix):
    """Rational g as (a, b, c, d, D)."""
    return _field_kernel(g, 1)[0]


def _matrix(k) -> Matrix:
    a, b, c, d, D = k
    return Matrix(((Fraction(a, D), Fraction(b, D)),
                   (Fraction(c, D), Fraction(d, D))))


def _tree_moves(D: int, primes):
    """Tree displacement of the base vertex at each prime, 2 v_p(D).

    Serre: d(v0, g v0) = -2 min_ij w(g_ij) for det g = 1, w the
    coefficientwise minimum of v_p.  If p | D, some numerator is a p-unit
    (the gcd is 1), so min w = -v_p(D); else g is integral at p and
    0 = w(det g) >= 2 min w, as w(xy) >= w(x) + w(y)."""
    return tuple(2 * _int_val(D, p) for p in primes)


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


def _field_kernel(g: Matrix, m: int):
    """(tuple, mask) of g over a field of degree m; D = _denominator(g)
    leaves the gcd 1."""
    D, coeffs, mask = _denominator(g), [], 0
    for e, x in enumerate(x for row in g.rows for x in row):
        if isinstance(x, FieldElement):
            mask |= 1 << e
            coeffs.append(x.coeffs)
        else:
            coeffs.append((x,) + (0,) * (m - 1))
    return tuple([cs[r].numerator * (D // cs[r].denominator)
                  for r in range(m) for cs in coeffs] + [D]), mask


def _field_matrix(k, mask: int, field: NumberField) -> Matrix:
    D = k[-1]
    e = [FieldElement(field, tuple([Fraction(c, D) for c in k[i:-1:4]]))
         if mask >> i & 1 else Fraction(k[i], D) for i in range(4)]
    return Matrix(((e[0], e[1]), (e[2], e[3])))


def _mul_table(field: NumberField):
    """Numerator 4r + 2i + j of a product x y (the gamma^r coefficient of
    entry (i, j)) is the sum of w * x[p] * y[q] over its (w, p, q)."""
    m = field.degree
    table = [[] for _ in range(4 * m)]
    for s, t, i, j, k in product(range(m), range(m), *[(0, 1)] * 3):
        for r, w in enumerate(field._powers[s + t]):
            if w:
                table[4 * r + 2 * i + j].append(
                    (int(w), 4 * s + 2 * i + k, 4 * t + 2 * k + j))
    return table


def _field_mul(x, y, table):
    """Product of two field-kernel tuples, normalised.

    Tuples here are built from lists: tuple(genexpr) shrinks an
    over-allocated tuple, and the shrunk ones pile up in CPython's
    per-size free lists (about 0.5 MiB after a few Q(i) word_bfs calls)."""
    out = [sum(w * x[p] * y[q] for w, p, q in terms) for terms in table]
    out.append(x[-1] * y[-1])
    k = math.gcd(*out)
    return tuple([v // k for v in out] if k != 1 else out)


def _adjugate(k):
    """[[d, -b], [-c, a]] of a field-kernel tuple: k times it is det k."""
    return tuple([v for r in range(0, len(k) - 1, 4)
                  for v in (k[r + 3], -k[r + 1], -k[r + 2], k[r])] + [k[-1]])


def _field_ball(steps, field: NumberField, max_len: int):
    """The word ball over the field as tuples in BFS discovery order, and
    the mask of each at its first discovery."""
    table = _mul_table(field)
    ident, _ = _field_kernel(Matrix.identity(2), field.degree)
    masks = {ident: 0}

    def mul(x, step):
        k, smask = step
        prod = _field_mul(x, k, table)
        if prod not in masks:
            # entry (i, j) of x s is a FieldElement when row i of x or
            # column j of s holds one (a product or sum with one is one)
            r, c = masks[x], (smask | smask >> 2) & 3
            masks[prod] = (r & 3 and 3) | (r & 12 and 12) | c | c << 2
        return prod

    return _ball(ident, [_field_kernel(s, field.degree) for s in steps],
                 mul, max_len), masks


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


def _steps_field(steps):
    """The field of the FieldElement entries of steps, None if none."""
    fields = {x.field for s in steps for row in s.rows for x in row
              if isinstance(x, FieldElement)}
    if len(fields) > 1:
        raise TypeError("generators over different number fields")
    return fields.pop() if fields else None


def word_ball(generators, max_len: int):
    """Distinct products of at most max_len generators/inverses, in BFS
    discovery order (deterministic for a fixed generator order), multiplied
    as kernel tuples.  An entry is a FieldElement exactly where the Matrix
    product would make one."""
    steps = _steps(generators)
    field = _steps_field(steps)
    if field is None:
        ball = _ball((1, 0, 0, 1, 1), [_kernel(s) for s in steps],
                     _kernel_mul, max_len)
        return [_matrix(k) for k in ball]
    ball, masks = _field_ball(steps, field, max_len)
    return [_field_matrix(k, masks[k], field) for k in ball]


def word_bfs(group: MarkedGroup, max_len: int, C: float) -> set:
    """Ball elements whose displacement profile is < C in every coordinate.
    Over a field each element gets displacement()'s checks, on the ints."""
    steps = _steps(group.generators)
    primes = group.ring.primes
    tree_ok = {}
    found = set()
    field = group.ring.field
    if field is not None:
        if _steps_field(steps) not in (None, field):
            raise EntryOutsideRingError(
                "generator entries are not in the declared field")
        group.tree_contexts  # the valuation gate refuses a non-inert prime
        emb = group.embedding
        table = _mul_table(field)
        ball, masks = _field_ball(steps, field, max_len)
        for k in ball:  # ball[0] is the identity
            if _field_mul(k, _adjugate(k), table) != ball[0]:
                raise DetNotOneError("displacement requires determinant 1")
            D = k[-1]
            ok = tree_ok.get(D)
            if ok is None:
                _check_denominator(D, group.ring)
                ok = tree_ok[D] = all(t < C for t in _tree_moves(D, primes))
            if ok:
                g = _field_matrix(k, masks[k], field)
                if displacement_hyp(g, emb) < C:
                    found.add(g)
        return found
    bound = _HypBound(C)
    for k in _ball((1, 0, 0, 1, 1), [_kernel(s) for s in steps], _kernel_mul,
                   max_len):
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
