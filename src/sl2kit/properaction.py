"""Displacement profiles and bounded enumeration for marked subgroups.

A marked group is a finite list of determinant-1 generators.  The ring they
live in is detected from the entries: s is the lcm of all coefficient
denominators, the relevant primes are the distinct prime factors of s, and
entries must stay inside Z[1/s, gamma].  The displacement profile of an
element is one tree distance per prime (base vertex to its image) together
with the hyperbolic displacement at the archimedean place; the properness
predicate is strict: every coordinate < C.

Everything runs on one private integer kernel over Q(gamma) of degree m,
with Q as m = 1.  An element is the tuple (a_0, b_0, c_0, d_0, a_1, ...,
d_(m-1), D), the matrix sum_r [[a_r, b_r], [c_r, d_r]] gamma^r / D with
D > 0 and gcd 1 over all its ints; over Q that is (a, b, c, d, D).  The
minimal polynomial is monic and integral, so a product is an integer
bilinear form (numberfield._product, the field's _terms lifted to 2x2),
compiled once per field into straight-line int code, and a gcd; word balls
are deduplicated on the normalised tuple.
Determinant 1 and ring membership are checked on the generators, as
products of such elements stay such elements.  For determinant 1 the tree
displacement at p is 2 v_p(D) (Serre, Trees, II.1), read off the ints with
no tree action.  Over Q the hyperbolic displacement is
arccosh(N / (2 D^2)), N = a^2 + b^2 + c^2 + d^2, and hyperbolic._HypBound
decides hyp < C as N < 2 cosh(C) D^2 exactly (float cut points, then
decimal arithmetic at rising precision; 2 cosh C is transcendental for
rational C > 0, so there are no ties).  Over a field it is decided in
floats, as hyperbolic.displacement_hyp decides it on the Matrix, from
complex images read off the tuple: Horner at the root over n_(e,r) / D for
every entry (a rational one has zero higher numerators), which are the
correctly rounded floats of the Fraction coefficients.  Determinant 1 is
proved exactly, so there is no float re-check to fail on large entries, and
a value beyond float range raises UnsupportedError.  A Matrix is built only
for an element that is returned; a 4-bit mask beside each tuple (bit 2i + j
for entry (i, j)) records which entries are FieldElements, so it gets the
entry types a Matrix product would; the mask decides no value.

enumerate_bounded lists, exactly and completely, the elements of the full
arithmetic group SL(2, Z[1/s]) whose profile is < C in every coordinate
(rational case only).  The search space is finite because the tree bound
2 v_p(D) < C caps denominators at D = prod p_k^(ceil(C/2) - 1), and the
hyperbolic bound puts the numerators over D in the 4-ball a11^2 + a12^2 +
a21^2 + a22^2 < 2 cosh(C) D^2.  The determinant is a form of signature
(2, 2), so the search pairs the points of one plane disc whose norms
differ by 4 D^2 (_det_solutions) and applies the exact hyperbolic
predicate once per norm; every denominator divides D, so no candidate
needs a tree test.  The walk's steps, its scan square plus its pairs, are
checked against a budget (parameter, else SL2KIT_ENUM_BUDGET, else 5 * 10^5;
negative is a usage error) before any pair is formed; a C whose 2 cosh C is
beyond float range is over any budget.

word_bfs produces the empirical side: all distinct products of at most
max_len generators and inverses, filtered by the same predicate, so that
properness_check can certify word_bfs as a subset of enumerate_bounded and
report the finite bound.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from fractions import Fraction

from .bttree import tree_context
from .errors import (BudgetExceededError, DetNotOneError, EntryOutsideRingError,
                     UnsupportedError, _written)
from .hyperbolic import (ArchimedeanEmbedding, _HypBound, _hyp_of_images,
                         _hyp_value)
from .matrices import Immutable, Matrix
from .numberfield import FieldElement, NumberField, _normal, _product
from .valuations import _int_val, _prime_factors

DEFAULT_BUDGET = 500_000
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
    """The lcm of the denominators of every (power-basis) coefficient; a
    FieldElement's own denominator is the lcm of its coefficients'."""
    return math.lcm(*(x._den if isinstance(x, FieldElement) else x.denominator
                      for row in g.rows for x in row))


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
            raise DetNotOneError(f"generator {_written(g, repr)} has "
                                 f"determinant {_written(g.det())}")
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


def _check(g: Matrix, ring: Ring) -> int:
    """The denominator of g, once g has determinant 1 and lies in the ring."""
    if g.det() != 1:
        raise DetNotOneError("displacement requires determinant 1")
    for row in g.rows:
        for x in row:
            if isinstance(x, FieldElement) and x.field != ring.field:
                raise EntryOutsideRingError(
                    f"entry {_written(x, repr)} is not in the declared field")
    D = d = _denominator(g)
    for p in ring.primes:
        d //= p ** _int_val(d, p)
    if d != 1:
        raise EntryOutsideRingError(
            f"entry denominator has a prime factor outside "
            f"{{{', '.join(map(str, ring.primes))}}}" if ring.primes
            else "entries must be integral (s = 1)")
    return D


def displacement(g: Matrix, group: MarkedGroup) -> DisplacementProfile:
    """Profile of g acting on the product of the trees and the half-space."""
    trees = _tree_moves(_check(g, group.ring), group.ring.primes)
    field = group.ring.field
    if field is not None:
        group.tree_contexts  # the valuation gate refuses a non-inert prime
        k, _ = _kernel(g, field.degree)
        return DisplacementProfile(trees, _hyp_of_images(
            _kernel_images, k, group.embedding))
    (a, b, c, d, D), _ = _kernel(g, 1)
    N, D2 = a * a + b * b + c * c + d * d, D * D
    return DisplacementProfile(trees, _hyp_value(N, D2), (N, D2))


# ---------------------------------------------------------------------------
# integer kernel
# ---------------------------------------------------------------------------

def _kernel(g: Matrix, m: int):
    """(tuple, mask) of g over a field of degree m (1 for Q), in the layout
    of numberfield._product at n = 2; D = _denominator(g) leaves the gcd 1."""
    D, nums, mask = _denominator(g), [], 0
    for e, x in enumerate(x for row in g.rows for x in row):
        if isinstance(x, FieldElement):
            mask |= 1 << e
            scale = D // x._den
            nums.append([n * scale for n in x._nums])
        else:
            nums.append([x.numerator * (D // x.denominator)] + [0] * (m - 1))
    return tuple([ns[r] for r in range(m) for ns in nums] + [D]), mask


def _matrix(k, mask: int = 0, field: NumberField | None = None) -> Matrix:
    """The Matrix of a kernel tuple (layout: numberfield._product): Fractions,
    except the entries whose mask bit is set, FieldElements of field."""
    D = k[-1]
    e = [Fraction(k[0], D), Fraction(k[1], D), Fraction(k[2], D),
         Fraction(k[3], D)]
    if mask:
        for i in range(4):
            if mask >> i & 1:
                e[i] = _normal(field, k[i:-1:4], D)
    return Matrix(((e[0], e[1]), (e[2], e[3])))


def _tree_moves(D: int, primes):
    """Tree displacement of the base vertex at each prime, 2 v_p(D).

    Serre: d(v0, g v0) = -2 min_ij w(g_ij) for det g = 1, w the
    coefficientwise minimum of v_p.  If p | D, some numerator is a p-unit
    (the gcd is 1), so min w = -v_p(D); else g is integral at p and
    0 = w(det g) >= 2 min w, as w(xy) >= w(x) + w(y)."""
    return tuple(2 * _int_val(D, p) for p in primes)


# ---------------------------------------------------------------------------
# word balls
# ---------------------------------------------------------------------------

_WALK_LIMIT = 10 ** 6  # elements a word ball may walk


def _ball(steps, field: NumberField | None, max_len: int):
    """The BFS layers of the distinct products of at most max_len steps
    over field (None for Q), one {tuple: mask} dict per read in discovery
    order, from {identity: 0}; each mask is the one of the first discovery.
    The walk stops at max_len or at the first empty layer (a finite group).
    Before it builds a layer, it refuses with UnsupportedError when the
    elements walked so far plus the products of the last layer could pass
    _WALK_LIMIT.

    steps is closed under inverses, so x s = y gives x = y s^-1: the
    neighbours of layer k lie in layers k - 1 to k + 1.  So the walk keeps
    only those three, and layer k + 1 is every product of layer k, in
    order, less the keys of layers k - 1 and k."""
    m = field.degree if field else 1
    mul = _product(field, 2)
    ident = (1, 0, 0, 1) + (0,) * (4 * m - 4) + (1,)
    # entry (i, j) of x s is a FieldElement when row i of x or column j of
    # s holds one (a product or sum with one is one)
    cols = []
    for s in steps:
        k, mask = _kernel(s, m)
        c = (mask | mask >> 2) & 3
        cols.append((k, c | c << 2))
    prev, layer = {}, {ident: 0}
    walked = 1
    yield layer
    for length in range(1, max_len + 1):
        bound = walked + len(layer) * len(cols)
        if bound > _WALK_LIMIT:
            raise UnsupportedError(
                f"a word ball of length {length} may walk {bound} elements, "
                f"over the limit of {_WALK_LIMIT}")
        nxt = {}
        add = nxt.setdefault
        for x, r in layer.items():
            rows = (r & 3 and 3) | (r & 12 and 12)
            for k, c in cols:
                add(mul(x, k), rows | c)
        for known in (prev, layer):
            for y in known:
                nxt.pop(y, None)
        if not nxt:
            return
        walked += len(nxt)
        yield nxt
        prev, layer = layer, nxt


def _check_max_len(max_len: int):
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")


def _steps(generators):
    return list(generators) + [g.inverse() for g in generators]


def _steps_field(steps):
    """The field of the FieldElement entries of steps, None if none."""
    fields = {x.field for s in steps for row in s.rows for x in row
              if isinstance(x, FieldElement)}
    if len(fields) > 1:
        raise TypeError("generators over different number fields")
    return fields.pop() if fields else None


def _word_layers(generators, max_len: int):
    """The BFS layers of word_ball, each an iterator that builds a Matrix
    only when it is read."""
    _check_max_len(max_len)
    steps = _steps(generators)
    field = _steps_field(steps)
    for layer in _ball(steps, field, max_len):
        yield (_matrix(k, mask, field) for k, mask in layer.items())


def word_ball(generators, max_len: int):
    """Distinct products of at most max_len generators/inverses, in BFS
    discovery order (deterministic for a fixed generator order), multiplied
    as kernel tuples.  An entry is a FieldElement exactly where the Matrix
    product would make one."""
    return [g for layer in _word_layers(generators, max_len) for g in layer]


def word_bfs(group: MarkedGroup, max_len: int, C: float) -> set:
    """Ball elements whose displacement profile is < C in every coordinate.

    The generators get displacement()'s checks.  Products of determinant-1
    elements of Z[1/s, gamma] are again such elements (gamma^k reduces with
    integer coefficients), so the ball needs no further check.  The ball is
    read one _ball layer at a time and never held whole; a finite group
    stops at its first empty layer, whatever max_len is."""
    _check_max_len(max_len)
    ring = group.ring
    for g in group.generators:
        _check(g, ring)
    field, primes = ring.field, ring.primes
    if field is None:
        bound = _HypBound(C)
    else:
        group.tree_contexts  # the valuation gate refuses a non-inert prime
        emb = group.embedding
    tree_ok = {}
    found = set()
    for layer in _ball(_steps(group.generators), field, max_len):
        for k, mask in layer.items():
            D = k[-1]
            ok = tree_ok.get(D)
            if ok is None:
                ok = tree_ok[D] = all(t < C for t in _tree_moves(D, primes))
            if not ok:
                continue
            if field is None:
                a, b, c, d, D = k
                if bound.below(a * a + b * b + c * c + d * d, D * D):
                    found.add(_matrix(k))
            elif _hyp_of_images(_kernel_images, k, emb) < C:
                found.add(_matrix(k, mask, field))
    return found


def _kernel_images(k, emb: ArchimedeanEmbedding):
    """The four complex entries of a kernel tuple (numberfield._product's
    layout) under emb: emb.image of each entry's numerators over D.  A rational entry has zero higher
    numerators, so Horner gives n / D with a zero imaginary part, the image
    of the Fraction bit for bit."""
    D = k[-1]
    return [emb.image(k[e:-1:4], D) for e in range(4)]


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
    budget = int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET)
                 if budget is None else budget)
    if budget < 0:
        raise ValueError(f"the budget must be nonnegative, got {budget}")
    return budget


def _det_solutions(D2: int, hi: int, budget: int):
    """(N, [(a11, a12, a21, a22), ...]) for each N < hi that integer
    matrices of determinant D2 attain as N = a11^2 + a12^2 + a21^2 + a22^2,
    with all of those matrices, as an iterator.

    u = (a11 + a22, a12 - a21) and v = (a11 - a22, a12 + a21) have |u|^2 -
    |v|^2 = 4 D2 and N = |v|^2 + 2 D2, and each pair with u = v mod 2 is
    one matrix.  So the points of norm k in the disc |u|^2 < hi + 2 D2 pair
    with those of norm k + 4 D2; x^2 + y^2 = x + y mod 2, so within a norm
    x mod 2 fixes the parity class, and both norms hold the same classes
    (an odd norm both, by x <-> y; an even one by its value mod 4).

    The walk takes (2m + 1)^2 + P steps, its scan square |x|, |y| <= m and
    its P pairs; over budget it raises BudgetExceededError, before the scan
    for the square and before any pair for the square plus P."""
    r = hi + 2 * D2
    m = math.isqrt(r - 1)
    square = (2 * m + 1) ** 2
    if square > budget:
        raise BudgetExceededError(
            f"the walk scans a square of {_written(square)} points, over the "
            f"budget of {_written(budget)}")
    disc = defaultdict(lambda: ([], []))  # norm -> points, split by x mod 2
    for x in range(-m, m + 1):
        my = math.isqrt(r - 1 - x * x)
        for y in range(-my, my + 1):
            disc[x * x + y * y][x & 1].append((x, y))
    matched = [(k + 2 * D2, vs, us) for k, vs in disc.items()
               if (us := disc.get(k + 4 * D2))]
    steps = square + sum(len(vs[e]) * len(us[e])
                         for _, vs, us in matched for e in (0, 1))
    if steps > budget:
        raise BudgetExceededError(
            f"the walk takes {_written(steps)} steps (a square of "
            f"{_written(square)} points and {_written(steps - square)} "
            f"pairs), over the budget of {_written(budget)}")
    return ((N, [((u0 + v0) >> 1, (u1 + v1) >> 1, (v1 - u1) >> 1,
                  (u0 - v0) >> 1)
                 for e in (0, 1) for v0, v1 in vs[e] for u0, u1 in us[e]])
            for N, vs, us in matched)


def enumerate_bounded(group: MarkedGroup, C: float,
                      budget: int | None = None) -> EnumerationResult:
    """All of SL(2, Z[1/s]) with displacement profile < C, exactly.

    Candidates are [[a11, a12], [a21, a22]] / D with D = prod p^(ceil(C/2)
    - 1) (the tree bound), so each one moves every tree by less than C.
    The search lists the integer matrices of determinant D^2 by norm N =
    sum a_ij^2 < hi, the float cut above 2 cosh(C) D^2 (_det_solutions,
    which checks the budget), and applies the exact hyperbolic predicate
    once per norm.
    """
    if group.ring.field is not None:
        raise UnsupportedError(
            "exact enumeration supports the rational case only")
    if math.isnan(C):
        raise ValueError("the bound C must be a number, not NaN")
    if not C > 0:
        raise ValueError("the bound C must be positive")
    if C == math.inf:
        raise ValueError("the bound C must be finite")
    budget = _resolve_budget(budget)
    bound = _HypBound(C)
    if bound.cut(1)[1] == math.inf:
        raise BudgetExceededError(
            f"2 cosh C is beyond float range, so the walk scans over 10^308 "
            f"points, over the budget of {_written(budget)}")
    e = max(math.ceil(C / 2) - 1, 0)  # C / 2 is 0 at C = 5e-324
    D = math.prod(group.ring.primes) ** e
    D2 = D * D
    _, hi = bound.cut(D2)
    walk = _det_solutions(D2, hi, budget)  # the budget check, before fr
    m = math.isqrt(hi - 1)  # |a_ij| <= m for N < hi
    fr = [Fraction(n, D) for n in range(-m, m + 1)]
    found = []
    for N, solutions in walk:
        if bound.below(N, D2):
            found.extend(Matrix(((fr[a11 + m], fr[a12 + m]),
                                 (fr[a21 + m], fr[a22 + m])))
                         for a11, a12, a21, a22 in solutions)
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
    _check_max_len(max_len)
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
