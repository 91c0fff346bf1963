"""The tree of lattice classes for SL(2) over Q with a p-adic valuation.

Vertices are homothety classes of rank-2 lattices over the valuation ring O
(denominators prime to p; coefficientwise in the unramified extension case).
Every class has a unique canonical representative spanned by the columns of

    [[p^n, b],
     [0,   1]]

with the offset b reduced modulo p^n * O: for rationals b = m * p^v with
0 <= m < p^(n-v) and m prime to p (so 0 <= b < p^n), and coefficientwise in
the extension case.  The pair (n, b) is the vertex identity used for hashing
and BFS deduplication.

Two classes are adjacent when p*L < M < L for representatives; each vertex
has exactly q+1 neighbours (q the residue field size): the q classes
M*[[p, j],[0, 1]] for residue representatives j, plus M*[[1, 0],[0, p]].
In canonical form these are (n + 1, b + j * p^n) and (n - 1, b), each
offset reduced (Serre, Trees, II.1).
The closed-form distance between u and v is

    val(det g) - 2 * min_ij val(g_ij)    for g = M_u^-1 * M_v,

which equals the graph distance (BFS over the neighbour relation arbitrates
this in the tests).  GL(2) acts by g . v = canonicalize(g * M_v); elements of
SL(2) act as isometries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import SingularError
from .matrices import Immutable, Matrix, mat
from .numberfield import FieldElement, NumberField, _normal
from .valuations import ExtendedValuation, PAdicValuation, _int_val, extend


class TreeContext(Immutable):
    """A prime (or its certified unramified extension) plus scalar helpers."""

    __slots__ = ("valuation", "p", "field", "_reps", "_hash")

    def __init__(self, valuation):
        if not isinstance(valuation, (PAdicValuation, ExtendedValuation)):
            raise TypeError("expected a PAdicValuation or ExtendedValuation")
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "p", valuation.uniformizer)
        field = valuation.field if isinstance(valuation, ExtendedValuation) else None
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_reps", None)
        object.__setattr__(self, "_hash", hash((self.p, field)))

    def residue_reps(self):
        """Representatives of the residue field: 0..p-1, coefficientwise in
        the extension case (p^degree of them)."""
        reps = self._reps
        if reps is None:
            if self.field is None:
                reps = tuple(Fraction(j) for j in range(self.p))
            else:
                m = self.field.degree
                reps = tuple(self.field.element(cs)
                             for cs in itertools.product(range(self.p), repeat=m))
            object.__setattr__(self, "_reps", reps)
        return reps

    def coerce(self, x):
        if self.field is not None:
            if isinstance(x, FieldElement):
                if x.field != self.field:
                    raise ValueError("element from a different field")
                return x
            return self.field.from_rational(x)
        if isinstance(x, FieldElement):
            return x.as_fraction()
        if isinstance(x, int):
            return Fraction(x)
        return x

    def zero(self):
        return self.coerce(0)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TreeContext):
            return NotImplemented
        return (self.p, self.field) == (other.p, other.field)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.field is None:
            return f"TreeContext(p={self.p})"
        return f"TreeContext(p={self.p}, field={self.field!r})"


def tree_context(p: int, field: NumberField | None = None) -> TreeContext:
    """Context for the tree of nu_p, extended to ``field`` when given."""
    if field is None:
        return TreeContext(PAdicValuation(p))
    return TreeContext(extend(p, field))


class TreeVertex(Immutable):
    """Canonical lattice class (n, b), offset reduced; see canonicalize()."""

    __slots__ = ("ctx", "n", "b", "_hash")

    def __init__(self, ctx: TreeContext, n: int, b):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_hash", hash((ctx, n, b)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TreeVertex):
            return NotImplemented
        # equal vertices hash alike, so a hash mismatch settles most pairs
        return (self._hash == other._hash and self.n == other.n
                and self.ctx == other.ctx and self.b == other.b)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TreeVertex(n={self.n}, b={self.b!r})"


def base_vertex(ctx: TreeContext) -> TreeVertex:
    """The class of the standard lattice O^2."""
    return TreeVertex(ctx, 0, ctx.zero())


def matrix_form(v: TreeVertex) -> Matrix:
    """The canonical representative [[p^n, b], [0, 1]]."""
    ctx = v.ctx
    pn = Fraction(ctx.p) ** v.n
    return mat([[ctx.coerce(pn), v.b], [ctx.zero(), ctx.coerce(1)]])


def _reduce_offset(b, n: int, ctx: TreeContext):
    """Canonical representative of b modulo p^n O, on the ints of b: its
    numerator over Q, its power-basis numerators over Q(gamma), with the
    common denominator D = p^e u (u prime to p).  A numerator c gives
    c / D = (c u^-1) / p^e, congruent modulo p^n O to r / p^e with
    r = c u^-1 mod p^(n + e), so one inverse of u serves every
    coefficient and each reduced coefficient lies in [0, p^n).  When
    n + e <= 0 the offset lies in p^-e O, inside p^n O, and reduces to 0.
    The result is a Fraction over Q and a FieldElement over Q(gamma)."""
    p, field = ctx.p, ctx.field
    den = b.denominator if field is None else b._den
    e = _int_val(den, p)
    if n + e <= 0:
        return ctx.zero()
    pe, mod = p ** e, p ** (n + e)
    inv = pow(den // pe, -1, mod)
    if field is None:
        return Fraction(b.numerator * inv % mod, pe)
    return _normal(field, [c * inv % mod for c in b._nums], pe)


def canonicalize(m: Matrix, ctx: TreeContext) -> TreeVertex:
    """Canonical vertex of the lattice spanned by the columns of m.

    Column operations over the valuation ring plus one homothety: take as
    the second column (b, d) the one whose bottom entry d has the least
    valuation.  Clearing the other bottom entry with it (an integral
    multiple) leaves the column (det / d, 0) up to sign, so after scaling by
    1/d the vertex is (n, b / d) with n = v(det) - 2 v(d), offset reduced.
    """
    if m.n != 2:
        raise ValueError("expected a 2x2 matrix")
    a, b, c, d = map(ctx.coerce, (*m.rows[0], *m.rows[1]))
    det = a * d - b * c
    if det == 0:
        raise SingularError("columns do not span a lattice")
    vd, vc = ctx.valuation(d), ctx.valuation(c)
    if vd > vc:
        b, d, vd = a, c, vc
    n = ctx.valuation(det) - 2 * vd
    return TreeVertex(ctx, n, _reduce_offset(b / d, n, ctx))


def _check_same_tree(u: TreeVertex, v: TreeVertex):
    if u.ctx != v.ctx:
        raise ValueError("vertices belong to different trees")


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Graph distance, by the valuation formula on g = M_u^-1 * M_v.

    For canonical forms g is upper triangular with diagonal (p^(v.n - u.n), 1)
    and corner (v.b - u.b) / p^u.n, so the formula
    val(det g) - 2 * min_ij val(g_ij) evaluates without building matrices.
    """
    _check_same_tree(u, v)
    dn = v.n - u.n
    dv = u.ctx.valuation(v.b - u.b)  # INF when the offsets agree
    return dn - 2 * min(dn, dv - u.n, 0)


def vertices_equal(u: TreeVertex, v: TreeVertex) -> bool:
    """True iff u and v are the same lattice class (distance zero)."""
    return distance(u, v) == 0


def act(g: Matrix, v: TreeVertex) -> TreeVertex:
    """The class of g * M_v; any invertible g acts, SL(2) isometrically."""
    return canonicalize(g * matrix_form(v), v.ctx)


def neighbors(v: TreeVertex) -> set:
    """The q+1 adjacent classes: (n + 1, b + j * p^n) for the residue
    representatives j, and (n - 1, b), offsets reduced."""
    ctx, n, b = v.ctx, v.n, v.b
    pn = Fraction(ctx.p) ** n
    out = {TreeVertex(ctx, n + 1, _reduce_offset(b + j * pn, n + 1, ctx))
           for j in ctx.residue_reps()}
    out.add(TreeVertex(ctx, n - 1, _reduce_offset(b, n - 1, ctx)))
    return out


def ball(v: TreeVertex, radius: int) -> set:
    """All vertices within the given graph distance of v, via BFS."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
