"""Faithful 4-dimensional representation built from trace functionals.

Each group element g defines the functional h -> tr(gh) on 2x2 matrices.
When four group elements g1..g4 have linearly independent functionals
(equivalently the Gram matrix tr(g_i g_k) is invertible, the trace pairing
being nondegenerate), left translation g.f_h = f_{gh} acts on their span and
its coordinate table is recovered by solving the Gram system

    tr(g g_i g_k) = sum_j P_ij tr(g_j g_k).

The transpose of that table is alpha(g): the row-convention table
composes contravariantly (P(gh) = P(h) P(g)), so the transpose is the side
that satisfies alpha(gh) = alpha(g) alpha(h).  The pairing being
nondegenerate, the system holds for every k exactly when
g g_i = sum_j P_ij g_j, so alpha is the left-regular representation of the
2x2 matrices in the basis g1..g4: column i of alpha(g) holds the
coordinates of g g_i.  The system is linear in g, so TraceBasis finds them
once per matrix unit E_ab, from one inverse of the 4x4 matrix of basis
entries, and alpha(g) is sum g_ab * alpha(E_ab).  The Gram matrix only
reports the basis, which select_basis chooses by linear independence of
the entries.  On a word ball it reads one BFS layer at a time and stops
after the first layer that raises no rank: that layer leaves the span of
the ball closed under every generator, so no later one can raise it, and
the radius-3 ball is the most it ever reads.  Rep4 wraps alpha and caches
nothing.

Over Q the layer runs on integers.  TraceBasis also keeps the four tables
as int numerators over one denominator, so alpha(g) of a rational g costs
one integer dot product and one Fraction per entry; Matrix.charpoly runs
on the numerators of the common-denominator form; and the homomorphism
check of verify_embedding compares rep(ab) with rep(a) rep(b) by
cross-multiplied numerators, without forming the 4x4 Fraction product.
Over Q(gamma) the same formulas run on the entries themselves.

Everything here is exact.  Entry integrality is measured per element with
is_algebraic_integer and reported, never assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DetNotOneError, RankDeficientError, SingularError
from .matrices import Immutable, Matrix, _dot, _int_rows, rank
from .numberfield import FieldElement, is_algebraic_integer

_UNITS = ((0, 0), (0, 1), (1, 0), (1, 1))  # E_00, E_01, E_10, E_11


def integral_characteristic(g: Matrix) -> bool:
    """True when the characteristic polynomial of g has algebraic-integer
    coefficients; for determinant one only the trace needs testing."""
    if g.det() != 1:
        raise DetNotOneError("integral characteristic is defined for "
                             "determinant-one matrices")
    return is_algebraic_integer(g.trace())


class TraceBasis(Immutable):
    """Four group elements whose trace functionals span the dual of the
    2x2 matrix space, their Gram matrix tr(g_i g_k) (reported only), the
    images alpha(E_ab) of the matrix units E_00, E_01, E_10, E_11, and the
    inverse of g_1, which reconstruct() divides by on every sample.

    Linearly dependent elements raise RankDeficientError; independent ones
    have det Gram = -det(V)^2 != 0, V the 4x4 matrix of their entries.  The
    tables are all FieldElements when an element holds one."""

    __slots__ = ("elements", "gram", "tables", "_ints", "_first_inverse")

    def __init__(self, elements):
        elements = tuple(elements)
        if len(elements) != 4:
            raise ValueError("a trace basis has exactly four elements")
        # Column i of alpha(E_ab) holds the coordinates of E_ab g_i in the
        # basis; its row a is row b of g_i and its other row is zero.  With
        # V[2r + s][i] = (g_i)_rs and W = V^-1 that is
        # A_ab[j][i] = W[j][2a] (g_i)_b0 + W[j][2a + 1] (g_i)_b1.
        try:
            w = Matrix(tuple(zip(*(g.rows[0] + g.rows[1]
                                   for g in elements)))).inverse().rows
        except SingularError:
            raise RankDeficientError(
                "Gram matrix must be invertible 4x4") from None
        # a basis with a FieldElement entry makes every entry one
        fields = [x.field for g in elements for row in g.rows for x in row
                  if isinstance(x, FieldElement)]
        zero = fields[0].zero() if fields else 0
        tables = tuple(Matrix(tuple(
            tuple(wj[2 * a] * g.rows[b][0] + wj[2 * a + 1] * g.rows[b][1]
                  + zero for g in elements) for wj in w)) for a, b in _UNITS)
        ints = _int_rows([row for t in tables for row in t.rows])
        if ints is not None:
            # entry (i, j) of A_00, A_01, A_10, A_11 as (w, x, y, z) over den
            den, nums = ints
            ints = den, tuple(tuple(zip(*nums[i::4])) for i in range(4))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "gram", Matrix(tuple(
            tuple((a * b).trace() for b in elements) for a in elements)))
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_first_inverse", elements[0].inverse())

    def __repr__(self):
        return f"TraceBasis({list(self.elements)!r})"


def select_basis(words) -> TraceBasis:
    """Greedily pick the first four stream elements with independent trace
    functionals, that is (the pairing being nondegenerate) the first four
    whose entries each raise the rank of the entries kept before them.

    The stream order decides the result, so feeding a breadth-first word
    ball gives a reproducible basis.  Raises RankDeficient, with the rank
    reached, if the stream ends first; that happens exactly when the
    functionals of the whole stream span a proper subspace (e.g.
    all-diagonal input).
    """
    return _select_layered((words,))


def _select_layered(layers) -> TraceBasis:
    """select_basis over a stream read in layers, which stops after the
    first layer that raises no rank.  On the BFS layers of a word ball that
    loses nothing: with A_k the span of the radius-k ball, A_(k+1) = A_k +
    sum_s A_k s, so a layer that leaves the span unchanged leaves it closed
    under every step.  The rank starts at 1 (the identity), so at most the
    radius-3 ball is read."""
    chosen, rows = [], []
    for layer in layers:
        before = len(chosen)
        for g in layer:
            if not isinstance(g, Matrix) or g.n != 2:
                raise ValueError("stream must yield 2x2 matrices")
            row = g.rows[0] + g.rows[1]
            if rank(rows + [row]) > len(rows):
                chosen.append(g)
                rows.append(row)
                if len(chosen) == 4:
                    return TraceBasis(chosen)
        if len(chosen) == before:
            break
    raise RankDeficientError(
        f"stream exhausted with trace rank {len(chosen)} < 4")


def alpha(g: Matrix, basis: TraceBasis) -> Matrix:
    """4x4 image of g: column i expresses g*g_i in the basis g_1..g_4.

    g_00*A_00 + g_01*A_01 + g_10*A_10 + g_11*A_11 for the unit tables A_ab;
    every entry is a FieldElement when g or the basis holds one.  For
    rational g and tables, each entry is one integer dot product of the
    numerators over the product of the two common denominators."""
    ints = basis._ints
    scaled = ints and _int_rows(g.rows)
    if scaled:
        D, ((a, b), (c, d)) = scaled
        den = D * ints[0]
        return Matrix(tuple(
            tuple(Fraction(a * w + b * x + c * y + d * z, den)
                  for w, x, y, z in row)
            for row in ints[1]))
    (g00, g01), (g10, g11) = g.rows
    return Matrix(tuple(
        tuple(g00 * w + g01 * x + g10 * y + g11 * z
              for w, x, y, z in zip(*rows))
        for rows in zip(*(t.rows for t in basis.tables))))


def reconstruct(m4: Matrix, basis: TraceBasis) -> Matrix:
    """Rebuild the 2x2 element from its 4x4 image.

    Column 0 of the image gives the coordinates of g*g_1 in the basis
    (this is the elementary-matrix probe behind injectivity: the trace
    functional of g*g_1 determines all four of its entries).
    """
    combo = None
    for j, gj in enumerate(basis.elements):
        term = m4[j, 0] * gj
        combo = term if combo is None else combo + term
    return combo * basis._first_inverse


class Rep4:
    """alpha(., basis) as a callable, checked once on the identity."""

    def __init__(self, basis: TraceBasis):
        self.basis = basis
        if not alpha(Matrix.identity(2), basis).is_identity():
            raise ArithmeticError("alpha(identity) must be the identity")

    def __call__(self, g: Matrix) -> Matrix:
        return alpha(g, self.basis)

    def __repr__(self):
        return f"Rep4({self.basis!r})"


def _poly_square(coeffs):
    out = [None] * (2 * len(coeffs) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            t = a * b
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return tuple(out)


def _is_product(m: Matrix, ma: Matrix, mb: Matrix) -> bool:
    """m == ma * mb; for rational matrices by cross-multiplied integer
    numerators, without forming the product."""
    s, sa, sb = _int_rows(m.rows), _int_rows(ma.rows), _int_rows(mb.rows)
    if s is None or sa is None or sb is None:
        return m == ma * mb
    (D, rows), (Da, A), (Db, B) = s, sa, sb
    scale, cols = Da * Db, tuple(zip(*B))
    return all(x * scale == D * _dot(r, col)
               for row, r in zip(rows, A) for x, col in zip(row, cols))


def verify_embedding(rep: Rep4, samples) -> dict:
    """Measure the representation on concrete samples.

    Checks, all exact: homomorphism on consecutive sample pairs, injectivity
    (identity image only for the identity, plus full reconstruction through
    the probe), the characteristic-polynomial square identity, determinant
    one (the constant term of that polynomial), and per-element integrality
    of the 4x4 entries.  Failures are collected in the report, not raised.
    Each sample is mapped once, so n samples take 2n - 1 calls of rep.
    """
    samples = list(samples)
    images = [rep(g) for g in samples]
    failures = []
    pairs = 0
    for a, b, ma, mb in zip(samples, samples[1:], images, images[1:]):
        pairs += 1
        if not _is_product(rep(a * b), ma, mb):
            failures.append(f"homomorphism: {a!r} * {b!r}")
    identity_images = 0
    entry_integrality = []
    for g, m in zip(samples, images):
        if m.is_identity():
            identity_images += 1
            if not g.is_identity():
                failures.append(f"injectivity: nonidentity {g!r} maps to I")
        if reconstruct(m, rep.basis) != g:
            failures.append(f"probe: reconstruction mismatch for {g!r}")
        charpoly = m.charpoly()
        if charpoly != _poly_square(g.charpoly()):
            failures.append(f"characteristic square identity: {g!r}")
        if charpoly[0] != 1:  # det(-m) = det(m) for 4x4
            failures.append(f"determinant: {g!r}")
        entry_integrality.append(
            all(is_algebraic_integer(x) for row in m.rows for x in row))
    return {
        "samples": len(samples),
        "homomorphism_pairs": pairs,
        "identity_images": identity_images,
        "entry_integrality": entry_integrality,
        "all_entries_integral": all(entry_integrality) if samples else True,
        "failures": failures,
        "ok": not failures,
    }
