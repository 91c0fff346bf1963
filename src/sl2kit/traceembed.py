"""Faithful 4-dimensional representation built from trace functionals.

Each group element g defines the functional h -> tr(gh) on 2x2 matrices.
When four group elements g1..g4 have linearly independent functionals
(equivalently the Gram matrix tr(g_i g_k) is invertible, the trace pairing
being nondegenerate), left translation g.f_h = f_{gh} acts on their span and
its coordinate table is recovered by solving the Gram system

    tr(g g_i g_k) = sum_j P_ij tr(g_j g_k).

The transpose of that table is alpha(g): the row-convention table
composes contravariantly (P(gh) = P(h) P(g)), so the transpose is the side
that satisfies alpha(gh) = alpha(g) alpha(h).  The system is linear in g,
so alpha is the left-regular representation of the 2x2 matrices in the
basis g1..g4: TraceBasis solves it once per matrix unit E_ab, and alpha(g)
is sum g_ab * alpha(E_ab).  Rep4 wraps alpha and caches nothing.

Everything here is exact.  Entry integrality is measured per element with
is_algebraic_integer and reported, never assumed.
"""

from __future__ import annotations

from .errors import DetNotOneError, RankDeficientError
from .matrices import Immutable, Matrix, mat, rank
from .numberfield import is_algebraic_integer


def integral_characteristic(g: Matrix) -> bool:
    """True when the characteristic polynomial of g has algebraic-integer
    coefficients; for determinant one only the trace needs testing."""
    if g.det() != 1:
        raise DetNotOneError("integral characteristic is defined for "
                             "determinant-one matrices")
    return is_algebraic_integer(g.trace())


class TraceBasis(Immutable):
    """Four group elements whose trace functionals span the dual of the
    2x2 matrix space, their Gram matrix, and the images alpha(E_ab) of the
    matrix units E_00, E_01, E_10, E_11."""

    __slots__ = ("elements", "gram", "tables")

    def __init__(self, elements, gram: Matrix):
        elements = tuple(elements)
        if len(elements) != 4:
            raise ValueError("a trace basis has exactly four elements")
        if gram.n != 4 or gram.det() == 0:
            raise RankDeficientError("Gram matrix must be invertible 4x4")
        # alpha(E_ab) by the Gram solve, whose entry types alpha keeps
        gram_inv = gram.inverse()
        units = (mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]]),
                 mat([[0, 0], [1, 0]]), mat([[0, 0], [0, 1]]))
        tables = tuple(
            (Matrix(tuple(tuple((e * gi * gk).trace() for gk in elements)
                          for gi in elements)) * gram_inv).transpose()
            for e in units)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "tables", tables)

    def __repr__(self):
        return f"TraceBasis({list(self.elements)!r})"


def _gram_rows(elements):
    return [[(a * b).trace() for b in elements] for a in elements]


def select_basis(words) -> TraceBasis:
    """Greedily pick the first four stream elements with independent trace
    functionals (running Gram rank must grow at each acceptance).

    The stream order decides the result, so feeding a breadth-first word
    ball gives a reproducible basis.  Raises RankDeficient if the stream
    ends first; that happens exactly when the functionals of the whole
    stream stay inside a proper subspace (e.g. all-diagonal input).
    """
    chosen = []
    for g in words:
        if not isinstance(g, Matrix) or g.n != 2:
            raise ValueError("stream must yield 2x2 matrices")
        candidate = chosen + [g]
        rows = _gram_rows(candidate)
        if rank(rows) == len(candidate):
            chosen = candidate
            if len(chosen) == 4:
                return TraceBasis(chosen, Matrix(tuple(tuple(r) for r in rows)))
    raise RankDeficientError(
        f"stream exhausted with trace rank {len(chosen)} < 4")


def alpha(g: Matrix, basis: TraceBasis) -> Matrix:
    """4x4 image of g: column i expresses g*g_i in the basis g_1..g_4.

    g_00*A_00 + g_01*A_01 + g_10*A_10 + g_11*A_11 for the unit tables A_ab;
    an entry is a FieldElement exactly where the Gram solve for g makes one
    (where g, the basis, or column i of the Gram inverse holds one)."""
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
    return combo * basis.elements[0].inverse()


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
        if rep(a * b) != ma * mb:
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
