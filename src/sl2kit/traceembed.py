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

The layer runs on numerators.  A rational matrix is read as int
numerators over one common denominator, and a matrix with a field entry as
its own entries over 1 (matrices._numerators), so one set of formulas
serves Q and Q(gamma).  TraceBasis inverts the numerators of V
fraction-free (_eliminate, as FieldElement.inverse does) and keeps the four
tables, and the products g_j g_1^-1 that reconstruct sums, as numerators
over one denominator each.  So alpha(g) of a rational g costs one integer
dot product and one Fraction per entry, and reconstruct one dot product
per entry.  verify_embedding converts each sample and each image to
numerators once and runs every check on them: sample products as products
of numerators, comparisons of fractions by cross-multiplication,
characteristic polynomials by the Faddeev-LeVerrier recurrence that
Matrix.charpoly runs too, and integrality as a common denominator of 1
with algebraic-integer entries.

Everything here is exact.  Entry integrality is measured per element (by
is_algebraic_integer off Q) and reported, never assumed.
"""

from __future__ import annotations

from .errors import DetNotOneError, RankDeficientError, SingularError
from .matrices import (Immutable, Matrix, _dot, _faddeev_leverrier,
                       _eliminate, _numerators, _over, rank)
from .numberfield import is_algebraic_integer

_UNITS = ((0, 0), (0, 1), (1, 0), (1, 1))  # E_00, E_01, E_10, E_11
_TRANSPOSED = (0, 2, 1, 3)  # flattened entry rs of a 2x2 matrix -> sr


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
    products g_j g_1^-1, which reconstruct() sums.

    Linearly dependent elements raise RankDeficientError; independent ones
    have det Gram = -det(V)^2 != 0, V the 4x4 matrix of their entries.  A
    singular g_1 raises SingularError.  The tables are all FieldElements
    when an element holds one.  The basis also keeps the tables (_nums) and
    the products g_j g_1^-1 (_probe) as numerators over one denominator
    each."""

    __slots__ = ("elements", "gram", "tables", "_nums", "_probe")

    def __init__(self, elements):
        elements = tuple(elements)
        if len(elements) != 4:
            raise ValueError("a trace basis has exactly four elements")
        # Column i of alpha(E_ab) holds the coordinates of E_ab g_i in the
        # basis; its row a is row b of g_i and its other row is zero.  With
        # V[2r + s][i] = (g_i)_rs and W = V^-1 that is
        # A_ab[j][i] = W[j][2a] (g_i)_b0 + W[j][2a + 1] (g_i)_b1.
        # V = N / dv and N^-1 = z / d, so W = dv z / d, and its dv cancels
        # the 1 / dv of the entries of g_i.
        dv, n = _numerators(tuple(zip(*(g.rows[0] + g.rows[1]
                                        for g in elements))))
        aug = [list(row) + [int(i == j) for j in range(4)]
               for i, row in enumerate(n)]
        pivots, d, _ = _eliminate(aug, 4)
        if len(pivots) < 4:
            raise RankDeficientError("Gram matrix must be invertible 4x4")
        z = [row[4:] for row in aug]
        # entry (j, i) of A_ab, each table over d.  The pivot d has every
        # entry of V among its operands, so it is a FieldElement when V
        # holds one, and then so is every x / d: the tables are all
        # FieldElements.
        nums = [[[zj[2 * a] * n[2 * b][i] + zj[2 * a + 1] * n[2 * b + 1][i]
                  for i in range(4)] for zj in z] for a, b in _UNITS]
        # g_j g_1^-1 = n_j adj(n_1) / det(n_1), n_j = dv g_j
        p, q, r, s = (row[0] for row in n)
        det = p * s - q * r
        if not det:
            raise SingularError("matrix is singular")
        adj = ((s, -q), (-r, p))
        object.__setattr__(self, "elements", elements)
        # tr(g_i g_k) = sum_rs (g_i)_rs (g_k)_sr
        object.__setattr__(self, "gram", _over(dv * dv, [
            [sum(n[e][i] * n[_TRANSPOSED[e]][k] for e in range(4))
             for k in range(4)] for i in range(4)]))
        object.__setattr__(self, "tables", tuple(_over(d, t) for t in nums))
        # entry (j, i) of A_00, A_01, A_10, A_11 as (w, x, y, z)
        object.__setattr__(self, "_nums", (d, tuple(
            tuple(zip(*(t[j] for t in nums))) for j in range(4))))
        object.__setattr__(self, "_probe", (det, [
            [[n[2 * row][j] * adj[0][col] + n[2 * row + 1][j] * adj[1][col]
              for col in range(2)] for row in range(2)] for j in range(4)]))

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

    g_00*A_00 + g_01*A_01 + g_10*A_10 + g_11*A_11 for the unit tables A_ab,
    each entry one dot product of the numerators of g and of the tables
    over the product of the two denominators; every entry is a
    FieldElement when g or the basis holds one."""
    D, ((a, b), (c, d)) = _numerators(g.rows)
    den, rows = basis._nums
    return _over(D * den, [[a * w + b * x + c * y + d * z
                            for w, x, y, z in row] for row in rows])


def reconstruct(m4: Matrix, basis: TraceBasis) -> Matrix:
    """Rebuild the 2x2 element from its 4x4 image.

    Column 0 of the image gives the coordinates of g*g_1 in the basis
    (this is the elementary-matrix probe behind injectivity: the trace
    functional of g*g_1 determines all four of its entries), so g is
    sum_j m4[j, 0] g_j g_1^-1: one dot product per entry with the
    numerators of the products g_j g_1^-1 that the basis keeps.
    """
    D, (column,) = _numerators([[row[0] for row in m4.rows]])
    return _over(*_probe_rows(D, column, basis._probe))


def _probe_rows(D, n, probe):
    """(D * E, numerators) of sum_j (n_j / D) g_j g_1^-1, from the probe
    table (E, numerators of g_j g_1^-1) of a basis."""
    E, (p0, p1, p2, p3) = probe
    return D * E, [[n[0] * p0[r][s] + n[1] * p1[r][s] + n[2] * p2[r][s]
                    + n[3] * p3[r][s] for s in range(2)] for r in range(2)]


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


def _numerator_product(sa, sb):
    """(Da * Db, A B) for matrices A / Da and B / Db given by numerators."""
    (Da, A), (Db, B) = sa, sb
    cols = tuple(zip(*B))
    return Da * Db, [[_dot(r, c) for c in cols] for r in A]


def _checks(sg, sm, probe):
    """(m is I, the probe rebuilds g, charpoly(m) = charpoly(g)^2,
    det m = 1, every entry of m is an algebraic integer) from the
    numerators sg of g and sm of its image m: each comparison of fractions
    is one of cross-multiplied numerators.  The entries are integral when
    their common denominator is 1 and each numerator is an algebraic
    integer (over Q that is D = 1 alone)."""
    (Dg, g), (D, m) = sg, sm
    identity = D == 1 and all(x == int(i == j) for i, row in enumerate(m)
                              for j, x in enumerate(row))
    den, rebuilt = _probe_rows(D, [row[0] for row in m], probe)
    probe_ok = all(x * Dg == y * den for row, g_row in zip(rebuilt, g)
                   for x, y in zip(row, g_row))
    # coefficient k (leading first) over D^k and Dg^k
    big = _faddeev_leverrier(m)
    square = _poly_square(_faddeev_leverrier(g))
    square_ok = all(c * Dg ** k == t * D ** k
                    for k, (c, t) in enumerate(zip(big, square)))
    integral = D == 1 and all(is_algebraic_integer(x)
                              for row in m for x in row)
    return identity, probe_ok, square_ok, big[4] == D ** 4, integral


def verify_embedding(rep: Rep4, samples) -> dict:
    """Measure the representation on concrete samples.

    Checks, all exact: homomorphism on consecutive sample pairs, injectivity
    (identity image only for the identity, plus full reconstruction through
    the probe), the characteristic-polynomial square identity, determinant
    one (the constant term of that polynomial), and per-element integrality
    of the 4x4 entries.  Failures are collected in the report, not raised.
    Each sample is mapped once, so n samples take 2n - 1 calls of rep.

    Every sample and image is converted once to numerators over one
    denominator (_numerators), and every check runs on those.
    """
    samples = list(samples)
    image_nums = [_numerators(rep(g).rows) for g in samples]
    sample_nums = [_numerators(g.rows) for g in samples]
    failures = []
    pairs = 0
    for k in range(len(samples) - 1):
        pairs += 1
        # rep(a b) against the product of the images, cross-multiplied
        D, rows = _numerators(rep(_over(*_numerator_product(
            sample_nums[k], sample_nums[k + 1]))).rows)
        den, prod = _numerator_product(image_nums[k], image_nums[k + 1])
        if not all(x * den == D * y for row, prod_row in zip(rows, prod)
                   for x, y in zip(row, prod_row)):
            failures.append(
                f"homomorphism: {samples[k]!r} * {samples[k + 1]!r}")
    probe = rep.basis._probe
    identity_images = 0
    entry_integrality = []
    for g, sg, sm in zip(samples, sample_nums, image_nums):
        identity, probe_ok, square_ok, det_one, integral = _checks(
            sg, sm, probe)
        if identity:
            identity_images += 1
            if not g.is_identity():
                failures.append(f"injectivity: nonidentity {g!r} maps to I")
        if not probe_ok:
            failures.append(f"probe: reconstruction mismatch for {g!r}")
        if not square_ok:
            failures.append(f"characteristic square identity: {g!r}")
        if not det_one:  # det(-m) = det(m) for 4x4
            failures.append(f"determinant: {g!r}")
        entry_integrality.append(integral)
    return {
        "samples": len(samples),
        "homomorphism_pairs": pairs,
        "identity_images": identity_images,
        "entry_integrality": entry_integrality,
        "all_entries_integral": all(entry_integrality) if samples else True,
        "failures": failures,
        "ok": not failures,
    }
