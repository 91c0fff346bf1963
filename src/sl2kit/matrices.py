"""Exact square matrices of size 1..4.

Entries may be any scalar type with exact +, -, *, / and equality against 0
and 1: in practice ``fractions.Fraction`` or ``sl2kit.numberfield.FieldElement``
(the two coerce against each other, so mixed matrices behave).  Floats are
rejected on construction; everything in this module is exact.

Matrices are immutable and hashable, which is what the tree and word-ball
code rely on for deduplication.  ``Immutable`` is the guard that every value
type of the package (matrices, field elements, tree vertices, valuations, ...)
inherits: constructors fill their slots with ``object.__setattr__`` and any
later assignment or deletion raises ``AttributeError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SingularError


def _coerce_scalar(x):
    if isinstance(x, bool) or isinstance(x, float) or isinstance(x, complex):
        raise TypeError("exact scalars only (int, Fraction or FieldElement)")
    if isinstance(x, int):
        return Fraction(x)
    return x


def _dot(r, c):
    """sum(r[k] * c[k]) from the first term on: an int 0 start would be
    lifted into the field on every FieldElement product.  The type is the
    same either way, since 0 + t has the type of t."""
    acc = r[0] * c[0]
    for k in range(1, len(r)):
        acc = acc + r[k] * c[k]
    return acc


class Immutable:
    """Base of the package's value types: slots cannot be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def mat(rows) -> "Matrix":
    """Build a Matrix from nested sequences, coercing ints to Fractions."""
    coerced = tuple(tuple(_coerce_scalar(x) for x in row) for row in rows)
    return Matrix(coerced)


class Matrix(Immutable):
    __slots__ = ("rows",)

    def __init__(self, rows):
        n = len(rows)
        if n not in (1, 2, 3, 4):
            raise ValueError("square matrices of size 1..4 only")
        for r in rows:
            if len(r) != n:
                raise ValueError("square matrices of size 1..4 only")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.rows))
        return Matrix(tuple(tuple(_dot(r, c) for c in cols)
                            for r in self.rows))

    def __rmul__(self, scalar):
        if isinstance(scalar, Matrix):
            return NotImplemented
        s = _coerce_scalar(scalar)
        return Matrix(tuple(tuple(s * x for x in row) for row in self.rows))

    def scale(self, scalar) -> "Matrix":
        return self.__rmul__(scalar)

    def __add__(self, other):
        if not isinstance(other, Matrix) or other.n != self.n:
            return NotImplemented
        return Matrix(tuple(tuple(x + y for x, y in zip(r, s))
                            for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix) or other.n != self.n:
            return NotImplemented
        return Matrix(tuple(tuple(x - y for x, y in zip(r, s))
                            for r, s in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(tuple(-x for x in row) for row in self.rows))

    def transpose(self) -> "Matrix":
        n = self.n
        return Matrix(tuple(tuple(self.rows[j][i] for j in range(n))
                            for i in range(n)))

    def trace(self):
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def det(self):
        """Closed forms for n <= 2, else the pivot product of _row_reduce."""
        r = self.rows
        if self.n == 1:
            return r[0][0]
        if self.n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        pivots, det = _row_reduce([list(row) for row in r], self.n)
        return det if len(pivots) == self.n else Fraction(0)

    def inverse(self) -> "Matrix":
        if self.n == 2:
            d = self.det()
            if d == 0:
                raise SingularError("matrix is singular")
            if isinstance(d, int):
                d = Fraction(d)  # int / int is a float
            (a, b), (c, e) = self.rows
            return Matrix(((e / d, -b / d), (-c / d, a / d)))
        n = self.n
        aug = [list(self.rows[i]) + [Fraction(1) if i == j else Fraction(0)
                                     for j in range(n)] for i in range(n)]
        if len(_row_reduce(aug, n)[0]) < n:
            raise SingularError("matrix is singular")
        return Matrix(tuple(tuple(row[n:]) for row in aug))

    def charpoly(self) -> tuple:
        """Characteristic polynomial det(xI - A), coefficients constant-first.

        _faddeev_leverrier runs on the numerators of D*A (_numerators), and
        c_k(A) = c_k(D*A)/D^k.  On a rational matrix every division of the
        recurrence is exact in Z and the coefficients are Fractions; on one
        with a field entry D is 1, and a coefficient is a FieldElement
        exactly where field entries reach it.
        """
        D, a = _numerators(self.rows)
        return tuple(reversed([
            Fraction(c, D ** k) if type(c) is int else c / D ** k
            for k, c in enumerate(_faddeev_leverrier(a))]))

    def is_identity(self) -> bool:
        return all(self.rows[i][j] == (1 if i == j else 0)
                   for i in range(self.n) for j in range(self.n))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


# ---------------------------------------------------------------------------
# exact linear algebra helpers (generic over the scalar type)
# ---------------------------------------------------------------------------

def _numerators(rows):
    """(D, rows of D*A as int lists) for the least common denominator D of
    the entries, when every entry is an int or a Fraction.  When an entry
    is a FieldElement, (1, rows): each entry is its own numerator over 1,
    and the same formulas run on the entries themselves."""
    for row in rows:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                return 1, rows
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    D = lcm(*[d for row in ratios for _, d in row])
    return D, [[n * (D // d) for n, d in row] for row in ratios]


def _over(D, rows) -> "Matrix":
    """The Matrix A for the numerator rows of D*A, _numerators undone:
    Fraction(x, D) for an int x over an int D, else x / D, computed as x
    times the one reciprocal of D."""
    if type(D) is not int:
        r = 1 / D
        return Matrix(tuple(tuple(x * r for x in row) for row in rows))
    if D == 1:
        return Matrix(tuple(tuple(Fraction(x) if type(x) is int else x
                                  for x in row) for row in rows))
    r = Fraction(1, D)
    return Matrix(tuple(tuple(Fraction(x, D) if type(x) is int else x * r
                              for x in row) for row in rows))


def _solve_fraction_free(rows, m: int):
    """(d, z) with z / d the solution of the m x (m + k) augmented system
    rows, k >= 1 right-hand sides: row i of z holds the k solution entries
    of unknown i.  Gauss-Jordan with Bareiss's divisions by the previous
    pivot, which are exact, so every pivot ends as d = +-det (Bareiss,
    Math. Comp. 22, 1968).  An int dividend is floor-divided, exactly, so
    int rows stay ints; any other exact scalar is divided.  A singular left
    block raises SingularError."""
    prev = 1
    for k in range(m):
        if not rows[k][k]:
            i = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if i is None:
                raise SingularError("matrix is singular")
            rows[k], rows[i] = rows[i], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(m):
            if i != k:
                f = rows[i][k]
                rows[i] = [t // prev if type(t := pivot * x - f * y) is int
                           else t / prev for x, y in zip(rows[i], pivot_row)]
        prev = pivot
    return prev, [row[m:] for row in rows]


def _faddeev_leverrier(a):
    """[1, c_1, ..., c_n], the coefficients of det(xI - A) leading first,
    for the rows a of A: M_1 = A, c_k = -tr(M_k) / k, M_(k+1) =
    A(M_k + c_k I).  An int trace is floor-divided, which is exact on int
    rows, so every c_k is an int there; any other exact scalar is divided.
    Only the trace of M_n is read, so only its diagonal is formed."""
    n = len(a)
    coeffs_desc = [1]
    m, diagonal = a, [a[i][i] for i in range(n)]
    for k in range(1, n + 1):
        t = diagonal[0]
        for i in range(1, n):
            t = t + diagonal[i]
        c = -(t // k if type(t) is int else t / k)
        coeffs_desc.append(c)
        if k < n:
            # add c*I as Matrix arithmetic would: each off-diagonal entry
            # gains a zero of c's type, which keeps entry types
            zero = c - c
            cols = tuple(zip(*(
                [x + c if i == j else x + zero for j, x in enumerate(row)]
                for i, row in enumerate(m))))
            if k < n - 1:
                m = [[_dot(r, col) for col in cols] for r in a]
                diagonal = [m[i][i] for i in range(n)]
            else:
                diagonal = [_dot(r, cols[i]) for i, r in enumerate(a)]
    return coeffs_desc


def _row_reduce(aug, ncols):
    """Gauss-Jordan elimination on the first ``ncols`` columns, in place.

    ``aug`` is a list of row lists (extra columns ride along).  Pivoting is
    deterministic: columns left to right, the first usable row, each pivot row
    scaled to a leading one and cleared above and below.  Returns the pivot
    columns (row i of the result holds the pivot of column ``pivots[i]``) and
    the pivot product signed by the row swaps: the determinant of a square
    block with a pivot in every column.
    """
    m = len(aug)
    pivots = []
    det = 1
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        pr = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pr is None:
            continue
        if pr != row:
            aug[row], aug[pr] = aug[pr], aug[row]
            det = -det
        pv = aug[row][col]
        det = det * pv
        if isinstance(pv, int):
            pv = Fraction(pv)  # int / int is a float
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
    return pivots, det


def linear_solve(rows, rhs):
    """Solve A*x = rhs exactly.

    ``rows`` is a list of equations (len m), each of length n; overdetermined
    systems are fine.  Returns a length-n list, with free variables set to
    zero, or None when the system is inconsistent.  Pivoting is deterministic:
    first usable row, columns left to right.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots, _ = _row_reduce(aug, n)
    if any(aug[r][n] != 0 for r in range(len(pivots), m)):
        return None
    zero = rhs[0] - rhs[0] if m else 0
    sol = [zero for _ in range(n)]
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol


def rank(rows) -> int:
    """Rank of a rectangular exact matrix, by Gaussian elimination."""
    work = [list(r) for r in rows]
    return len(_row_reduce(work, len(work[0]) if work else 0)[0])
