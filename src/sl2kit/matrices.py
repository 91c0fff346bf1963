"""Exact square matrices of size 1..4.

Entries may be any scalar type with exact +, -, *, / and equality against 0
and 1: in practice ``fractions.Fraction`` or ``sl2kit.numberfield.FieldElement``
(the two coerce against each other, so mixed matrices behave).  Floats are
rejected on construction; everything in this module is exact.  The
package's linear algebra runs one fraction-free elimination, _eliminate,
on int numerators whenever the entries are rational (_numerators).

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
        """Closed forms for n <= 2, else sign * d / D^n from _eliminate on
        the numerators of D*A."""
        r = self.rows
        if self.n == 1:
            return r[0][0]
        if self.n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        D, a = _numerators(r)
        pivots, d, sign = _eliminate(list(a), self.n)
        if len(pivots) < self.n:
            return Fraction(0)
        return Fraction(sign * d, D ** self.n) if type(d) is int else sign * d

    def inverse(self) -> "Matrix":
        if self.n == 2:
            d = self.det()
            if d == 0:
                raise SingularError("matrix is singular")
            if isinstance(d, int):
                d = Fraction(d)  # int / int is a float
            (a, b), (c, e) = self.rows
            return Matrix(((e / d, -b / d), (-c / d, a / d)))
        # (D*A) X = D*I has the solution X = A^-1, with X = z / d
        n = self.n
        _, a = _numerators([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(self.rows)])
        pivots, d, _ = _eliminate(a, n)
        if len(pivots) < n:
            raise SingularError("matrix is singular")
        return _over(d, [row[n:] for row in a])

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
# exact linear algebra: numerators, one elimination, Faddeev-LeVerrier
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


def _eliminate(rows, ncols: int):
    """Gauss-Jordan on the first ncols columns of the row lists rows, in
    place and fraction-free (Bareiss, Math. Comp. 22, 1968).  Pivots are
    deterministic: columns left to right, the first usable row; a column
    without one is skipped.  A step with pivot p sets each other row to
    (p * row - f * pivot row) / d, f its entry in the pivot column and d
    the previous pivot (none before the first); the division is exact.
    Returns (pivots, d, sign): row i holds the pivot of column pivots[i],
    every pivot ends as the last one, d, and a square block with a pivot
    in every column has determinant sign * d.  All-int rows are
    floor-divided; other entries are multiplied by 1/d, a Fraction for an
    int d.  A row with f == 0 is only scaled: f * y would turn Fractions
    into FieldElements when f is a FieldElement zero."""
    ints = all(type(x) is int for row in rows for x in row)
    pivots, d, sign = [], 1, 1
    for col in range(ncols):
        k = len(pivots)
        for i in range(k, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        top = rows[k]
        p = top[col]
        if k and not ints:
            r = Fraction(1, d) if type(d) is int else 1 / d
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[col]
            if ints:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
            else:
                t = ([p * x - f * y for x, y in zip(row, top)] if f
                     else [p * x for x in row])
                rows[i] = [x * r for x in t] if k else t
        d = p
        pivots.append(col)
    return pivots, d, sign


def linear_solve(rows, rhs):
    """Solve A*x = rhs exactly.

    ``rows`` is a list of equations (len m), each of length n; overdetermined
    systems are fine.  Returns a length-n list, with free variables set to
    zero, or None when the system is inconsistent.  Pivoting is deterministic:
    first usable row, columns left to right.  The elimination runs on the
    numerators of D*(A | rhs), whose D cancels.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    _, aug = _numerators([list(rows[i]) + [rhs[i]] for i in range(m)])
    pivots, d, _ = _eliminate(aug, n)
    if any(aug[r][n] for r in range(len(pivots), m)):
        return None
    zero = rhs[0] - rhs[0] if m else 0
    sol = [zero for _ in range(n)]
    for r, col in enumerate(pivots):
        x = aug[r][n]
        sol[col] = Fraction(x, d) if type(x) is type(d) is int else x / d
    return sol


def rank(rows) -> int:
    """Rank of a rectangular exact matrix, by _eliminate on its
    numerators."""
    a = list(_numerators(rows)[1])
    return len(_eliminate(a, len(a[0]) if a else 0)[0])
