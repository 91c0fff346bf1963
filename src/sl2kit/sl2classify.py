"""Two-dimensional subalgebras of sl2 and upper-triangular maximality.

All inputs are exact 2x2 matrices (Fraction or FieldElement entries) with
trace exactly zero where tracelessness is required; there are no tolerances
anywhere in this module.

The classification pipeline: a candidate pair is first checked independent
(make_subalgebra), then normalize_basis replaces it by (x1, x2) with
[x1, x2] = x1, which forces x2 to have determinant -1/4 and hence exact
eigenvalues +-1/2.  The eigenvector matrix (v- | v+) conjugates the span
into upper-triangular form, since x1 kills the -1/2 eigenvector v- of x2.
Commuting pairs cannot be independent inside sl2 (the centralizer of a
nonscalar matrix meets the traceless subspace in a line), so commutativity
surfaces either as IndependenceFailure at construction or as Commutative
with the forced scalar witness.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (CommutativeError, DegenerateInputError, DetNotOneError,
                     GIsInHError, IndependenceFailureError,
                     NotASubalgebraError, _written)
from .matrices import Immutable, Matrix, linear_solve, mat


def _require_traceless(m: Matrix, name: str):
    if not isinstance(m, Matrix) or m.n != 2:
        raise ValueError(f"{name} must be a 2x2 matrix")
    if m.trace() != 0:
        raise DegenerateInputError(f"{name} must have trace exactly zero")


def _flat(m: Matrix):
    return [m[0, 0], m[0, 1], m[1, 0], m[1, 1]]


def _dependence_scalar(y1: Matrix, y2: Matrix):
    """Scalar c with y2 == c*y1, or None when the pair is independent.
    A zero y1 reports c = 0 (any pair containing zero is dependent); else
    c = y2[k] / y1[k] at the first nonzero entry k of y1, by linear_solve."""
    a = _flat(y1)
    if all(x == 0 for x in a):
        return Fraction(0)
    sol = linear_solve([[x] for x in a], _flat(y2))
    return None if sol is None else sol[0]


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """Commutator xy - yx of traceless 2x2 matrices."""
    _require_traceless(x, "x")
    _require_traceless(y, "y")
    return x * y - y * x


class Subalgebra2(Immutable):
    """Holder for a 2-dimensional candidate span; build via make_subalgebra,
    which performs the independence check."""

    __slots__ = ("y1", "y2")

    def __init__(self, y1: Matrix, y2: Matrix):
        _require_traceless(y1, "y1")
        _require_traceless(y2, "y2")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)

    def __repr__(self):
        return f"Subalgebra2({self.y1!r}, {self.y2!r})"


def make_subalgebra(y1: Matrix, y2: Matrix) -> Subalgebra2:
    s = Subalgebra2(y1, y2)
    c = _dependence_scalar(y1, y2)
    if c is not None:
        raise IndependenceFailureError(
            f"basis pair is dependent: y2 = {_written(c)} * y1", witness=c)
    return s


def _span_coordinates(s: Subalgebra2, m: Matrix):
    """Coordinates (a, b) with m = a*y1 + b*y2, or None if m leaves the span."""
    rows = [[x, y] for x, y in zip(_flat(s.y1), _flat(s.y2))]
    return linear_solve(rows, _flat(m))


def normalize_basis(s: Subalgebra2):
    """Basis (x1, x2) of the same span with [x1, x2] = x1 exactly.

    x1 is the bracket w = [y1, y2] itself.  Writing w = a*y1 + b*y2, the
    bracket relations [w, y1] = -b*w and [w, y2] = a*w reduce the defining
    equation [w, x2] = w to one scalar condition, solved by x2 = y2/a when
    a is nonzero and x2 = -y1/b otherwise.
    """
    w = bracket(s.y1, s.y2)
    if all(x == 0 for x in _flat(w)):
        raise CommutativeError(
            "basis pair commutes, forcing a scalar-multiple relation",
            witness=_dependence_scalar(s.y1, s.y2))
    coords = _span_coordinates(s, w)
    if coords is None:
        raise NotASubalgebraError(
            "bracket of the basis pair leaves their span", witness=w)
    a, b = coords
    x1 = w
    if a != 0:
        x2 = s.y2.scale(1 / a)
    else:
        x2 = s.y1.scale(-1 / b)
    if bracket(x1, x2) != x1:
        raise ArithmeticError("normalization identity failed to verify")
    return x1, x2


class ClassificationOutcome(Immutable):
    __slots__ = ("conjugator", "kind")

    def __init__(self, conjugator: Matrix, kind: str):
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "kind", kind)

    def __repr__(self):
        return f"ClassificationOutcome({self.kind}, Q={self.conjugator!r})"


def _eigenvector(m: Matrix, eigenvalue):
    """Kernel vector of m - eigenvalue*I, first nonzero component scaled
    to one.  The shifted matrix is singular by construction."""
    a = m[0, 0] - eigenvalue
    b = m[0, 1]
    c = m[1, 0]
    d = m[1, 1] - eigenvalue
    v = (b, -a) if (a != 0 or b != 0) else (d, -c)
    if v[0] == 0 and v[1] == 0:
        raise ArithmeticError("shifted matrix vanished; eigenvalue is not "
                              "simple")
    lead = v[0] if v[0] != 0 else v[1]
    return (v[0] / lead, v[1] / lead)


def classify_2dim(s: Subalgebra2) -> ClassificationOutcome:
    """Conjugator taking the span into upper-triangular form.

    After normalization x2 has trace zero and determinant -1/4, so its
    eigenvalues are exactly -1/2 and +1/2 and the eigenvectors live in the
    input field.  q = (v- | v+) works: [x1, x2] = x1 gives
    x2(x1 v) = (lambda - 1) x1 v, and -3/2 is no eigenvalue, so x1 v- = 0
    and v- is a common eigenvector of the span.  The result is checked.
    """
    x1, x2 = normalize_basis(s)
    if x2.det() != Fraction(-1, 4):
        raise ArithmeticError("normalized x2 must have determinant -1/4")
    half = Fraction(1, 2)
    (a, c), (b, d) = _eigenvector(x2, -half), _eigenvector(x2, half)
    q = Matrix(((a, b), (c, d)))
    q_inv = q.inverse()
    if any((q_inv * y * q)[1, 0] != 0 for y in (s.y1, s.y2, x1, x2)):
        raise ArithmeticError("the eigenvector conjugator did not "
                              "upper-triangularize the span")
    return ClassificationOutcome(q, "upper-triangular")


def normalizes_torus(g: Matrix) -> bool:
    """Conjugation by g preserves the diagonal torus exactly when each row
    of g has a zero entry: g11*g12 = 0 and g21*g22 = 0."""
    if g.det() != 1:
        raise DetNotOneError("normalizer tests expect determinant one")
    return g[0, 0] * g[0, 1] == 0 and g[1, 0] * g[1, 1] == 0


def normalizes_unipotent(g: Matrix) -> bool:
    """Conjugation by g preserves the upper unipotent line iff g21 = 0
    (the conjugate picks up a lower-left entry -b*g21^2 otherwise)."""
    if g.det() != 1:
        raise DetNotOneError("normalizer tests expect determinant one")
    return g[1, 0] == 0


class Factor(Immutable):
    """One factor of a maximality word: an upper-triangular element
    (tag "h"), the outside element g, or its inverse."""

    __slots__ = ("tag", "matrix")

    def __init__(self, tag: str, matrix: Matrix):
        if tag not in ("h", "g", "g_inv"):
            raise ValueError("tag must be 'h', 'g' or 'g_inv'")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "matrix", matrix)

    def __repr__(self):
        return f"Factor({self.tag}, {self.matrix!r})"


def maximality_factor(g: Matrix, target: Matrix):
    """Explicit word over H union {g} multiplying out to target.

    H is the upper-triangular determinant-one subgroup.  For any a != 0
    and b one has l(a,b) * g * r = [[b, -a], [1/a, 0]] with the two
    H-elements r = [[1/g21, -g22], [0, g21]] and
    l(a,b) = [[a, b - a*g11/g21], [0, 1/a]]; inverting and splitting off
    one unipotent factor expresses any target with nonzero lower-left
    entry.  Targets already in H come back as a single factor.
    """
    if not isinstance(g, Matrix) or g.n != 2 or target.n != 2:
        raise ValueError("2x2 matrices expected")
    if g.det() != 1 or target.det() != 1:
        raise DetNotOneError("both matrices must have determinant one")
    if g[1, 0] == 0:
        raise GIsInHError("g is upper triangular, so it generates nothing "
                          "outside H")
    if target[1, 0] == 0:
        word = [Factor("h", target)]
    else:
        t11, t21, t22 = target[0, 0], target[1, 0], target[1, 1]
        a = -1 / t21
        b = t22
        g11, g21, g22 = g[0, 0], g[1, 0], g[1, 1]
        r = mat([[1 / g21, -g22], [0, g21]])
        l = mat([[a, b - a * g11 / g21], [0, 1 / a]])
        word = []
        if t11 != 0:
            word.append(Factor("h", mat([[1, t11 / t21], [0, 1]])))
        for factor in (Factor("h", r.inverse()),
                       Factor("g_inv", g.inverse()),
                       Factor("h", l.inverse())):
            if not factor.matrix.is_identity():
                word.append(factor)
    prod = Matrix.identity(2)
    for factor in word:
        if factor.tag == "h" and factor.matrix[1, 0] != 0:
            raise ArithmeticError("factor tagged 'h' is not upper triangular")
        prod = prod * factor.matrix
    if prod != target:
        raise ArithmeticError("maximality word failed to verify")
    return word
