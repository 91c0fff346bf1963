"""Exception taxonomy shared by all sl2kit modules.

Every domain failure raises a subclass of Sl2KitError.  Each class carries a
stable machine-readable ``code`` string which the CLI reports verbatim, so the
codes are part of the public interface and must not be renamed casually.
"""

from __future__ import annotations

import sys


def _written(x, form=str) -> str:
    """form(x), or a stand-in if x holds an int too long to write."""
    try:
        return form(x)
    except ValueError:
        return f"<a number of more than {sys.get_int_max_str_digits()} digits>"


class Sl2KitError(Exception):
    """Base class for every domain error raised by this package.

    ``witness`` is the value that shows the failure, where a class names
    one, else None.
    """

    code = "Error"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotMonicError(Sl2KitError):
    """Defining polynomial is not monic (or has non-integer coefficients)."""

    code = "NotMonic"


class ReducibleError(Sl2KitError):
    """Defining polynomial factors over Q.

    ``witness`` holds one nontrivial monic factor, coefficients listed from
    the constant term up.
    """

    code = "Reducible"


class SingularError(Sl2KitError):
    """A matrix that must be invertible has determinant zero."""

    code = "Singular"


class NotAValuationError(Sl2KitError):
    """The coefficientwise-minimum rule fails to be a valuation.

    ``counterexample`` is a pair (x, y) with val(x*y) != val(x) + val(y).
    extend() builds it from a factorisation f = g*h of the defining
    polynomial mod p, as x = g(gamma) and y = h(gamma).
    """

    code = "NotAValuation"

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class DegenerateInputError(Sl2KitError):
    """Geometric input outside its domain (e.g. a point with t <= 0)."""

    code = "DegenerateInput"


class EntryOutsideRingError(Sl2KitError):
    """Matrix entry does not lie in the ring the group was marked with."""

    code = "EntryOutsideRing"


class UnsupportedError(Sl2KitError):
    """Requested operation is not available for these inputs."""

    code = "Unsupported"


class BudgetExceededError(Sl2KitError):
    """The enumeration walk needs more steps than the configured budget."""

    code = "BudgetExceeded"


class RankDeficientError(Sl2KitError):
    """Stream exhausted before a full-rank trace basis was found."""

    code = "RankDeficient"


class DetNotOneError(Sl2KitError):
    """Matrix is required to have determinant exactly one."""

    code = "DetNotOne"


class IndependenceFailureError(Sl2KitError):
    """Claimed basis pair is linearly dependent.

    ``witness`` is the scalar c with y = c*x (or 0 when an input is zero).
    """

    code = "IndependenceFailure"


class CommutativeError(Sl2KitError):
    """Input pair commutes; in sl2 this forces a scalar-multiple relation.

    ``witness`` is that scalar when it exists.
    """

    code = "Commutative"


class NotASubalgebraError(Sl2KitError):
    """Bracket of the basis pair leaves their span; ``witness`` is the bracket."""

    code = "NotASubalgebra"


class GIsInHError(Sl2KitError):
    """The outside element already lies in the upper-triangular subgroup."""

    code = "GIsInH"


class CheckFailedError(Sl2KitError):
    """A cross-validation check (e.g. containment) did not hold."""

    code = "CheckFailed"
