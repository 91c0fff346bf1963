"""JSON encoding and parsing conventions shared by the CLI.

Rationals travel as strings ("3/4", "-2") so no precision is lost; field
elements as arrays of rational strings in the power basis; matrices as
row-major nested arrays; a field is declared once per document as
{"minpoly": [c0, c1, ..., 1]} with integer coefficients listed from the
constant term up.  Vertices are {"n": int, "b": element}, points are
{"z": [re, im], "t": t}, and every float is rounded to 12 significant
digits on the way out.

Parsers raise ValueError on malformed input; the CLI maps that to a usage
error.  Domain failures (reducible polynomial, non-prime p, ...) raise
their usual Sl2KitError subclasses.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .bttree import TreeVertex, _reduce_offset
from .errors import DegenerateInputError, UnsupportedError
from .hyperbolic import HPoint
from .matrices import Matrix, mat
from .numberfield import FieldElement, NumberField, make_field
from .properaction import MarkedGroup, make_group


def float12(x) -> float:
    """Round to 12 significant digits (the CLI's float contract)."""
    return float(f"{float(x):.12g}")


def encode_rational(x) -> str:
    f = Fraction(x)
    try:
        return str(f)  # "n" or "n/d"
    except ValueError:  # more digits than Python writes as a string
        raise UnsupportedError(
            "a rational in the result has a numerator or denominator of "
            f"more than {sys.get_int_max_str_digits()} digits, too long "
            "to write") from None


_EXPONENT_LIMIT = 4300  # Python's default digit limit for int(str)


def parse_rational(obj) -> Fraction:
    """An int, or a string that Fraction reads ("3/4", "-2", "1.5e3").
    Python reads no int of more digits than _EXPONENT_LIMIT from a string,
    so a longer numerator is malformed; a decimal exponent beyond
    +-_EXPONENT_LIMIT would get round that limit by building
    10**|exponent|, so it is refused too."""
    if isinstance(obj, bool):
        raise ValueError("rationals must be strings or integers")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        text = obj.strip()
        try:
            # only an int can follow the e of a rational Fraction reads
            exponent = int(text.lower().partition("e")[2] or 0)
            if abs(exponent) <= _EXPONENT_LIMIT:
                return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {obj!r}") from exc
        raise ValueError(f"rational {obj!r} has a decimal exponent beyond "
                         f"+-{_EXPONENT_LIMIT}")
    raise ValueError(f"malformed rational {obj!r}")


def encode_scalar(x):
    """Fraction -> rational string; FieldElement -> array of coefficient
    strings in the power basis."""
    if isinstance(x, FieldElement):
        return [encode_rational(c) for c in x.coeffs]
    return encode_rational(x)


def parse_scalar(obj, field: NumberField | None = None):
    if isinstance(obj, list):
        if field is None:
            raise ValueError("field-element arrays need a declared minpoly")
        return field.element([parse_rational(c) for c in obj])
    return parse_rational(obj)


def encode_matrix(m: Matrix):
    return [[encode_scalar(x) for x in row] for row in m.rows]


def parse_matrix(obj, field: NumberField | None = None) -> Matrix:
    if not isinstance(obj, list) or not obj or \
            any(not isinstance(row, list) for row in obj):
        raise ValueError("a matrix is a nested array of rows")
    rows = [[parse_scalar(x, field) for x in row] for row in obj]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    if len(rows) != 2:
        raise ValueError("expected a 2x2 matrix")
    return mat(rows)


def parse_minpoly(obj):
    if not isinstance(obj, list) or len(obj) < 2 or \
            any(isinstance(c, bool) or not isinstance(c, int) for c in obj):
        raise ValueError("minpoly must be an integer array [c0, ..., 1]")
    return tuple(obj)


def parse_field(obj) -> NumberField:
    """Accepts {"minpoly": [...]} or a bare coefficient array."""
    if isinstance(obj, dict):
        if set(obj) != {"minpoly"}:
            raise ValueError('a field document is {"minpoly": [...]}')
        obj = obj["minpoly"]
    return make_field(parse_minpoly(obj))


def encode_vertex(v) -> dict:
    return {"n": v.n, "b": encode_scalar(v.b)}


def parse_vertex(obj, ctx):
    """Read {"n": int, "b": element}, its offset reduced in ctx."""
    if not isinstance(obj, dict) or set(obj) != {"n", "b"}:
        raise ValueError('a vertex document is {"n": int, "b": element}')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("vertex exponent n must be an integer")
    b = ctx.coerce(parse_scalar(obj["b"], ctx.field))
    bits = abs(n) * (ctx.p - 1).bit_length()
    if bits > 1 << 14:  # reducing b builds p**(n + e) and inverts modulo it
        raise UnsupportedError(f"vertex exponent n = {n} is out of range: "
                               f"|n| * ceil(log2 p) = {bits} exceeds 2**14")
    return TreeVertex(ctx, n, _reduce_offset(b, n, ctx))


def encode_point(p: HPoint) -> dict:
    return {"z": [float12(p.z.real), float12(p.z.imag)], "t": float12(p.t)}


def parse_point(obj) -> HPoint:
    if not isinstance(obj, dict) or set(obj) != {"z", "t"}:
        raise ValueError('a point document is {"z": [re, im], "t": t}')
    z = obj["z"]
    if not isinstance(z, list) or len(z) != 2 or \
            any(not isinstance(c, (int, float)) or isinstance(c, bool)
                for c in z):
        raise ValueError("point z must be [re, im]")
    t = obj["t"]
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ValueError("point t must be a number")
    try:
        return HPoint(complex(z[0], z[1]), float(t))
    except OverflowError:  # a JSON integer beyond float range
        raise DegenerateInputError("point coordinates must be finite") \
            from None


def parse_group(obj) -> MarkedGroup:
    """Read {"minpoly"?: [...], "generators": [matrix, ...],
    "root_index"?: int}."""
    if not isinstance(obj, dict) or "generators" not in obj or \
            set(obj) - {"minpoly", "generators", "root_index"}:
        raise ValueError('a group document is {"minpoly"?: [...], '
                         '"generators": [matrix, ...], "root_index"?: int}')
    field = parse_field(obj["minpoly"]) if "minpoly" in obj else None
    gens_doc = obj["generators"]
    if not isinstance(gens_doc, list):
        raise ValueError("generators must be an array of matrices")
    gens = [parse_matrix(g, field) for g in gens_doc]
    root_index = obj.get("root_index", 0)
    if isinstance(root_index, bool) or not isinstance(root_index, int):
        raise ValueError("root_index must be an integer")
    return make_group(gens, field, root_index)
