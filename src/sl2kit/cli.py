"""Command-line front end with a stable JSON contract.

Every invocation prints exactly one JSON envelope on stdout:

    {"status": "ok" | "error", "result": ..., "diagnostics": [...]}

with keys sorted, so output is byte-stable for fixed input.  Exit codes:
0 success, 1 usage problems (bad flags, malformed JSON), 2 domain errors
(the error carries its machine-readable ``code``), 3 failed cross-checks
(properness containment).  Rationals travel as strings, field elements as
coefficient arrays, matrices as row-major nested arrays; see the
serialization module.  Floats are printed with 12 significant digits.

The enumeration walk takes at most a budget of steps, 5 * 10^5 unless the
environment variable SL2KIT_ENUM_BUDGET or --budget sets another.  tree-ball
refuses a ball of more than 10^5 vertices, counted before it is walked, and
embed takes at most 10^4 --samples and samples at most 10^5 letters in all.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bttree import act, ball, base_vertex, distance, tree_context
from .errors import CheckFailedError, Sl2KitError, UnsupportedError
from .hyperbolic import hyp_distance
from .matrices import Matrix
from .numberfield import minimal_polynomial
from .properaction import (BUDGET_ENV_VAR, _steps, _word_layers,
                           displacement, enumerate_bounded, make_group,
                           properness_check)
from .serialization import (encode_matrix, encode_rational, encode_scalar,
                            encode_vertex, float12, parse_field, parse_group,
                            parse_matrix, parse_point, parse_rational,
                            parse_scalar, parse_vertex)
from .sl2classify import (classify_2dim, make_subalgebra, maximality_factor,
                          normalizes_torus, normalizes_unipotent)
from .traceembed import Rep4, _select_layered, integral_characteristic, \
    verify_embedding
from .valuations import INF


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the published contract
    reserves 2 for domain errors, so usage failures are rerouted to the
    ValueError that main reports as a usage error."""

    def error(self, message):
        raise ValueError(message)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def _load_element(text: str, field):
    """Element flags accept either JSON or a bare rational like 9/2."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return parse_rational(text)
    return parse_scalar(doc, field)


def _matrix_sort_key(m: Matrix):
    return tuple(x for row in m.rows for x in row)


# ---------------------------------------------------------------------------
# handlers: each returns (result, diagnostics); args.field is the parsed
# --minpoly (None without one)
# ---------------------------------------------------------------------------

def _cmd_valuate(args):
    val = tree_context(args.p, args.field).valuation
    v = val(_load_element(args.x, args.field))
    return {"value": "inf" if v == INF else int(v)}, []


def _cmd_tree_dist(args):
    ctx = tree_context(args.p, args.field)
    if args.g is not None:
        if args.u is not None or args.v is not None:
            raise ValueError("give either --g or the pair --u/--v")
        g = parse_matrix(_load_json(args.g, "--g"), args.field)
        v0 = base_vertex(ctx)
        return {"distance": distance(v0, act(g, v0))}, []
    if args.u is None or args.v is None:
        raise ValueError("need --g, or both --u and --v")
    u = parse_vertex(_load_json(args.u, "--u"), ctx)
    v = parse_vertex(_load_json(args.v, "--v"), ctx)
    return {"distance": distance(u, v)}, []


_BALL_LIMIT = 10 ** 5  # tree-ball vertices


def _ball_size(q: int, radius: int) -> int:
    """1 + (q + 1)(q^radius - 1)/(q - 1), the size of a tree ball with
    residue field size q, summed a layer at a time and stopped once it
    passes _BALL_LIMIT, so that a huge radius costs nothing."""
    size, layer = 1, q + 1
    for _ in range(radius):
        size += layer
        if size > _BALL_LIMIT:
            break
        layer *= q
    return size


def _cmd_tree_ball(args):
    ctx = tree_context(args.p, args.field)
    center = base_vertex(ctx) if args.center is None else \
        parse_vertex(_load_json(args.center, "--center"), ctx)
    size = _ball_size(ctx.valuation.residue_size, args.radius)
    if size > _BALL_LIMIT:
        raise UnsupportedError(f"a ball of radius {args.radius} has at least "
                               f"{size} vertices, over the limit of "
                               f"{_BALL_LIMIT}")
    vertices = ball(center, args.radius)
    encoded = sorted((encode_vertex(v) for v in vertices),
                     key=lambda d: (d["n"], json.dumps(d["b"])))
    return {"size": len(vertices), "vertices": encoded}, []


def _cmd_tree_act(args):
    ctx = tree_context(args.p, args.field)
    g = parse_matrix(_load_json(args.g, "--g"), args.field)
    v = base_vertex(ctx) if args.vertex is None else \
        parse_vertex(_load_json(args.vertex, "--vertex"), ctx)
    return {"vertex": encode_vertex(act(g, v))}, []


def _cmd_hyp_dist(args):
    x = parse_point(_load_json(args.x, "--x"))
    y = parse_point(_load_json(args.y, "--y"))
    return {"distance": float12(hyp_distance(x, y))}, []


def _cmd_displacement(args):
    g = parse_matrix(_load_json(args.g, "--g"), args.field)
    if args.group is not None:
        group = parse_group(_load_json(args.group, "--group"))
    else:
        group = make_group([g], args.field)
    profile = displacement(g, group)
    return {"primes": list(group.ring.primes),
            "trees": list(profile.trees),
            "hyp": float12(profile.hyp)}, []


def _cmd_enumerate(args):
    group = parse_group(_load_json(args.group, "--group"))
    res = enumerate_bounded(group, args.C, args.budget)
    elements = sorted(res.elements, key=_matrix_sort_key)
    return {"C": float12(res.C),
            "complete": res.complete,
            "count": len(elements),
            "elements": [encode_matrix(m) for m in elements]}, \
        [f"primes {list(group.ring.primes)}"]


def _cmd_check_proper(args):
    group = parse_group(_load_json(args.group, "--group"))
    report = properness_check(group, args.C, args.max_len, args.budget)
    if not report.contained:
        err = CheckFailedError(
            "word-ball elements escaped the enumerated bounded set")
        err.payload = {
            "contained": False,
            "word_count": report.word_count,
            "enum_count": report.enum_count,
            "violations": [encode_matrix(m) for m in report.violations],
        }
        raise err
    return {"contained": True,
            "word_count": report.word_count,
            "enum_count": report.enum_count,
            "certificate": report.certificate}, []


def _random_words(generators, count, max_len, seed):
    rng = random.Random(seed)
    steps = _steps(generators)
    out = [Matrix.identity(2)]
    while len(out) < count:
        m = Matrix.identity(2)
        for _ in range(rng.randint(1, max_len)):
            m = m * rng.choice(steps)
        out.append(m)
    return out


_LETTER_LIMIT = 10 ** 5  # embed: sampled words times their longest length


def _cmd_embed(args):
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.samples > 10000:
        raise ValueError("--samples must be at most 10000")
    if args.ball < 0:
        raise ValueError("--ball must be nonnegative")
    group = parse_group(_load_json(args.group, "--group"))
    basis = _select_layered(_word_layers(group.generators, args.ball))
    # after the basis search, which is bounded at any --ball, so that a
    # group with no basis is refused as such
    max_len = max(2 * args.ball, 4)
    if args.samples * max_len > _LETTER_LIMIT:
        raise ValueError(
            f"--samples * max(2 * --ball, 4) must be at most {_LETTER_LIMIT} "
            f"sampled letters, got {args.samples * max_len}")
    rep = Rep4(basis)
    samples = _random_words(group.generators, args.samples, max_len,
                            args.seed)
    checks = verify_embedding(rep, samples)
    result = {
        "basis": [encode_matrix(m) for m in basis.elements],
        "gram": encode_matrix(basis.gram),
        "alpha_tables": [encode_matrix(rep(g)) for g in group.generators],
        "checks": checks,
    }
    return result, [f"seed {args.seed}", f"ball radius {args.ball}"]


def _cmd_check_integral(args):
    g = parse_matrix(_load_json(args.g, "--g"), args.field)
    mp = minimal_polynomial(g.trace())
    return {"integral": integral_characteristic(g),
            "trace_minpoly": [encode_rational(c) for c in mp]}, []


def _cmd_classify(args):
    doc = _load_json(args.basis, "--basis")
    field = None
    if isinstance(doc, dict):
        if set(doc) - {"minpoly", "basis"} or "basis" not in doc:
            raise ValueError('--basis document is {"minpoly"?: [...], '
                             '"basis": [matrix, matrix]}')
        if "minpoly" in doc:
            field = parse_field(doc["minpoly"])
        doc = doc["basis"]
    if not isinstance(doc, list) or len(doc) != 2:
        raise ValueError("--basis needs exactly two matrices")
    y1 = parse_matrix(doc[0], field)
    y2 = parse_matrix(doc[1], field)
    outcome = classify_2dim(make_subalgebra(y1, y2))
    q = outcome.conjugator
    q_inv = q.inverse()
    return {"kind": outcome.kind,
            "conjugator": encode_matrix(q),
            "conjugated_basis": [encode_matrix(q_inv * y1 * q),
                                 encode_matrix(q_inv * y2 * q)],
            "verified": True}, []


def _cmd_normalizer(args):
    g = parse_matrix(_load_json(args.g, "--g"), args.field)
    test = normalizes_torus if args.which == "torus" else normalizes_unipotent
    return {"which": args.which, "normalizes": test(g)}, []


def _cmd_factor_maximal(args):
    field = args.field
    g = parse_matrix(_load_json(args.g, "--g"), field)
    target = parse_matrix(_load_json(args.target, "--target"), field)
    word = maximality_factor(g, target)
    return {"factors": [{"tag": f.tag, "matrix": encode_matrix(f.matrix)}
                        for f in word],
            "length": len(word),
            "verified": True}, []


_HANDLERS = {
    "valuate": _cmd_valuate,
    "tree-dist": _cmd_tree_dist,
    "tree-ball": _cmd_tree_ball,
    "tree-act": _cmd_tree_act,
    "hyp-dist": _cmd_hyp_dist,
    "displacement": _cmd_displacement,
    "enumerate": _cmd_enumerate,
    "check-proper": _cmd_check_proper,
    "embed": _cmd_embed,
    "check-integral": _cmd_check_integral,
    "classify": _cmd_classify,
    "normalizer": _cmd_normalizer,
    "factor-maximal": _cmd_factor_maximal,
}

_MATRIX_HELP = ('matrix as JSON nested array of rationals ("3/4") or '
                'coefficient arrays when a field is declared')
_GROUP_HELP = ('group as JSON {"minpoly"?: [...], "generators": '
               '[matrix, ...], "root_index"?: int}')
_VERTEX_HELP = 'vertex as JSON {"n": int, "b": element}'


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sl2kit",
                     description="Exact SL(2) toolkit: valuations, trees, "
                                 "hyperbolic displacement, bounded "
                                 "enumeration, trace embedding, subalgebra "
                                 "classification.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # flags shared by several subcommands, declared once as parent parsers
    prime = _Parser(add_help=False)
    prime.add_argument("--p", type=int, required=True, help="prime")
    field = _Parser(add_help=False)
    field.add_argument("--minpoly",
                       help="field declaration as JSON integer array "
                            "[c0, ..., 1], constant term first")
    bounded = _Parser(add_help=False)
    bounded.add_argument("--group", required=True, help=_GROUP_HELP)
    bounded.add_argument("--C", type=float, required=True, help="strict bound")
    bounded.add_argument("--budget", type=int,
                         help="cap on the enumeration walk's steps "
                              f"(default: ${BUDGET_ENV_VAR} or 5*10^5)")

    p = sub.add_parser("valuate", parents=[prime, field],
                       help="discrete valuation of one element")
    p.add_argument("--x", required=True,
                   help='element: rational like 9/2, or JSON array of '
                        'rational strings when --minpoly is given')

    p = sub.add_parser("tree-dist", parents=[prime, field],
                       help="tree distance between vertices")
    p.add_argument("--g", help=_MATRIX_HELP + "; distance from the base "
                                              "vertex to its image")
    p.add_argument("--u", help=_VERTEX_HELP)
    p.add_argument("--v", help=_VERTEX_HELP)

    p = sub.add_parser("tree-ball", parents=[prime, field],
                       help="all vertices within a radius")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--center", help=_VERTEX_HELP + " (default: base vertex)")

    p = sub.add_parser("tree-act", parents=[prime, field],
                       help="image of a vertex under a matrix")
    p.add_argument("--g", required=True, help=_MATRIX_HELP)
    p.add_argument("--vertex", help=_VERTEX_HELP + " (default: base vertex)")

    p = sub.add_parser("hyp-dist", help="hyperbolic distance between points")
    p.add_argument("--x", required=True,
                   help='point as JSON {"z": [re, im], "t": t}')
    p.add_argument("--y", required=True,
                   help='point as JSON {"z": [re, im], "t": t}')

    p = sub.add_parser("displacement", parents=[field],
                       help="per-prime tree and hyperbolic displacement")
    p.add_argument("--g", required=True, help=_MATRIX_HELP)
    p.add_argument("--group", help=_GROUP_HELP +
                                    " (default: the group marked by g alone)")

    sub.add_parser("enumerate", parents=[bounded],
                   help="all group elements with displacement below C")

    p = sub.add_parser("check-proper", parents=[bounded],
                       help="certify word-ball elements against the "
                            "enumerated bounded set (exit 3 on violation)")
    p.add_argument("--max-len", type=int, required=True,
                   help="word length for the empirical ball")

    p = sub.add_parser("embed",
                       help="4x4 trace-functional representation and checks")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--samples", type=int, default=100,
                   help="number of sampled words for the checks")
    p.add_argument("--ball", type=int, default=3,
                   help="word-ball radius searched for the basis (the "
                        "search stops at the first layer that raises no "
                        "rank, so it reads at most the radius-3 ball); "
                        "sampled words have up to max(2*BALL, 4) letters, "
                        "and SAMPLES times that is at most 100000")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled words")

    p = sub.add_parser("check-integral", parents=[field],
                       help="is the characteristic polynomial integral?")
    p.add_argument("--g", required=True, help=_MATRIX_HELP)

    p = sub.add_parser("classify",
                       help="conjugate a 2-dimensional subalgebra of sl2 "
                            "into upper-triangular form")
    p.add_argument("--basis", required=True,
                   help='JSON [matrix, matrix] or {"minpoly"?: [...], '
                        '"basis": [matrix, matrix]}')

    p = sub.add_parser("normalizer", parents=[field],
                       help="does g normalize the torus or unipotent line?")
    p.add_argument("--which", choices=("torus", "unipotent"), required=True)
    p.add_argument("--g", required=True, help=_MATRIX_HELP)

    p = sub.add_parser("factor-maximal", parents=[field],
                       help="factor a target over the upper-triangular "
                            "subgroup and one outside element")
    p.add_argument("--g", required=True,
                   help=_MATRIX_HELP + " (must have nonzero lower-left "
                                       "entry)")
    p.add_argument("--target", required=True, help=_MATRIX_HELP)

    return parser


def _emit(status: str, result, diagnostics) -> None:
    doc = {"status": status, "result": result, "diagnostics": diagnostics}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _error_result(exc: Sl2KitError) -> dict:
    out = {"code": exc.code, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        if isinstance(witness, Matrix):
            out["witness"] = encode_matrix(witness)
        elif isinstance(witness, tuple):
            out["witness"] = [int(c) for c in witness]
        else:
            out["witness"] = encode_scalar(witness)
    pair = getattr(exc, "counterexample", None)
    if pair is not None:
        out["counterexample"] = [encode_scalar(x) for x in pair]
    payload = getattr(exc, "payload", None)
    if payload is not None:
        out.update(payload)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ValueError("a command is required (see --help)")
        minpoly = getattr(args, "minpoly", None)
        args.field = None if minpoly is None else \
            parse_field(_load_json(minpoly, "--minpoly"))
        result, diagnostics = _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        _emit("error", {"code": "Usage", "message": str(exc)}, [])
        return 1
    except Sl2KitError as exc:
        try:
            result = _error_result(exc)
        except UnsupportedError as too_long:  # a witness too long to write
            exc, result = too_long, _error_result(too_long)
        _emit("error", result, [])
        return 3 if isinstance(exc, CheckFailedError) else 2
    _emit("ok", result, diagnostics)
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
