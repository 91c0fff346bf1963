"""Command-line interface: envelopes, exit codes, byte-stable output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sl2kit
import sl2kit.cli as cli
import sl2kit.hyperbolic as hyperbolic
from oracles import first_independent, matrix_word_ball
from sl2kit import (PropernessReport, ball, base_vertex, make_field, mat,
                    tree_context)
from sl2kit.cli import main
from sl2kit.serialization import encode_matrix, float12

SL2Z = '{"generators": [[["0","-1"],["1","0"]],[["1","1"],["0","1"]]]}'


def run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_valuate_golden(capsys):
    expect = '{"diagnostics": [], "result": {"value": 2}, "status": "ok"}\n'
    rc, out = run(["valuate", "--p", "3", "--x", "9/2"], capsys)
    assert rc == 0 and out == expect
    rc, out = run(["valuate", "--p", "3", "--x", "9/2"], capsys)
    assert out == expect  # byte-stable across runs


def test_valuate_infinite(capsys):
    rc, out = run(["valuate", "--p", "5", "--x", "0"], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["value"] == "inf"


def test_valuate_gate_failure(capsys):
    rc, out = run(["valuate", "--p", "2", "--minpoly", "[-2,0,1]",
                   "--x", '["0","1"]'], capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["result"]["code"] == "NotAValuation"
    assert doc["result"]["counterexample"] == [["0", "1"], ["0", "1"]]


def test_valuate_gate_failure_at_large_prime(capsys):
    # x^2 + 2 splits mod 1000003; the pair comes from its factors there
    p = 1000003
    rc, out = run(["valuate", "--p", str(p), "--minpoly", "[2,0,1]",
                   "--x", '["1","1"]'], capsys)
    assert rc == 2 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["result"]["code"] == "NotAValuation"
    (g0, g1), (h0, h1) = ([int(c) for c in e]
                          for e in doc["result"]["counterexample"])
    assert g1 == h1 == 1 and 0 <= g0 < p and 0 <= h0 < p
    assert (g0 * h0 - 2) % p == 0 and (g0 + h0) % p == 0


def test_valuate_rejects_composite_prime(capsys):
    rc, out = run(["valuate", "--p", "4", "--x", "1"], capsys)
    assert rc == 1
    doc = json.loads(out)
    assert doc["result"]["code"] == "Usage"
    assert doc["result"]["message"] == "p must be a prime number, got 4"


def test_large_prime_repros_print_one_envelope(capsys):
    # both used to trial-divide up to sqrt(p), about 1e9 steps
    p = 1000000000000000003
    rc, out = run(["valuate", "--p", str(p), "--x", "1"], capsys)
    assert rc == 0 and out.count("\n") == 1
    assert json.loads(out)["result"]["value"] == 0
    rc, out = run(["displacement", "--g",
                   f'[["1/{p}","0"],["0","{p}"]]'], capsys)
    assert rc == 0 and out.count("\n") == 1
    doc = json.loads(out)["result"]
    assert doc["primes"] == [p] and doc["trees"] == [2]


def test_uncertifiable_denominator_prints_one_envelope(capsys):
    # the denominator has no factor below 1000 and lies above the bound of
    # the deterministic primality test, so its factorisation is refused
    q = "1000000000000000000000000000057"
    rc, out = run(["displacement", "--g", f'[["{q}","0"],["0","1/{q}"]]'],
                  capsys)
    assert rc == 2 and out.count("\n") == 1
    assert json.loads(out)["result"]["code"] == "Unsupported"
    # the same number as a constant term: its divisors cannot be listed
    rc, out = run(["valuate", "--p", "3", "--minpoly", f"[{q},0,1]",
                   "--x", '["0","1"]'], capsys)
    assert rc == 2 and out.count("\n") == 1
    assert json.loads(out)["result"]["code"] == "Unsupported"


def test_tree_dist_golden(capsys):
    expect = '{"diagnostics": [], "result": {"distance": 2}, "status": "ok"}\n'
    rc, out = run(["tree-dist", "--p", "2", "--g",
                   '[["2","0"],["0","1/2"]]'], capsys)
    assert rc == 0 and out == expect


def test_tree_dist_vertex_pair(capsys):
    rc, out = run(["tree-dist", "--p", "2", "--u", '{"n": 0, "b": "0"}',
                   "--v", '{"n": 2, "b": "1"}'], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["distance"] == 2


def test_tree_dist_singular_g_exit_2(capsys):
    rc, out = run(["tree-dist", "--p", "2", "--g", '[["1","1"],["1","1"]]'],
                  capsys)
    assert rc == 2 and out.count("\n") == 1
    assert json.loads(out)["result"]["code"] == "Singular"


def test_tree_ball_golden(capsys):
    expect = ('{"diagnostics": [], "result": {"size": 4, "vertices": '
              '[{"b": "0", "n": -1}, {"b": "0", "n": 0}, {"b": "0", "n": 1},'
              ' {"b": "1", "n": 1}]}, "status": "ok"}\n')
    rc, out = run(["tree-ball", "--p", "2", "--radius", "1"], capsys)
    assert rc == 0 and out == expect


@pytest.mark.parametrize("argv", [
    ["--p", "2", "--radius", "40"],
    ["--p", "2", "--radius", str(10**9)],
    ["--p", "10007", "--minpoly", "[1,0,1]", "--radius", "1"],
])
def test_tree_ball_over_the_limit_is_unsupported(capsys, monkeypatch, argv):
    def no_walk(v, radius):
        raise AssertionError("the ball was walked")

    monkeypatch.setattr(cli, "ball", no_walk)
    rc, out = run(["tree-ball"] + argv, capsys)
    assert rc == 2 and out.count("\n") == 1
    doc = json.loads(out)["result"]
    assert doc["code"] == "Unsupported"
    assert doc["message"].endswith("vertices, over the limit of 100000")


@pytest.mark.parametrize("p, minpoly, radius", [
    (2, None, 5), (3, None, 3), (5, None, 2), (3, [1, 0, 1], 2),
    (2, [1, 1, 1], 2)])
def test_tree_ball_size_counts_the_ball(p, minpoly, radius):
    ctx = tree_context(p, None if minpoly is None else
                       sl2kit.make_field(minpoly))
    q = ctx.valuation.residue_size
    for r in range(radius + 1):
        assert cli._ball_size(q, r) == len(ball(base_vertex(ctx), r))


def test_tree_ball_limit_at_p_2():
    # radius 15 holds 98,302 vertices and radius 16 holds 196,606
    assert cli._ball_size(2, 15) == 98302 <= cli._BALL_LIMIT
    assert cli._ball_size(2, 16) == 196606
    assert cli._ball_size(2, 10**9) == 196606  # counted no further


def test_tree_act_golden(capsys):
    rc, out = run(["tree-act", "--p", "2", "--g", '[["1","1"],["0","1"]]',
                   "--vertex", '{"n": 1, "b": "0"}'], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["vertex"] == {"b": "1", "n": 1}


@pytest.mark.parametrize("n", [10**8, -10**8])
@pytest.mark.parametrize("flags", [
    ["tree-dist", "--p", "2", "--v", '{"n": 0, "b": "0"}', "--u"],
    ["tree-act", "--p", "2", "--g", '[["1","1"],["0","1"]]', "--vertex"],
    ["tree-ball", "--p", "2", "--radius", "1", "--center"],
])
def test_vertex_exponent_out_of_range_is_unsupported(capsys, flags, n):
    rc, out = run(flags + [json.dumps({"n": n, "b": "1"})], capsys)
    assert rc == 2 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["result"]["code"] == "Unsupported"
    assert "2**14" in doc["result"]["message"]


def test_vertex_exponent_at_the_bound(capsys):
    rc, out = run(["tree-dist", "--p", "2", "--u", '{"n": 16384, "b": "0"}',
                   "--v", '{"n": 0, "b": "0"}'], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["distance"] == 16384


def test_hyp_dist_golden(capsys):
    expect = ('{"diagnostics": [], "result": {"distance": 1.38629436112}, '
              '"status": "ok"}\n')
    rc, out = run(["hyp-dist", "--x", '{"z": [0, 0], "t": 1}',
                   "--y", '{"z": [0, 0], "t": 4}'], capsys)
    assert rc == 0 and out == expect


def test_displacement_golden(capsys):
    expect = ('{"diagnostics": [], "result": {"hyp": 1.38629436112, '
              '"primes": [2], "trees": [2]}, "status": "ok"}\n')
    rc, out = run(["displacement", "--g", '[["2","0"],["0","1/2"]]'], capsys)
    assert rc == 0 and out == expect


def test_root_refinement_failure_is_unsupported(capsys, monkeypatch):
    monkeypatch.setattr(hyperbolic, "_refine_root", lambda coeffs, z: z + 1)
    rc, out = run(["displacement", "--minpoly", "[8194, 0, 1]",
                   "--g", '[["1","1"],["0","1"]]'], capsys)
    assert rc == 2 and out.count("\n") == 1
    assert json.loads(out)["result"] == {
        "code": "Unsupported",
        "message": "root refinement failed its tolerance"}


@pytest.mark.parametrize("g, cosh", [('[["1","1"],["0","1"]]', 1.5),
                                     ('[[["1"],["0","1"]],[["0"],["1"]]]',
                                      4098)])
def test_displacement_over_x2_plus_8194_answers(capsys, g, cosh):
    # |f(root)| is about 2e-12 at the root of absolute size 90.5; the
    # residual is measured against the terms it sums, as a backward error
    rc, out = run(["displacement", "--minpoly", "[8194, 0, 1]", "--g", g],
                  capsys)
    assert rc == 0
    assert json.loads(out)["result"]["hyp"] == float12(math.acosh(cosh))


@pytest.mark.parametrize("minpoly", [
    f"[{2**1024}, 0, 1]",      # numpy.roots meets a coefficient of 2^1024
    f"[1, 0, {2**1023}, 1]",   # the Newton polish meets f' with 2^1024
], ids=["roots", "polish"])
def test_minpoly_beyond_float_range_is_unsupported(capsys, minpoly):
    rc, out = run(["displacement", "--minpoly", minpoly,
                   "--g", '[["1","1"],["0","1"]]'], capsys)
    assert rc == 2 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["code"] == "Unsupported"
    assert "beyond float range" in result["message"]


def test_minpoly_at_the_float_range_edge_answers(capsys):
    # x^2 + 2^1023: every coefficient and the root i 2^511.5 are floats
    rc, out = run(["displacement", "--minpoly", f"[{2**1023}, 0, 1]",
                   "--g", '[["1","1"],["0","1"]]'], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["hyp"] == 0.962423650119


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**9))
@example(8194)
@example(1)
def test_displacement_over_x2_plus_c_prints_one_envelope(c):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["displacement", "--minpoly", f"[{c}, 0, 1]",
                   "--g", '[["1","1"],["0","1"]]'])
    out = buf.getvalue()
    assert rc == 0 and out.count("\n") == 1
    assert json.loads(out)["result"]["hyp"] == float12(math.acosh(1.5))


def test_enumerate_golden(capsys):
    expect = ('{"diagnostics": ["primes []"], "result": {"C": 0.1, '
              '"complete": true, "count": 4, "elements": '
              '[[["-1", "0"], ["0", "-1"]], [["0", "-1"], ["1", "0"]], '
              '[["0", "1"], ["-1", "0"]], [["1", "0"], ["0", "1"]]]}, '
              '"status": "ok"}\n')
    rc, out = run(["enumerate", "--group", SL2Z, "--C", "0.1"], capsys)
    assert rc == 0 and out == expect


def test_enumerate_budget_exit_2(capsys):
    rc, out = run(["enumerate", "--group",
                   '{"generators": [[["2","0"],["0","1/2"]]]}',
                   "--C", "3.0", "--budget", "1000"], capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["result"]["code"] == "BudgetExceeded"
    assert "over the budget of 1000" in doc["result"]["message"]


def test_enumerate_even_bound_fits_budget(capsys):
    # at C = 4 the trees admit denominators 2^1 only (2 v_2 < 4), so the
    # walk is sized at D = 2, not 4
    group = ('{"generators": [[["0","-1"],["1","0"]],[["1","1"],["0","1"]],'
             '[["2","0"],["0","1/2"]]]}')
    rc, out = run(["enumerate", "--group", group, "--C", "4",
                   "--budget", "100000"], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["count"] == 2268


@pytest.mark.parametrize("budget, rc", [("1000", 0), ("213", 0), ("212", 2)])
def test_enumerate_budget_counts_the_walk(capsys, budget, rc):
    # SL(2, Z) at C = 3: a scan square of 9^2 = 81 points and 132 pairs,
    # one per element, so 213 steps
    got, out = run(["enumerate", "--group", SL2Z, "--C", "3",
                    "--budget", budget], capsys)
    result = json.loads(out)["result"]
    assert got == rc
    if rc == 0:
        assert result["count"] == 132
    else:
        assert result["code"] == "BudgetExceeded"
        assert "213 steps" in result["message"]
        assert result["message"].endswith("over the budget of 212")


def test_enumerate_budget_message_with_a_huge_walk(capsys):
    # over the first ten primes D = (2 * 3 * ... * 29)^349 at C = 700, and
    # the scan square has about 7,150 digits
    gens = [[[str(p), "0"], ["0", f"1/{p}"]]
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    rc, out = run(["enumerate", "--group", json.dumps({"generators": gens}),
                   "--C", "700"], capsys)
    assert rc == 2 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["code"] == "BudgetExceeded"
    assert "over the budget of 500000" in result["message"]


def test_enumerate_nan_bound_is_usage_error(capsys):
    rc, out = run(["enumerate", "--group", SL2Z, "--C", "nan"], capsys)
    assert rc == 1
    doc = json.loads(out)
    assert doc["result"]["code"] == "Usage"
    assert "NaN" in doc["result"]["message"]


def strict_json(out):
    """Parse one envelope, refusing the non-JSON tokens Infinity and NaN."""
    def refuse(token):
        raise AssertionError(f"non-JSON token {token}")
    return json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize("C, rc, code", [("800", 2, "BudgetExceeded"),
                                         ("1e300", 2, "BudgetExceeded"),
                                         ("inf", 1, "Usage")])
def test_enumerate_huge_bounds_give_envelopes(capsys, C, rc, code):
    got, out = run(["enumerate", "--group", SL2Z, "--C", C], capsys)
    assert got == rc
    assert strict_json(out)["result"]["code"] == code


def test_displacement_beyond_float_range(capsys):
    g = json.dumps([["1" + "0" * 400, "0"], ["0", "1/1" + "0" * 400]])
    rc, out = run(["displacement", "--g", g], capsys)
    assert rc == 0
    result = strict_json(out)["result"]
    assert result["primes"] == [2, 5] and result["trees"] == [800, 800]
    assert abs(result["hyp"] - 800 * math.log(10)) < 1e-6


# g over Q and the same matrix over Q(i): det 1 exactly, though the float
# products of the 10^17 entries round ad - bc to 0
BIG_DET_ONE = '[["100000000000000001","100000000000000000"],["1","1"]]'
BIG_DET_ONE_QI = ('[[["100000000000000001","0"],["100000000000000000","0"]],'
                  '[["1","0"],["1","0"]]]')


def test_field_displacement_of_large_exact_det_one(capsys):
    rc, out = run(["displacement", "--minpoly", "[1,0,1]",
                   "--g", BIG_DET_ONE_QI], capsys)
    assert rc == 0
    field_hyp = strict_json(out)["result"]["hyp"]
    rc, out = run(["displacement", "--g", BIG_DET_ONE], capsys)
    assert rc == 0
    assert field_hyp == strict_json(out)["result"]["hyp"] == 78.9810403424


X_BIG = 13 * 10 ** 153  # X^2 fits a float, 2 X^2 does not


@pytest.mark.parametrize("rows", [[[X_BIG, X_BIG - 1], [1, 1]],
                                  [[1, 10 ** 160], [0, 1]],
                                  [[1, 10 ** 400], [0, 1]]])
def test_field_displacement_beyond_float_range_is_unsupported(capsys, rows):
    g = json.dumps([[[str(x), "0"] for x in row] for row in rows])
    rc, out = run(["displacement", "--minpoly", "[1,0,1]", "--g", g], capsys)
    assert rc == 2
    assert out.count("\n") == 1 and "Infinity" not in out
    assert strict_json(out)["result"]["code"] == "Unsupported"


@pytest.mark.parametrize("x, y, expect", [
    ({"z": [1e308, 0], "t": 1}, {"z": [-1e308, 0], "t": 1},
     2 * (math.log(2) + 308 * math.log(10))),
    ({"z": [1e300, 0], "t": 1e-300}, {"z": [0, 0], "t": 1},
     900 * math.log(10)),
    ({"z": [0, 0], "t": 1}, {"z": [0, 0], "t": 4}, math.log(4)),
])
def test_hyp_dist_extreme_points_finite(capsys, x, y, expect):
    rc, out = run(["hyp-dist", "--x", json.dumps(x), "--y", json.dumps(y)],
                  capsys)
    assert rc == 0
    assert abs(strict_json(out)["result"]["distance"] - expect) < 1e-6


@pytest.mark.parametrize("x", ['{"z": [1e400, 0], "t": 1}',
                               '{"z": [0, 0], "t": 1' + "0" * 400 + '}',
                               '{"z": [NaN, 0], "t": 1}'])
def test_hyp_dist_nonfinite_points_exit_2(capsys, x):
    rc, out = run(["hyp-dist", "--x", x, "--y", '{"z": [0, 0], "t": 1}'],
                  capsys)
    assert rc == 2
    assert strict_json(out)["result"]["code"] == "DegenerateInput"


def test_check_proper_contained(capsys):
    rc, out = run(["check-proper", "--group", SL2Z, "--C", "1.0",
                   "--max-len", "4"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["contained"] is True
    assert doc["result"]["word_count"] == 20
    assert doc["result"]["enum_count"] == 20


def test_check_proper_finite_group_stops_at_its_first_empty_layer(capsys):
    # <S> has four elements, so layer 3 is empty and the walk ends there
    group = '{"generators": [[["0","-1"],["1","0"]]]}'
    outs = [run(["check-proper", "--group", group, "--C", "1",
                 "--max-len", max_len], capsys)
            for max_len in ("3", "1000000000000000000")]
    assert outs[0] == outs[1]
    rc, out = outs[1]
    assert rc == 0 and json.loads(out)["result"]["word_count"] == 4


def test_check_proper_walk_limit_is_unsupported(capsys):
    # SL(2, Z) grows by about 1.6x per layer: length 23 would pass the
    # walked-element limit, so the walk stops there, whatever max_len is
    rc, out = run(["check-proper", "--group", SL2Z, "--C", "2",
                   "--max-len", str(10 ** 9)], capsys)
    assert rc == 2 and out.count("\n") == 1
    assert strict_json(out)["result"] == {
        "code": "Unsupported",
        "message": "a word ball of length 23 may walk 1227444 elements, "
                   "over the limit of 1000000"}


def test_check_proper_violation_exit_3(capsys, monkeypatch):
    real = cli.properness_check
    bogus = mat([[1, 50], [0, 1]])

    def planted(group, C, max_len, budget=None):
        r = real(group, C, max_len, budget)
        return PropernessReport(False, r.word_count, r.enum_count,
                                r.certificate, (bogus,))

    monkeypatch.setattr(cli, "properness_check", planted)
    rc, out = run(["check-proper", "--group", SL2Z, "--C", "0.1",
                   "--max-len", "2"], capsys)
    assert rc == 3
    doc = json.loads(out)
    assert doc["result"]["code"] == "CheckFailed"
    assert doc["result"]["violations"] == [[["1", "50"], ["0", "1"]]]


def test_embed_report(capsys):
    rc, out = run(["embed", "--group", SL2Z, "--samples", "10",
                   "--ball", "2", "--seed", "0"], capsys)
    assert rc == 0
    doc = json.loads(out)
    checks = doc["result"]["checks"]
    assert checks["ok"] is True
    assert checks["samples"] == 10
    assert checks["all_entries_integral"] is True
    assert doc["result"]["basis"][0] == [["1", "0"], ["0", "1"]]
    assert doc["diagnostics"] == ["seed 0", "ball radius 2"]
    # deterministic under a fixed seed
    rc2, out2 = run(["embed", "--group", SL2Z, "--samples", "10",
                     "--ball", "2", "--seed", "0"], capsys)
    assert out2 == out


FIELD_GROUP = ('{"minpoly": [1,1,1], "generators": '
               '[[[["1"],["0","1"]],[["0"],["1"]]], [["0","-1"],["1","0"]]]}')


def test_embed_field_golden(capsys):
    # basis and Gram matrix mix Fraction and FieldElement entries, and the
    # alpha tables show which entries come out as field elements
    expect = (
        '{"diagnostics": ["seed 0", "ball radius 2"], "result": '
        '{"alpha_tables": [[[["0", "0"], ["-1", "0"], ["0", "0"], ["0", '
        '"0"]], [["1", "0"], ["2", "0"], ["0", "0"], ["0", "0"]], '
        '[["0", "0"], ["0", "0"], ["0", "0"], ["-1", "0"]], [["0", '
        '"0"], ["0", "0"], ["1", "0"], ["2", "0"]]], [[["0", "0"], '
        '["0", "1"], ["-1", "0"], ["-2", "0"]], [["0", "0"], ["0", '
        '"0"], ["0", "0"], ["1", "0"]], [["1", "0"], ["2", "0"], ["0", '
        '"0"], ["0", "1"]], [["0", "0"], ["-1", "0"], ["0", "0"], ["0", '
        '"0"]]]], "basis": [[["1", "0"], ["0", "1"]], [[["1", "0"], '
        '["0", "1"]], [["0", "0"], ["1", "0"]]], [["0", "-1"], ["1", '
        '"0"]], [[["0", "1"], ["-1", "0"]], [["1", "0"], ["0", "0"]]]], '
        '"checks": {"all_entries_integral": true, "entry_integrality": '
        '[true, true, true, true, true, true], "failures": [], '
        '"homomorphism_pairs": 5, "identity_images": 2, "ok": true, '
        '"samples": 6}, "gram": [["2", ["2", "0"], "0", ["0", "1"]], '
        '[["2", "0"], ["2", "0"], ["0", "1"], ["0", "2"]], ["0", ["0", '
        '"1"], "-2", ["-2", "0"]], [["0", "1"], ["0", "2"], ["-2", '
        '"0"], ["-3", "-1"]]]}, "status": "ok"}'
        "\n")
    rc, out = run(["embed", "--group", FIELD_GROUP, "--samples", "6",
                   "--ball", "2"], capsys)
    assert rc == 0 and out == expect
    # the basis is the first four linearly independent ball elements
    k = make_field([1, 1, 1])
    u = mat([[k.one(), k.gamma()], [k.zero(), k.one()]])
    s = mat([[0, -1], [1, 0]])
    kept = first_independent(matrix_word_ball([u, s], 2))
    assert json.loads(out)["result"]["basis"] == [
        encode_matrix(g) for g in kept]


DYADIC_GROUP = ('{"generators": [[["0","-1"],["1","0"]], [["1","1"],["0","1"]], '
                '[["2","0"],["0","1/2"]]]}')


@pytest.mark.parametrize("group, argv, expect", [
    pytest.param(SL2Z, ["--samples", "10", "--ball", "2", "--seed", "0"], (
        '{"diagnostics": ["seed 0", "ball radius 2"], "result": '
        '{"alpha_tables": [[["0", "-1", "0", "0"], ["1", "0", "0", '
        '"0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]], [["0", '
        '"1", "-1", "0"], ["0", "2", "0", "1"], ["1", "0", "2", "1"], '
        '["0", "-1", "0", "0"]]], "basis": [[["1", "0"], ["0", "1"]], '
        '[["0", "-1"], ["1", "0"]], [["1", "1"], ["0", "1"]], [["0", '
        '"-1"], ["1", "1"]]], "checks": {"all_entries_integral": true, '
        '"entry_integrality": [true, true, true, true, true, true, '
        'true, true, true, true], "failures": [], "homomorphism_pairs":'
        ' 9, "identity_images": 2, "ok": true, "samples": 10}, "gram": '
        '[["2", "0", "2", "1"], ["0", "-2", "1", "-2"], ["2", "1", "2",'
        ' "2"], ["1", "-2", "2", "-1"]]}, "status": "ok"}\n'),
        id="SL(2,Z)"),
    # the unit tables of this basis are not integral, and neither are the
    # images of three of the six samples
    pytest.param(DYADIC_GROUP, ["--samples", "6", "--ball", "2",
                                "--seed", "0"], (
        '{"diagnostics": ["seed 0", "ball radius 2"], "result": '
        '{"alpha_tables": [[["0", "-1", "4/3", "-3/2"], ["1", "0", "1",'
        ' "2"], ["0", "0", "0", "3/2"], ["0", "0", "-2/3", "0"]], '
        '[["0", "-1/3", "-1", "-1/2"], ["0", "1", "0", "0"], ["1", "0",'
        ' "2", "1/2"], ["0", "2/3", "0", "1"]], [["0", "3/2", "-2", '
        '"-1"], ["0", "1/2", "0", "0"], ["0", "-3/2", "2", "0"], ["1", '
        '"0", "1", "5/2"]]], "basis": [[["1", "0"], ["0", "1"]], [["0",'
        ' "-1"], ["1", "0"]], [["1", "1"], ["0", "1"]], [["2", "0"], '
        '["0", "1/2"]]], "checks": {"all_entries_integral": false, '
        '"entry_integrality": [true, false, true, true, false, false], '
        '"failures": [], "homomorphism_pairs": 5, "identity_images": 2,'
        ' "ok": true, "samples": 6}, "gram": [["2", "0", "2", "5/2"], '
        '["0", "-2", "1", "0"], ["2", "1", "2", "5/2"], ["5/2", "0", '
        '"5/2", "17/4"]]}, "status": "ok"}\n'),
        id="S,T,diag(2,1/2)"),
])
def test_embed_rational_golden(capsys, group, argv, expect):
    # every field of the report, byte for byte: basis, Gram matrix, the
    # images of the generators and the sampled checks
    rc, out = run(["embed", "--group", group] + argv, capsys)
    assert rc == 0 and out == expect


PARABOLIC_GROUP = ('{"generators": [[["1","1"],["0","1"]], '
                   '[["2","0"],["0","1/2"]], [["1","0"],["1","1"]]]}')


def test_embed_takes_a_parabolic_after_the_identity(capsys):
    # I, T, diag(2, 1/2), L are independent, though the Gram block of I and
    # a parabolic is singular
    rc, out = run(["embed", "--group", PARABOLIC_GROUP, "--ball", "1"],
                  capsys)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["checks"]["ok"] is True
    assert result["basis"] == [
        [["1", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]],
        [["2", "0"], ["0", "1/2"]], [["1", "0"], ["1", "1"]]]


def test_embed_cyclic_group_reports_the_trace_rank(capsys):
    # a ball of <T> spans I and T, which are independent: rank 2
    cyclic = '{"generators": [[["1","1"],["0","1"]]]}'
    rc, out = run(["embed", "--group", cyclic, "--ball", "3"], capsys)
    assert rc == 2
    assert json.loads(out)["result"] == {
        "code": "RankDeficient",
        "message": "stream exhausted with trace rank 2 < 4"}


def test_embed_refuses_an_upper_triangular_group_after_three_layers(capsys):
    # I, T, diag(2, 1/2) span the upper triangular matrices, and layer 2
    # adds nothing to them, so the search stops there whatever --ball is
    upper = ('{"generators": [[["1","1"],["0","1"]], '
             '[["2","0"],["0","1/2"]]]}')
    rc, out = run(["embed", "--group", upper, "--ball", "1000000"], capsys)
    assert rc == 2
    assert json.loads(out)["result"] == {
        "code": "RankDeficient",
        "message": "stream exhausted with trace rank 3 < 4"}


@pytest.mark.parametrize("argv", [
    ["embed", "--group", SL2Z, "--samples", "0"],
    ["embed", "--group", SL2Z, "--samples", "-3"],
    ["embed", "--group", SL2Z, "--ball", "-1"],
    ["check-proper", "--group", SL2Z, "--C", "1.0", "--max-len", "-1"],
    ["enumerate", "--group", SL2Z, "--C", "1.0", "--budget", "-1"],
    ["check-proper", "--group", SL2Z, "--C", "1.0", "--max-len", "2",
     "--budget", "-1"],
])
def test_negative_sizes_are_usage_errors(capsys, argv):
    rc, out = run(argv, capsys)
    assert rc == 1 and out.count("\n") == 1
    assert json.loads(out)["result"]["code"] == "Usage"


def test_embed_negative_ball_names_the_flag(capsys):
    rc, out = run(["embed", "--group", SL2Z, "--ball", "-1"], capsys)
    assert rc == 1
    assert json.loads(out)["result"] == {
        "code": "Usage", "message": "--ball must be nonnegative"}


def test_embed_samples_upper_bound(capsys):
    rc, out = run(["embed", "--group", SL2Z, "--samples", "10001"], capsys)
    assert rc == 1
    assert json.loads(out)["result"] == {
        "code": "Usage", "message": "--samples must be at most 10000"}


@pytest.mark.parametrize("samples, ball, letters", [
    ("1000", "1000", 2000000), ("100", "501", 100200), ("10000", "6", 120000),
    ("1", "50001", 100002), ("25001", "0", None)])
def test_embed_sampled_letters_upper_bound(capsys, samples, ball, letters):
    # words have up to max(2 * --ball, 4) letters; 10^5 letters in all
    rc, out = run(["embed", "--group", SL2Z, "--samples", samples,
                   "--ball", ball], capsys)
    assert rc == 1
    message = json.loads(out)["result"]["message"]
    if letters is None:  # the --samples bound comes first
        assert message == "--samples must be at most 10000"
    else:
        assert message == (f"--samples * max(2 * --ball, 4) must be at most "
                           f"100000 sampled letters, got {letters}")


def test_embed_sampled_letters_bound_is_inclusive(capsys):
    # one sample is the identity word, so 1 * 2 * 50000 letters run fast
    rc, out = run(["embed", "--group", SL2Z, "--samples", "1",
                   "--ball", "50000"], capsys)
    assert rc == 0 and json.loads(out)["result"]["checks"]["ok"] is True


def test_check_integral_golden(capsys):
    expect = ('{"diagnostics": [], "result": {"integral": true, '
              '"trace_minpoly": ["-2", "1"]}, "status": "ok"}\n')
    rc, out = run(["check-integral", "--g", '[["1","1"],["0","1"]]'], capsys)
    assert rc == 0 and out == expect


def test_check_integral_result_beyond_the_digit_limit_is_unsupported(capsys):
    # both entries are read, but the trace 10^4000 + 10^-4000 has 8,001
    # digits, more than Python writes as a string
    rc, out = run(["check-integral", "--g",
                   '[["1e4000","0"],["0","1e-4000"]]'], capsys)
    assert rc == 2
    assert json.loads(out)["result"] == {
        "code": "Unsupported",
        "message": "a rational in the result has a numerator or denominator "
                   "of more than 4300 digits, too long to write"}


TOO_LONG = {"code": "Unsupported",
            "message": "a rational in the result has a numerator or "
                       "denominator of more than 4300 digits, too long to "
                       "write"}


@pytest.mark.parametrize("basis", [
    # the bracket, NotASubalgebra's witness, has an entry of 8,001 digits
    '[[["0","1e4000"],["0","0"]],[["0","0"],["1e4000","0"]]]',
    # y2 = 10^8000 * y1: the IndependenceFailure message writes a stand-in
    # for c, and its witness c cannot be written
    '[[["1e-4000","0"],["0","-1e-4000"]],[["1e4000","0"],["0","-1e4000"]]]'])
def test_error_witness_beyond_the_digit_limit_is_unsupported(capsys, basis):
    rc, out = run(["classify", "--basis", basis], capsys)
    assert rc == 2 and out.count("\n") == 1
    assert json.loads(out)["result"] == TOO_LONG


def test_det_not_one_beyond_the_digit_limit_keeps_its_code(capsys):
    rc, out = run(["displacement", "--g", '[["1","0"],["0","1"]]', "--group",
                   '{"generators": [[["1e4000","0"],["0","1e4000"]]]}'],
                  capsys)
    assert rc == 2 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["code"] == "DetNotOne"
    assert result["message"].startswith("generator Matrix[1000")
    assert result["message"].endswith(
        "has determinant <a number of more than 4300 digits>")


def test_unfactorable_denominator_beyond_the_digit_limit(capsys):
    # the lcm of the denominators, 1009^1401 * 1013^1401, has 8,420 digits
    # and is no square, so the refusal cannot write its digit count
    a, b = 1009 ** 1401, 1013 ** 1401
    rc, out = run(["displacement", "--g",
                   f'[["1/{a}","1/{b}"],["0","{a}"]]'], capsys)
    assert rc == 2 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["code"] == "Unsupported"
    assert result["message"].startswith(
        "cannot factor <a number of more than 4300 digits> with no prime")


def test_classify_mixed_type_golden(capsys):
    # a FieldElement zero among Fraction entries leaves the conjugator
    # rational: the elimination only scales a row whose multiplier is 0
    expect = ('{"diagnostics": [], "result": {"conjugated_basis": '
              '[[["1", "0"], ["0", "-1"]], [[["0", "0"], ["1", "0"]], '
              '[["0", "0"], ["0", "0"]]]], "conjugator": [["1", "0"], '
              '["0", "1"]], "kind": "upper-triangular", "verified": true}, '
              '"status": "ok"}\n')
    rc, out = run(["classify", "--basis",
                   '{"minpoly": [1, 0, 1], "basis": [[["1", "0"], '
                   '["0", "-1"]], [["0", "1"], [["0", "0"], "0"]]]}'], capsys)
    assert rc == 0 and out == expect


def test_classify_golden(capsys):
    rc, out = run(["classify", "--basis",
                   '[[["0","0"],["1","0"]],[["1/2","0"],["0","-1/2"]]]'],
                  capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["conjugator"] == [["0", "1"], ["1", "0"]]
    assert doc["result"]["verified"] is True
    assert doc["result"]["kind"] == "upper-triangular"


def test_classify_dependent_basis_exit_2(capsys):
    rc, out = run(["classify", "--basis",
                   '[[["1","0"],["0","-1"]],[["2","0"],["0","-2"]]]'], capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["result"]["code"] == "IndependenceFailure"
    assert doc["result"]["witness"] == "2"


def test_normalizer_golden(capsys):
    expect = ('{"diagnostics": [], "result": {"normalizes": true, '
              '"which": "torus"}, "status": "ok"}\n')
    rc, out = run(["normalizer", "--g", '[["0","3"],["-1/3","0"]]',
                   "--which", "torus"], capsys)
    assert rc == 0 and out == expect
    rc, out = run(["normalizer", "--g", '[["1","1"],["0","1"]]',
                   "--which", "torus"], capsys)
    assert json.loads(out)["result"]["normalizes"] is False


def test_factor_maximal_golden(capsys):
    rc, out = run(["factor-maximal", "--g", '[["0","-1"],["1","0"]]',
                   "--target", '[["1","0"],["1","1"]]'], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["length"] == 3
    assert doc["result"]["verified"] is True
    assert [f["tag"] for f in doc["result"]["factors"]] == \
        ["h", "g_inv", "h"]


def test_unknown_command_exit_1(capsys):
    rc, out = run(["nonsense"], capsys)
    assert rc == 1
    doc = json.loads(out)
    assert doc["result"]["code"] == "Usage"
    assert "invalid choice: 'nonsense'" in doc["result"]["message"]


def test_malformed_json_exit_1(capsys):
    rc, out = run(["tree-dist", "--p", "2", "--g", "[[not json"], capsys)
    assert rc == 1
    assert json.loads(out)["status"] == "error"


# each subcommand called with no flags, as the parser reported it before
# the shared flags moved into parent parsers
NO_FLAGS_MESSAGES = {
    "valuate": "--p, --x",
    "tree-dist": "--p",
    "tree-ball": "--p, --radius",
    "tree-act": "--p, --g",
    "hyp-dist": "--x, --y",
    "displacement": "--g",
    "enumerate": "--group, --C",
    "check-proper": "--group, --C, --max-len",
    "embed": "--group",
    "check-integral": "--g",
    "classify": "--basis",
    "normalizer": "--which, --g",
    "factor-maximal": "--g, --target",
}


def test_no_flags_cover_every_subcommand():
    assert set(NO_FLAGS_MESSAGES) == set(cli._HANDLERS)


@pytest.mark.parametrize("command, required", NO_FLAGS_MESSAGES.items())
def test_subcommand_without_flags_is_usage_error(capsys, command, required):
    rc, out = run([command], capsys)
    assert rc == 1
    assert json.loads(out)["result"] == {
        "code": "Usage",
        "message": f"the following arguments are required: {required}"}


@pytest.mark.parametrize("argv, message", [
    (["tree-dist", "--p", "2", "--g", '[["1","1"],["0","1"]]',
      "--u", '{"n": 0, "b": "0"}'], "give either --g or the pair --u/--v"),
    (["valuate", "--p", "3", "--x", "abc"], "malformed rational 'abc'"),
    (["valuate", "--p", "3", "--minpoly", "[1,0", "--x", "1"],
     "--minpoly is not valid JSON: Expecting ',' delimiter: line 1 column 5 "
     "(char 4)"),
    (["check-integral", "--minpoly", '"x"', "--g", '[["1","1"],["0","1"]]'],
     "minpoly must be an integer array [c0, ..., 1]"),
])
def test_usage_errors_from_every_layer(capsys, argv, message):
    rc, out = run(argv, capsys)
    assert rc == 1
    assert json.loads(out)["result"] == {"code": "Usage", "message": message}


G = '[["1","1"],["0","1"]]'
POINT = '{"z": [0, 0], "t": 1}'
GROUP_DOC = ('a group document is {"minpoly"?: [...], "generators": '
             '[matrix, ...], "root_index"?: int}')
BASIS_DOC = ('--basis document is {"minpoly"?: [...], '
             '"basis": [matrix, matrix]}')


@pytest.mark.parametrize("argv, message", [
    (["valuate", "--p", "3", "--x", "true"],
     "rationals must be strings or integers"),
    (["valuate", "--p", "3", "--x", "1.5"], "malformed rational 1.5"),
    (["valuate", "--p", "3", "--x", "null"], "malformed rational None"),
    (["valuate", "--p", "3", "--x", '["1","2"]'],
     "field-element arrays need a declared minpoly"),
    (["valuate", "--p", "3", "--minpoly", '{"poly": [1,0,1]}', "--x", "1"],
     'a field document is {"minpoly": [...]}'),
    (["tree-act", "--p", "2", "--g", '"x"'],
     "a matrix is a nested array of rows"),
    (["tree-act", "--p", "2", "--g", '[["1","1"],["0"]]'],
     "matrix must be square"),
    (["tree-act", "--p", "2",
      "--g", '[["1","0","0"],["0","1","0"],["0","0","1"]]'],
     "expected a 2x2 matrix"),
    (["tree-act", "--p", "2", "--g", G, "--vertex", '{"n": 1}'],
     'a vertex document is {"n": int, "b": element}'),
    (["tree-act", "--p", "2", "--g", G, "--vertex", '{"n": "1", "b": "0"}'],
     "vertex exponent n must be an integer"),
    (["tree-dist", "--p", "2", "--u", '{"n": 0, "b": "0"}'],
     "need --g, or both --u and --v"),
    (["hyp-dist", "--x", '{"z": [0, 0]}', "--y", POINT],
     'a point document is {"z": [re, im], "t": t}'),
    (["hyp-dist", "--x", '{"z": [0], "t": 1}', "--y", POINT],
     "point z must be [re, im]"),
    (["hyp-dist", "--x", '{"z": [0, 0], "t": "1"}', "--y", POINT],
     "point t must be a number"),
    (["displacement", "--g", G, "--group", "[]"], GROUP_DOC),
    (["displacement", "--g", G, "--group", '{"generators": {}}'],
     "generators must be an array of matrices"),
    (["displacement", "--g", G, "--group",
      '{"generators": [], "root_index": "0"}'],
     "root_index must be an integer"),
    (["classify", "--basis", f'{{"basis": [{G}, {G}], "field": 1}}'],
     BASIS_DOC),
    (["classify", "--basis", f"[{G}]"], "--basis needs exactly two matrices"),
    ([], "a command is required (see --help)"),
])
def test_usage_errors_print_sl2kits_message(capsys, argv, message):
    rc, out = run(argv, capsys)
    assert rc == 1 and out.count("\n") == 1
    assert json.loads(out) == {"status": "error", "diagnostics": [],
                               "result": {"code": "Usage",
                                          "message": message}}


def test_minpoly_accepts_a_field_document(capsys):
    rc, out = run(["valuate", "--p", "3", "--minpoly", '{"minpoly": [1,0,1]}',
                   "--x", '["9","9"]'], capsys)
    assert rc == 0 and json.loads(out)["result"] == {"value": 2}


@pytest.mark.parametrize("x", ["1e4301", "-2.5E-4301", "1e999999999",
                               "3e1_000_000"])
def test_decimal_exponent_beyond_the_digit_limit_is_usage_error(capsys, x):
    # 10**|exponent| would be built in full; a numerator that long is
    # already refused by Python's limit on the digits of an int
    rc, out = run(["valuate", "--p", "3", "--x", json.dumps(x)], capsys)
    assert rc == 1
    assert json.loads(out)["result"] == {
        "code": "Usage",
        "message": f"rational {x!r} has a decimal exponent beyond +-4300"}


@pytest.mark.parametrize("x, value", [("1e4300", 0), ("3e-4300", 1),
                                      ("9E2", 2)])
def test_decimal_exponent_at_the_digit_limit_is_read(capsys, x, value):
    rc, out = run(["valuate", "--p", "3", "--x", json.dumps(x)], capsys)
    assert rc == 0 and json.loads(out)["result"] == {"value": value}


def test_missing_required_argument_exit_1(capsys):
    rc, out = run(["hyp-dist"], capsys)
    assert rc == 1
    doc = json.loads(out)
    assert doc["result"]["code"] == "Usage"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "valuate" in capsys.readouterr().out


def test_envelope_keys_sorted(capsys):
    rc, out = run(["valuate", "--p", "2", "--x", "8"], capsys)
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_module_entry_subprocess():
    # the child imports the same sl2kit as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2kit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2kit", "valuate", "--p", "3", "--x", "9/2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == \
        '{"diagnostics": [], "result": {"value": 2}, "status": "ok"}\n'


@pytest.mark.parametrize("entry, shown", [
    ("1e4300", "<a number of more than 4300 digits>"),
    ("1e43", f"{10**43} + 1*g"),
])
def test_entry_outside_the_field_prints_one_envelope(capsys, entry, shown):
    # an entry over Q(i) against a group over Q(omega); 10^4300 has 4,301
    # digits, one more than Python writes
    group = '{"minpoly": [1,1,1], "generators": [[["1","1"],["0","1"]]]}'
    rc, out = run(["displacement", "--minpoly", "[1,0,1]",
                   "--g", f'[["1",["{entry}","1"]],["0","1"]]',
                   "--group", group], capsys)
    assert rc == 2 and out.count("\n") == 1
    result = json.loads(out)["result"]
    assert result["code"] == "EntryOutsideRing"
    assert result["message"] == f"entry {shown} is not in the declared field"


@pytest.mark.parametrize("minpoly, witness, message", [
    ("[0,0,1]", [0, 1], "polynomial x^2 factors over Q; one factor is x"),
    ("[-1,0,1]", [-1, 1],
     "polynomial x^2 + -1 factors over Q; one factor is x + -1"),
    ("[4,0,0,0,1]", [2, 2, 1],
     "polynomial x^4 + 4 factors over Q; one factor is x^2 + 2*x + 2"),
])
def test_reducible_minpoly_envelope(capsys, minpoly, witness, message):
    rc, out = run(["valuate", "--p", "3", "--minpoly", minpoly,
                   "--x", '["1"]'], capsys)
    assert rc == 2
    assert json.loads(out) == {
        "diagnostics": [], "status": "error",
        "result": {"code": "Reducible", "message": message,
                   "witness": witness}}
