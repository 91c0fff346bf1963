"""Joint displacement over the active primes and the bounded-set search."""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sl2kit.properaction as pa
import sl2kit.bttree as bttree
from oracles import (brute_enumerate, displacement_oracle, matrix_word_ball,
                     random_sl2z, reducible_mod_p)
from sl2kit import (BudgetExceededError, DetNotOneError,
                    EntryOutsideRingError, Matrix, NotAValuationError,
                    UnsupportedError, act, base_vertex, displacement,
                    displacement_hyp, distance, enumerate_bounded, make_field,
                    make_group, mat, properness_check, ring_detect, word_ball,
                    word_bfs)

S = mat([[0, -1], [1, 0]])
T = mat([[1, 1], [0, 1]])
HALF = Fraction(1, 2)
D2 = mat([[2, 0], [0, HALF]])
D3 = mat([[3, 0], [0, Fraction(1, 3)]])


def test_ring_detect_examples():
    r = ring_detect([S, T])
    assert r.s == 1 and r.primes == ()
    r = ring_detect([mat([[1, Fraction(1, 6)], [0, 1]])])
    assert r.primes == (2, 3)
    r = ring_detect([mat([[Fraction(1, 4), 0], [HALF, 4]])])
    assert r.s == 4 and r.primes == (2,)


def test_make_group_validates():
    with pytest.raises(DetNotOneError):
        make_group([mat([[2, 0], [0, 1]])])
    with pytest.raises(ValueError):
        make_group([mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])])


def test_displacement_examples():
    group = make_group([mat([[2, 0], [0, HALF]])])
    prof = displacement(mat([[1, 0], [0, 1]]), group)
    assert prof.trees == (0,) and prof.hyp == 0.0
    prof = displacement(mat([[2, 0], [0, HALF]]), group)
    assert prof.trees == (2,)
    assert abs(prof.hyp - math.log(4)) < 1e-12

    sl2z = make_group([S, T])
    prof = displacement(T, sl2z)
    assert prof.trees == ()
    assert abs(prof.hyp - math.acosh(1.5)) < 1e-12


def test_displacement_rejects_entries_outside_ring():
    group = make_group([mat([[2, 0], [0, HALF]])])
    with pytest.raises(EntryOutsideRingError):
        displacement(mat([[1, Fraction(1, 3)], [0, 1]]), group)
    # a rational group built around make_group meets the same checks
    with pytest.raises(DetNotOneError):
        word_bfs(pa.MarkedGroup([mat([[2, 0], [0, 1]])], pa.Ring(1, (), None)),
                 1, 2.5)
    with pytest.raises(EntryOutsideRingError):
        word_bfs(pa.MarkedGroup([T, D3], group.ring), 1, 2.5)


def test_profile_less_than_is_strict():
    group = make_group([mat([[2, 0], [0, HALF]])])
    prof = displacement(mat([[2, 0], [0, HALF]]), group)
    assert prof.less_than(2.5)
    assert not prof.less_than(2)  # tree displacement is exactly 2
    assert not prof.less_than(1.0)


def test_profile_less_than_over_a_field():
    # a field profile compares its float hyp, about 0.9624 here
    prof = displacement(U, make_group([S, U], QI))
    assert prof.less_than(1.0)
    assert not prof.less_than(0.5)


def test_profile_less_than_is_exact_at_float_tie():
    # hyp(T) = arccosh(3/2); the float C = acosh(1.5) lies just above it,
    # and the float hyp rounds to C itself, so only an exact comparison
    # agrees with word_bfs and enumerate_bounded
    group = make_group([S, T])
    C = math.acosh(1.5)
    assert T in word_bfs(group, 1, C)
    assert T in enumerate_bounded(group, C).elements
    assert displacement(T, group).less_than(C)


def test_word_ball_growth():
    assert word_ball([S, T], 0) == [Matrix.identity(2)]
    b1 = word_ball([S, T], 1)
    b2 = word_ball([S, T], 2)
    assert set(b1) <= set(b2)
    assert b1[0].is_identity()
    assert len(b1) == 5  # I, S, T, S^-1, T^-1
    # S has order 4: the walk stops at its first empty layer, layer 3
    assert word_ball([S], 10 ** 18) == word_ball([S], 2) == [
        Matrix.identity(2), S, -S, -Matrix.identity(2)]
    assert len(word_bfs(make_group([S]), 10 ** 18, 1.0)) == 4


def test_negative_max_len_refused(monkeypatch):
    group = make_group([S, T])

    def no_enumeration(*args):
        raise AssertionError("enumerated before checking max_len")

    monkeypatch.setattr(pa, "enumerate_bounded", no_enumeration)
    with pytest.raises(ValueError, match="max_len"):
        word_ball([S, T], -1)
    with pytest.raises(ValueError, match="max_len"):
        word_bfs(group, -1, 1.0)
    with pytest.raises(ValueError, match="max_len"):
        properness_check(group, 1.0, -1)


def test_word_bfs_is_sound():
    group = make_group([S, T])
    found = word_bfs(group, 4, 1.0)
    for g in found:
        assert displacement(g, group).less_than(1.0)
    assert Matrix.identity(2) in found


@pytest.mark.parametrize("C, kept", [(math.inf, 124), (800.0, 124),
                                     (1e308, 124), (0.0, 0), (-1.0, 0)])
def test_word_bfs_at_the_edges_of_the_bound(C, kept):
    # 2 cosh C is infinite or beyond float range, or C admits nothing
    gens = [S, T, D2]
    assert len(word_ball(gens, 3)) == 124
    assert len(word_bfs(make_group(gens), 3, C)) == kept
    if not kept:  # with no prime, only the hyperbolic bound decides
        assert word_bfs(make_group([S, T]), 3, C) == set()


def _brute_det_solutions(D2, hi):
    m = math.isqrt(hi - 1)
    r = range(-m, m + 1)
    return {(a, b, c, d) for a in r for b in r for c in r for d in r
            if a * d - b * c == D2 and a * a + b * b + c * c + d * d < hi}


@pytest.mark.parametrize("D2", [1, 4, 9, 16, 36])
def test_det_solutions_match_a_four_loop(D2):
    expect = _brute_det_solutions(D2, 2 * D2 + 25)
    top = max(sum(x * x for x in sol) for sol in expect)
    for hi in (top, top + 1):  # the norm top is attained
        got = list(pa._det_solutions(D2, hi, 10 ** 6))
        norms = [N for N, _ in got]
        assert len(norms) == len(set(norms)) and (top in norms) == (hi > top)
        flat = [sol for _, sols in got for sol in sols]
        assert len(flat) == len(set(flat))
        assert set(flat) == _brute_det_solutions(D2, hi)
        for N, sols in got:
            assert all(sum(x * x for x in sol) == N for sol in sols)
        assert any(sol[0] == 0 for sol in flat)  # a11 = 0 is not special


@pytest.mark.parametrize("D2", [1, 4, 9])
def test_det_solutions_budget_is_square_plus_pairs(D2):
    # the walk's steps: the square |x|, |y| <= m it scans for the disc
    # |u|^2 < hi + 2 D2, plus one per matrix, counted by the four-loop
    hi = 2 * D2 + 25
    m = math.isqrt(hi + 2 * D2 - 1)
    steps = (2 * m + 1) ** 2 + len(_brute_det_solutions(D2, hi))
    assert len(list(pa._det_solutions(D2, hi, steps))) > 0
    with pytest.raises(BudgetExceededError, match=f"budget of {steps - 1}$"):
        pa._det_solutions(D2, hi, steps - 1)


def test_enumerate_modular_group_tiny_bound():
    group = make_group([S, T])
    res = enumerate_bounded(group, 0.1)
    eye = Matrix.identity(2)
    expect = {eye, eye.scale(-1), S, S.inverse()}
    assert res.elements == frozenset(expect)
    assert res.complete


def test_enumerate_bound_below_decimal_default_precision():
    # 2 cosh(1e-20) = 2 + 1e-40 needs more than 40 digits to tell from the
    # N = 2 of the stabilizer elements
    group = make_group([S, T])
    eye = Matrix.identity(2)
    stabilizer = frozenset({eye, eye.scale(-1), S, S.inverse()})
    assert enumerate_bounded(group, 1e-20).elements == stabilizer
    assert word_bfs(group, 3, 1e-20) == stabilizer


def test_enumerate_contains_identity():
    group = make_group([S, T])
    for c in (0.05, 0.5, 1.5):
        assert Matrix.identity(2) in enumerate_bounded(group, c).elements


def test_enumerate_excludes_large_tree_moves():
    group = make_group([S, T, mat([[2, 0], [0, HALF]])])
    res = enumerate_bounded(group, 2.0)
    assert mat([[2, 0], [0, HALF]]) not in res.elements
    # C / 2 underflows to 0 at the least subnormal C; D must stay 1
    assert len(enumerate_bounded(group, 5e-324).elements) == 4  # +-I, +-S


def test_enumerate_completeness_against_integer_scan():
    # brute scan over integer matrices with entries in [-B, B]
    group = make_group([S, T])
    c = 1.3
    bound = int(math.ceil(math.sqrt(2 * math.cosh(c))))
    brute = set()
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for cc in rng:
                for d in rng:
                    m = mat([[a, b], [cc, d]])
                    if m.det() == 1 and displacement_hyp(m) < c:
                        brute.add(m)
    res = enumerate_bounded(group, c)
    assert res.elements == frozenset(brute)


def test_enumerate_monotone_in_bound():
    group = make_group([S, T])
    small = enumerate_bounded(group, 0.5).elements
    large = enumerate_bounded(group, 1.2).elements
    assert small <= large


def test_enumerate_tree_bound_controls_denominators():
    group = make_group([S, T, mat([[2, 0], [0, HALF]])])
    c = 2.2
    res = enumerate_bounded(group, c)
    for g in res.elements:
        prof = displacement(g, group)
        for tree_move in prof.trees:
            assert tree_move < c


def test_enumerate_rejects_bad_inputs(monkeypatch):
    group = make_group([S, T])
    with pytest.raises(ValueError):
        enumerate_bounded(group, 0)
    with pytest.raises(ValueError):
        enumerate_bounded(group, -1.0)
    with pytest.raises(ValueError, match="NaN"):
        enumerate_bounded(group, math.nan)

    def no_sizing(*args):
        raise AssertionError("sized the search before the budget check")

    monkeypatch.setattr(pa, "_HypBound", no_sizing)
    with pytest.raises(ValueError, match="budget"):
        enumerate_bounded(group, 1.0, budget=-1)
    monkeypatch.setenv("SL2KIT_ENUM_BUDGET", "-5")
    with pytest.raises(ValueError, match="budget"):
        enumerate_bounded(group, 1.0)
    k = make_field([1, 0, 1])
    gi = make_group([mat([[k.one(), k.gamma()], [k.zero(), k.one()]])],
                    field=k)
    with pytest.raises(UnsupportedError):
        enumerate_bounded(gi, 1.0)


def test_enumerate_budget():
    group = make_group([S, T, mat([[2, 0], [0, HALF]])])
    with pytest.raises(BudgetExceededError):
        enumerate_bounded(group, 3.0, budget=100)


def test_enumerate_budget_env(monkeypatch):
    group = make_group([S, T, mat([[2, 0], [0, HALF]])])
    monkeypatch.setenv("SL2KIT_ENUM_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        enumerate_bounded(group, 3.0)
    monkeypatch.setenv("SL2KIT_ENUM_BUDGET", "10000000")
    res = enumerate_bounded(group, 1.0)
    assert res.complete


def test_properness_check_contained():
    group = make_group([S, T])
    report = properness_check(group, 0.1, 4)
    assert report.contained
    assert report.violations == ()
    assert report.word_count >= 1
    assert report.enum_count == 4


def test_properness_check_empty_generators():
    group = make_group([])
    report = properness_check(group, 0.5, 3)
    assert report.contained
    assert report.word_count == 1  # just the identity


def test_properness_check_detects_planted_violation(monkeypatch):
    # containment is a theorem for genuine inputs, so fake a word set that
    # the enumeration cannot contain to prove the failure path reports it
    import sl2kit.properaction as pa
    group = make_group([S, T])
    bogus = mat([[1, 50], [0, 1]])
    real = pa.word_bfs

    def planted(grp, max_len, c):
        return real(grp, max_len, c) | {bogus}

    monkeypatch.setattr(pa, "word_bfs", planted)
    report = pa.properness_check(group, 0.1, 2)
    assert not report.contained
    assert bogus in report.violations


def test_random_words_satisfy_containment():
    rng = random.Random(83)
    group = make_group([S, T])
    c = 1.8
    enum = enumerate_bounded(group, c).elements
    for _ in range(200):
        g = random_sl2z(rng, size=7)
        if displacement(g, group).less_than(c):
            assert g in enum


STEPS = [S, T, D2, D3, S.inverse(), T.inverse(), D2.inverse(), D3.inverse()]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, len(STEPS) - 1), max_size=12))
def test_kernel_profile_matches_oracles(word):
    group = make_group([S, T, D2, D3])
    g = Matrix.identity(2)
    for i in word:
        g = g * STEPS[i]
    prof = displacement(g, group)
    for p, t in zip(group.ring.primes, prof.trees):
        v0 = base_vertex(group.tree_contexts[group.ring.primes.index(p)])
        assert t == distance(v0, act(g, v0))
    assert abs(prof.hyp - displacement_oracle(g)) < 1e-9


def test_word_ball_matches_matrix_products():
    for gens, length in (([S, T], 4), ([T, D2], 4), ([D3, S, D2], 3)):
        assert word_ball(gens, length) == matrix_word_ball(gens, length)


def test_word_bfs_matches_filtered_ball():
    group = make_group([S, T, D2])
    for c in (1.5, 2.5, 3.2):
        expect = {g for g in matrix_word_ball(group.generators, 5)
                  if all(distance(v0, act(g, v0)) < c
                         for v0 in map(base_vertex, group.tree_contexts))
                  and displacement_oracle(g) < c}
        assert word_bfs(group, 5, c) == expect


@pytest.mark.parametrize("s, c", [(1, 3.0), (2, 2.0), (2, 2.5), (3, 2.5),
                                  (6, 2.2), (3, 2.0), (6, 2.0), (2, 4.0)])
def test_enumerate_matches_brute_force(s, c):
    primes = {1: (), 2: (2,), 3: (3,), 6: (2, 3)}[s]
    gens = [S, T] + [mat([[p, 0], [0, Fraction(1, p)]]) for p in primes]
    expect, margin = brute_enumerate(primes, c)
    assert margin > 1e-6  # no float near-tie decided the brute force
    assert enumerate_bounded(make_group(gens), c).elements == \
        frozenset(expect)


def _below_oracle(N, D2, C):
    """N < 2 cosh(C) D2 at 120 digits; the margin is checked to dwarf the
    rounding, so the answer is exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        x = decimal.Decimal(C)
        bound = (x.exp() + (-x).exp()) * D2
        assert abs(bound - N) > bound * decimal.Decimal(10) ** -100
        return N < bound


@pytest.mark.parametrize("g", [T, D2, S * D3 * T, T * D2 * T * D3.inverse()])
def test_hyp_predicate_on_float_ties(g, monkeypatch):
    # C is the float nearest the element's own displacement, so the float
    # enclosure of 2 cosh C cannot separate N from the bound
    entries = g.rows[0] + g.rows[1]
    den = math.lcm(*(x.denominator for x in entries))
    N = sum((x * den) ** 2 for x in entries)
    assert N.denominator == 1
    N, den2 = N.numerator, den * den
    c0 = math.acosh(N / (2 * den2))
    decided = []
    real = pa._HypBound.decide

    def spy(self, n, d2):
        decided.append(n)
        return real(self, n, d2)

    monkeypatch.setattr(pa._HypBound, "decide", spy)
    group = make_group([g])
    v0s = [base_vertex(ctx) for ctx in group.tree_contexts]
    for C in (math.nextafter(c0, 0), c0, math.nextafter(c0, math.inf)):
        expect = _below_oracle(N, den2, C)
        assert pa._HypBound(C).below(N, den2) == expect
        trees_ok = all(distance(v0, act(g, v0)) < C for v0 in v0s)
        assert (g in word_bfs(group, 1, C)) == (expect and trees_ok)
    assert decided.count(N) >= 3


# Groups over number fields, each with one inert prime: Q(i) at 3 with
# Fraction and FieldElement generators and one matrix that mixes the two
# entry types, x^3 - 2 at 7, the quartic x^4 + x + 1 at 2, and x^2 + 2 at 5,
# of the same degree as Q(i) but another multiplication.  The gamma^2
# entries make words of length 3 reach gamma^4, so the reduction by the
# minimal polynomial is exercised.
QI = make_field([1, 0, 1])
CUBIC = make_field([-2, 0, 0, 1])
QUARTIC = make_field([1, 1, 0, 0, 1])
QM2 = make_field([2, 0, 1])
U = mat([[QI.one(), QI.gamma()], [QI.zero(), QI.one()]])
W = mat([[1, QI.gamma() / 3], [0, 1]])
FIELD_GROUPS = [
    ([S, D3, U, W], QI, 3, 3),
    ([S, mat([[1, CUBIC.gamma() ** 2 / 7], [0, 1]]),
      mat([[7, 0], [0, Fraction(1, 7)]])], CUBIC, 7, 3),
    ([S, mat([[1, QUARTIC.gamma() ** 2], [0, 1]]), D2], QUARTIC, 2, 3),
    ([S, mat([[1, QM2.gamma() / 5], [0, 1]]),
      mat([[5, 0], [0, Fraction(1, 5)]])], QM2, 5, 3),
]


def _entries(g):
    return g.rows[0] + g.rows[1]


@pytest.mark.parametrize("gens, field, p, length", FIELD_GROUPS)
def test_field_word_ball_matches_matrix_products(gens, field, p, length):
    got = word_ball(gens, length)
    expect = matrix_word_ball(gens, length)
    assert got == expect
    for g, h in zip(got, expect):
        for x, y in zip(_entries(g), _entries(h)):
            assert type(x) is type(y) and repr(x) == repr(y)


@pytest.mark.parametrize("gens, field, p, length", FIELD_GROUPS)
def test_field_word_bfs_matches_filtered_ball(gens, field, p, length):
    assert not reducible_mod_p(field.minpoly, p)  # inert, so the gate admits p
    group = make_group(gens, field)
    assert group.ring.primes == (p,)
    v0 = base_vertex(group.tree_contexts[0])
    ball = matrix_word_ball(gens, length)
    trees = [distance(v0, act(g, v0)) for g in ball]
    hyps = [displacement_oracle(g, group.embedding) for g in ball]
    for c in (1.5, 2.5):
        assert min(abs(h - c) for h in hyps) > 1e-9  # no float near-tie
        expect = {g for g, t, h in zip(ball, trees, hyps) if t < c and h < c}
        assert word_bfs(group, length, c) == expect


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(FIELD_GROUPS) - 1),
       st.lists(st.integers(0, 5), max_size=8))
def test_field_profile_matches_tree_and_embedding(which, word):
    gens, field = FIELD_GROUPS[which][:2]
    steps = gens + [g.inverse() for g in gens]
    group = make_group(gens, field)
    g = Matrix.identity(2)
    for i in word:
        g = g * steps[i]
    prof = displacement(g, group)
    v0 = base_vertex(group.tree_contexts[0])
    assert prof.trees == (distance(v0, act(g, v0)),)
    assert prof.hyp == displacement_hyp(g, group.embedding)


def test_field_kernel_keeps_gate_and_checks():
    split = make_group([S, U, mat([[5, 0], [0, Fraction(1, 5)]])], QI)
    with pytest.raises(NotAValuationError):  # x^2 + 1 splits mod 5
        displacement(U, split)
    with pytest.raises(NotAValuationError):
        word_bfs(split, 2, 2.5)
    bad = mat([[2, QI.gamma()], [0, 1]])
    with pytest.raises(DetNotOneError):
        displacement(bad, make_group([U], QI))
    # groups built around make_group still meet the checks, on the ints
    with pytest.raises(DetNotOneError):
        word_bfs(pa.MarkedGroup([bad], pa.Ring(1, (), QI)), 1, 2.5)
    with pytest.raises(EntryOutsideRingError):
        word_bfs(pa.MarkedGroup([W], pa.Ring(1, (), QI)), 1, 2.5)
    sqrt2 = make_field([-2, 0, 1]).gamma()
    with pytest.raises(TypeError):
        word_ball([U, mat([[1, sqrt2], [0, 1]])], 2)
    with pytest.raises(EntryOutsideRingError, match="declared field"):
        displacement(mat([[1, sqrt2], [0, 1]]), make_group([S, U], QI))
    with pytest.raises(EntryOutsideRingError, match="no field was declared"):
        make_group([S, U])


def test_field_path_skips_tree_action_and_matrix_products(monkeypatch):
    gens = FIELD_GROUPS[0][0]
    group = make_group(gens, QI)
    ball = word_ball(gens, 2)
    words = word_bfs(group, 2, 2.5)
    trees = [displacement(g, group).trees for g in ball]

    def forbidden(*args):
        raise AssertionError("called on the field path")

    for name in ("act", "canonicalize", "distance"):
        monkeypatch.setattr(bttree, name, forbidden)
    monkeypatch.setattr(Matrix, "__mul__", forbidden)
    assert word_ball(gens, 2) == ball
    assert word_bfs(group, 2, 2.5) == words
    assert [displacement(g, group).trees for g in ball] == trees


def test_field_word_bfs_beyond_float_range_is_unsupported():
    # det 1 is exact on the ints; only the float image of 10^400 overflows
    far = mat([[QI.one(), QI.gamma() * 10 ** 400], [QI.zero(), QI.one()]])
    group = make_group([far], QI)
    with pytest.raises(UnsupportedError):
        word_bfs(group, 1, 5.0)
    with pytest.raises(UnsupportedError):
        displacement(far, group)


QW = make_field([1, 1, 1])  # Q(omega), inert at 2
KERNEL_HYP_GROUPS = [
    (FIELD_GROUPS[0][0], QI, 3),
    ([S, mat([[QW.one(), QW.gamma()], [QW.zero(), QW.one()]]), D2,
      mat([[1, 0], [QW.gamma() / 2, 1]])], QW, 3),
    (FIELD_GROUPS[1][0], CUBIC, 3),
]


@pytest.mark.parametrize("gens, field, length", KERNEL_HYP_GROUPS)
def test_field_word_bfs_reads_the_kernel_ints(gens, field, length,
                                              monkeypatch):
    # the same set as the tree moves of displacement() and the float
    # displacement_hyp on the ball's matrices: the images taken from the
    # ints are those of the Matrix, bit for bit, so even a near-tie cannot
    # split the two
    group = make_group(gens, field)
    ball = word_ball(gens, length)
    profiles = [(displacement(g, group).trees,
                 displacement_hyp(g, group.embedding)) for g in ball]
    expect = {c: {g for g, (trees, hyp) in zip(ball, profiles)
                  if all(t < c for t in trees) and hyp < c}
              for c in (1.0, 2.0, 2.5, 3.5)}
    built = []
    matrix = pa._matrix

    def counted(*args):
        built.append(args)
        return matrix(*args)

    monkeypatch.setattr(pa, "_matrix", counted)
    for c, want in expect.items():
        built.clear()
        got = word_bfs(group, length, c)
        assert got == want and len(built) == len(got)
        for g in got:  # entry types as in word_ball
            h = next(h for h in ball if h == g)
            assert [type(x) for x in _entries(g)] == \
                [type(x) for x in _entries(h)]
