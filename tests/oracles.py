"""Independent oracles the tests cross-check against.

Nothing here calls the closed-form code paths under test: tree distance is
recomputed by breadth-first graph walking over neighbors(), neighbors() is
checked against matrix products and canonicalize(), and hyperbolic
displacement by actually moving the basepoint and measuring.
"""

from fractions import Fraction

from sl2kit import (BASEPOINT, canonicalize, embed_matrix, hyp_distance, mat,
                    matrix_form, mobius_act, neighbors)


def product_neighbors(v):
    """The q+1 adjacent classes as lattices: canonicalize M*[[p, j], [0, 1]]
    for the residue representatives j, and M*[[1, 0], [0, p]]."""
    ctx = v.ctx
    m = matrix_form(v)
    p = ctx.coerce(ctx.p)
    one, zero = ctx.coerce(1), ctx.zero()
    out = set()
    for j in ctx.residue_reps():
        out.add(canonicalize(m * mat([[p, ctx.coerce(j)], [zero, one]]), ctx))
    out.add(canonicalize(m * mat([[one, zero], [zero, p]]), ctx))
    return out


def bfs_distance(u, v, cap=24):
    """Graph distance by breadth-first search, independent of the formula."""
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    for d in range(1, cap + 1):
        nxt = []
        for w in frontier:
            for x in neighbors(w):
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        if v in seen:
            return d
        frontier = nxt
    raise AssertionError(f"no path within {cap} steps")


def bfs_spanning_tree(origin, radius):
    """The ball around origin found by BFS, as the vertex list in discovery
    order plus the depth and parent index of each vertex (-1 for origin).

    Pair this with walk_distance() for an all-pairs oracle that stays cheap:
    one graph traversal instead of one per pair, and walks on int ids.
    Correct only when the neighbor graph really is a tree, so check that
    first (edge count 2*(|V|-1) inside the ball).
    """
    verts, depth, parent = [origin], [0], [-1]
    index = {origin: 0}
    frontier = [0]
    for d in range(1, radius + 1):
        nxt = []
        for i in frontier:
            for w in neighbors(verts[i]):
                if w not in index:
                    index[w] = len(verts)
                    nxt.append(len(verts))
                    verts.append(w)
                    depth.append(d)
                    parent.append(i)
        frontier = nxt
    return verts, depth, parent


def walk_distance(u, w, depth, parent):
    """Distance between the vertex ids u and w in the BFS spanning tree:
    climb both to the meeting point."""
    steps = 0
    while u != w:
        if depth[u] >= depth[w]:
            u = parent[u]
        else:
            w = parent[w]
        steps += 1
    return steps


def displacement_oracle(g, emb=None):
    """Move the basepoint with the Mobius action and measure the distance."""
    image = mobius_act(embed_matrix(g, emb), BASEPOINT)
    return hyp_distance(BASEPOINT, image)


def random_sl2z(rng, size=5):
    """Random SL(2,Z) element as a short product of the two standard
    generators and their inverses."""
    from sl2kit import Matrix, mat
    s = mat([[0, -1], [1, 0]])
    t = mat([[1, 1], [0, 1]])
    steps = [s, t, s.inverse(), t.inverse()]
    m = Matrix.identity(2)
    for _ in range(rng.randint(1, size)):
        m = m * rng.choice(steps)
    return m


def random_rational(rng, span=60):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_nonzero_rational(rng, span=60):
    while True:
        q = random_rational(rng, span)
        if q != 0:
            return q


def matrix_word_ball(generators, max_len):
    """Distinct products of at most max_len generators and inverses, by
    Matrix multiplication, in breadth-first discovery order."""
    from sl2kit import Matrix
    steps = list(generators) + [g.inverse() for g in generators]
    order = [Matrix.identity(2)]
    seen = set(order)
    frontier = list(order)
    for _ in range(max_len):
        nxt = []
        for m in frontier:
            for s in steps:
                prod = m * s
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return order


def alpha_by_solve(g, basis):
    """The 4x4 image of g column by column: column i holds the coordinates
    c of g*g_i in the basis, from sum_j c_j*g_j = g*g_i on the four
    flattened entries, by linear_solve."""
    from sl2kit import Matrix, linear_solve
    flat = [(r, s) for r in range(2) for s in range(2)]
    rows = [[gj[r, s] for gj in basis.elements] for r, s in flat]
    cols = []
    for gi in basis.elements:
        prod = g * gi
        cols.append(linear_solve(rows, [prod[r, s] for r, s in flat]))
    return Matrix(tuple(zip(*cols)))


def brute_enumerate(primes, C):
    """SL(2, Z[1/s]) elements with every displacement < C, by brute force.

    Scans the cube of matrices with entries a/D, |a| <= D sqrt(2 cosh C) + 1
    and D = prod p^floor(C/2), three entries free and the fourth solved from
    det = 1 in Fractions.  The tree coordinates come from act and distance,
    the hyperbolic one from the Moebius action.  Returns the accepted set and
    the smallest |hyp - C| seen, so a caller can make sure no float tie
    decided the answer.  The floor(C/2) grid holds the enumerator's
    ceil(C/2) - 1 grid, so the scan does not rest on that tighter bound."""
    import math
    from sl2kit import act, base_vertex, distance, mat, tree_context
    D = 1
    for p in primes:
        D *= p ** int(C // 2)
    B = int(D * math.sqrt(2 * math.cosh(C))) + 1
    grid = [Fraction(a, D) for a in range(-B, B + 1)]
    on_grid = set(grid)
    v0s = [base_vertex(tree_context(p)) for p in primes]
    found, margin = set(), math.inf
    for a in grid:
        for b in grid:
            for c in grid:
                if a != 0:
                    quads = [(a, b, c, (1 + b * c) / a)]
                elif b * c == -1:
                    quads = [(a, b, c, d) for d in grid]
                else:
                    continue
                for w, x, y, z in quads:
                    if z not in on_grid:
                        continue
                    g = mat([[w, x], [y, z]])
                    if any(distance(v0, act(g, v0)) >= C for v0 in v0s):
                        continue
                    hyp = displacement_oracle(g)
                    margin = min(margin, abs(hyp - C))
                    if hyp < C:
                        found.add(g)
    return found, margin


def reducible_mod_p(f, p):
    """Is the monic f (constant term first) a product of two monic factors
    of positive degree mod p?  Multiplies out every pair of monic
    polynomials mod p whose degrees sum to deg f."""
    from itertools import product
    n = len(f) - 1
    target = [c % p for c in f]
    for d in range(1, n // 2 + 1):
        for g_low in product(range(p), repeat=d):
            for h_low in product(range(p), repeat=n - d):
                g, h = g_low + (1,), h_low + (1,)
                gh = [0] * (n + 1)
                for i, a in enumerate(g):
                    for j, b in enumerate(h):
                        gh[i + j] += a * b
                if [c % p for c in gh] == target:
                    return True
    return False


def det_leibniz(a):
    """Determinant of a square list of rows by the permutation expansion
    (1 for the empty matrix)."""
    from itertools import permutations
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def rank_by_minors(a):
    """The largest k for which a (m x n, rows as lists) has a nonzero k x k
    minor; 0 when every entry is zero."""
    from itertools import combinations
    m, n = len(a), len(a[0]) if a else 0
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                if det_leibniz([[a[i][j] for j in cols] for i in rows]) != 0:
                    return k
    return 0


def first_independent(elements, k=4):
    """The first (at most k) elements whose four entries raise the rank,
    by minors, of the entries of the elements kept before them."""
    kept, rows = [], []
    for g in elements:
        if len(kept) == k:
            break
        row = [g[0, 0], g[0, 1], g[1, 0], g[1, 1]]
        if rank_by_minors(rows + [row]) > len(rows):
            kept.append(g)
            rows.append(row)
    return kept


def pivot_columns(a):
    """Columns j whose addition raises the rank of the columns before them:
    the pivot columns of the reduced row echelon form."""
    cols, before = [], 0
    for j in range(len(a[0])):
        now = rank_by_minors([row[:j + 1] for row in a])
        if now > before:
            cols.append(j)
        before = now
    return cols


def inverse_by_adjugate(a):
    """adj(A) / det(A) as a list of rows, or None when det(A) = 0."""
    n = len(a)
    d = det_leibniz(a)
    if d == 0:
        return None

    def cofactor(i, j):
        minor = [[a[r][c] for c in range(n) if c != j]
                 for r in range(n) if r != i]
        return (-1) ** (i + j) * det_leibniz(minor)

    return [[cofactor(j, i) / d for j in range(n)] for i in range(n)]


def poly_mulmod(minpoly, a, b):
    """a * b modulo the monic minpoly, every list constant term first: a
    schoolbook product, then long division by minpoly.  Returns deg minpoly
    Fractions."""
    m = len(minpoly) - 1
    prod = [Fraction(0)] * max(len(a) + len(b) - 1, m)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for k in range(len(prod) - 1, m - 1, -1):
        lead = prod[k]
        for i, c in enumerate(minpoly):
            prod[k - m + i] -= lead * c
    return tuple(prod[:m])
