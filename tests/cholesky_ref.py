"""Reference eliminations of symmetric matrices: the Fraction Cholesky
elimination that latkit.shortvec._cholesky replaced, the full-block
fraction-free elimination that the upper-triangle
latkit.ratmat.symmetric_elimination replaced, and the seeded matrices that
tests compare them and latkit.ratmat.signature on.  No code from
latkit.ratmat or latkit.shortvec runs in ref_cholesky or
ref_symmetric_elimination."""

import random
from fractions import Fraction
from math import gcd, lcm

from latkit.catalog import std_gram
from latkit.lattice import LatticeError, direct_sum, rescale
from latkit.ratmat import MatrixError, det, identity, mat_mul, transpose


def ref_cholesky(gram):
    """(q, negated, g) for the int Gram matrix of a definite lattice, by
    Fraction elimination: q[i][i] > 0 and q[i][j] (j > i) with
    norm(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2, and
    g = gcd(G_ii, 2 G_ij).  The strict lower triangle of q holds
    intermediate values that the search never reads."""
    n = len(gram)
    sign = -1 if n and gram[0][0] < 0 else 1
    q = [[Fraction(sign * x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise LatticeError("short_vectors requires a definite lattice")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    g = gcd(*(x if i == j else 2 * x
              for i, row in enumerate(gram) for j, x in enumerate(row)))
    return q, sign < 0, g


def ref_symmetric_elimination(gram):
    """(rows, pivots) as latkit.ratmat.symmetric_elimination returns them,
    by Bareiss steps on the whole trailing block, lower triangle included,
    and pivot moves made in place on the full matrix."""
    den = lcm(*(x.denominator for row in gram for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in gram]
    n = len(a)
    rows, pivots = [], []
    d = 1
    for t in range(n):
        if not a[t][t]:
            j = next((i for i in range(t + 1, n) if a[i][i]), None)
            if j is not None:
                a[t], a[j] = a[j], a[t]
                for row in a:
                    row[t], row[j] = row[j], row[t]
            else:
                j = next((i for i in range(t + 1, n) if a[t][i]), None)
                if j is None:
                    raise MatrixError("degenerate symmetric form")
                a[t] = [x + y for x, y in zip(a[t], a[j])]
                for row in a:
                    row[t] += row[j]
        top = a[t]
        p = top[t]
        rows.append(top[t:])
        pivots.append(p)
        for i in range(t + 1, n):
            row = a[i]
            f = row[t]
            row[t + 1:] = [(p * x - f * y) // d for x, y in zip(row[t + 1:], top[t + 1:])]
        d = p
    return rows, pivots


def upper(q):
    """The rows of q from the diagonal on: the Cholesky data proper."""
    return [row[i:] for i, row in enumerate(q)]


def enum_gram(rng, n):
    """A Gram matrix shaped like the enum benchmark's random inputs:
    2(D + S), S symmetric with 30% of its off-diagonal entries +-1, and D
    a diagonal that dominates each row."""
    s = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, 3 * len(pairs) // 10):
        s[i][j] = s[j][i] = rng.choice((-1, 1))
    return [[2 * (1 + sum(map(abs, s[i])) + rng.randint(0, 1)) if i == j
             else 2 * s[i][j] for j in range(n)] for i in range(n)]


def definite_grams(extra=()):
    """Seeded definite Gram matrices: 8 enum-shaped ones of rank 12-16,
    20 of the form 2 B B^T of rank 1-10, E8(-1), A4(-2)^4 and the given
    extra ones, each followed by its negative."""
    rng = random.Random(15)
    grams = [enum_gram(rng, rng.randint(12, 16)) for _ in range(8)]
    while len(grams) < 28:
        n = 1 + len(grams) % 10
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[2 * sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
        if det(g):
            grams.append(g)
    grams.append(rescale(std_gram("E8"), -1).gram)
    grams.append(direct_sum([rescale(std_gram("A", 4), -2)] * 4).gram)
    grams.extend(extra)
    return [h for g in grams for h in (g, [[-x for x in row] for row in g])]


# Nondegenerate indefinite forms: U, diag(2, -2), and a form with a
# positive diagonal whose leading 2 x 2 minor is zero, so the symmetric
# elimination swaps in a later diagonal entry.
INDEFINITE = (
    [[0, 1], [1, 0]],
    [[2, 0], [0, -2]],
    [[2, 2, 0], [2, 2, 1], [0, 1, 2]],
)


U = [[0, 1], [1, 0]]


def direct_sum_matrix(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def symmetric_cases():
    """150 seeded symmetric nondegenerate int matrices of rank 1-8, with
    the zero leading minors that make the symmetric elimination move a
    pivot: U, U(2)^3 and U + A2 (a zero first pivot with no nonzero
    diagonal to swap in), zero-diagonal matrices, and their congruences by
    random unimodular matrices."""
    u2 = [[0, 2], [2, 0]]
    a2 = [[2, -1], [-1, 2]]
    fixed = [U, direct_sum_matrix(u2, u2, u2), direct_sum_matrix(U, a2),
             direct_sum_matrix(a2, U), direct_sum_matrix([[-2]], U, [[0, 3], [3, 0]])]
    rng = random.Random(29)
    cases = list(fixed)
    while len(cases) < 150:
        n = rng.randint(1, 8)
        kind = len(cases) % 3
        if kind == 0:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        elif kind == 1:
            s = [[0 if i == j else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
            s = [[s[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        else:
            s = rng.choice(fixed)
            n = len(s)
        if kind and rng.random() < 0.7:
            p = identity(n)
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    p[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(p[i], p[j])]
            s = mat_mul(mat_mul(p, s), transpose(p))
        if det(s) == 0:
            continue
        cases.append(s)
    return cases


def sympy_inertia(s):
    """(n_plus, n_minus) of a symmetric matrix from sympy: Descartes' rule
    of signs is exact for a polynomial whose roots are all real, such as
    the characteristic polynomial of a symmetric matrix."""
    from sympy import Matrix

    coeffs = Matrix(s).charpoly().all_coeffs()

    def changes(cs):
        cs = [c for c in cs if c]
        return sum((a > 0) != (b > 0) for a, b in zip(cs, cs[1:]))

    return changes(coeffs), changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])
