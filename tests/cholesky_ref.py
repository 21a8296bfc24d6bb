"""Reference Cholesky data for short-vector enumeration: the Fraction
elimination that latkit.shortvec._cholesky replaced, and the definite Gram
matrices that tests compare it and latkit.ratmat.signature on.  No code
from latkit.ratmat or latkit.shortvec runs in ref_cholesky."""

import random
from fractions import Fraction
from math import gcd

from latkit.catalog import std_gram
from latkit.lattice import LatticeError, direct_sum, rescale
from latkit.ratmat import det


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
