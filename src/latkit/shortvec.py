"""Certified short-vector enumeration for definite lattices.

Exact rational Cholesky decomposition followed by depth-first coordinate
enumeration with exact interval bounds.  No floating point: the empty
report for a rootless lattice is an unconditional certificate.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .lattice import LatticeError


@dataclass(frozen=True)
class ShortVectorReport:
    bound: int
    vectors: tuple         # ((coords, norm), ...) up to sign, lexicographic
    counts_by_norm: tuple  # ((norm, count of +- pairs), ...)
    negated: bool          # True when the input was negative definite

    @property
    def total_pairs(self):
        return len(self.vectors)


def _floor_quadratic(a, b, n, c):
    """floor((a + b*sqrt(n)) / c) for integers a, b >= 0, n >= 0, c > 0."""
    return (a + isqrt(b * b * n)) // c


def _range_for(center, radius2):
    """Integer x with (x + center)^2 <= radius2, exactly.

    center and radius2 are Fractions, radius2 >= 0.
    Returns (lo, hi) inclusive.
    """
    # |x + center| <= sqrt(radius2); x in [-center - r, -center + r]
    a, b = (-center).numerator, (-center).denominator
    p, q = radius2.numerator, radius2.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    n = p * q
    hi = _floor_quadratic(a * q, b, n, b * q)
    lo = -_floor_quadratic(-a * q, b, n, b * q)
    return lo, hi


def _cholesky(gram):
    """Rational Cholesky data: q[i][i] > 0 and q[i][j] (j > i) with
    norm(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise LatticeError("short_vectors requires a definite lattice")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    return q


def short_vectors(lat, bound):
    """All lattice vectors of norm <= bound, up to sign.

    Negative definite lattices are negated internally; norms in the report
    always use the positive convention.
    """
    gram = lat.gram_rows
    # a definite form's diagonal has one sign; _cholesky rejects the rest
    negated = bool(gram) and gram[0][0] < 0
    if negated:
        gram = [[-x for x in row] for row in gram]
    q = _cholesky(gram)
    bound = int(bound)
    if bound < 1 or lat.rank == 0:
        return ShortVectorReport(bound, (), (), negated)
    n = lat.rank
    found = []
    x = [0] * n

    def descend(i, remaining):
        # remaining = bound - sum of completed levels' contributions
        center = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                center += q[i][j] * x[j]
        lo, hi = _range_for(center, remaining / q[i][i])
        for xi in range(lo, hi + 1):
            x[i] = xi
            contrib = q[i][i] * (xi + center) ** 2
            rem = remaining - contrib
            if i == 0:
                if any(x):
                    norm = bound - rem
                    assert norm.denominator == 1
                    v = tuple(x)
                    # canonical sign: first nonzero coordinate positive
                    if next(c for c in v if c) > 0:
                        found.append((v, int(norm)))
            else:
                descend(i - 1, rem)
        x[i] = 0

    descend(n - 1, Fraction(bound))
    found.sort()
    counts = {}
    for _, norm in found:
        counts[norm] = counts.get(norm, 0) + 1
    return ShortVectorReport(
        bound, tuple(found), tuple(sorted(counts.items())), negated)


def minimum(lat):
    """Smallest norm of a nonzero vector, by doubling the search bound."""
    if lat.rank < 1:
        raise LatticeError("minimum of a rank-0 lattice")
    bound = 2
    while True:
        rep = short_vectors(lat, bound)
        if rep.vectors:
            return min(norm for _, norm in rep.vectors)
        bound *= 2
