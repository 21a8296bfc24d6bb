"""Certified short-vector enumeration for definite lattices.

Exact Cholesky data from ratmat's fraction-free symmetric elimination,
then depth-first coordinate enumeration with exact interval bounds
(Fincke-Pohst), each level taken in zig-zag order from the middle of its
range (Schnorr-Euchner), at a radius rounded down to a multiple of the
norm gcd.  No floating point: the empty report for a rootless lattice is
an unconditional certificate.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .lattice import CapExceeded, LatticeError
from .ratmat import MatrixError, symmetric_elimination, to_int

# Far above the largest search in the claims, tests and benchmark
# (L at bound 6: 295,492 nodes).
NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class ShortVectorReport:
    bound: int
    vectors: tuple         # ((coords, norm), ...) up to sign, lexicographic
    counts_by_norm: tuple  # ((norm, count of +- pairs), ...)
    negated: bool          # True when the input was negative definite

    @property
    def total_pairs(self):
        return len(self.vectors)


def _range_for(center, radius2):
    """Integer x with (x + center)^2 <= radius2, exactly, as (lo, hi)
    inclusive.  center and radius2 are Fractions, radius2 >= 0."""
    # x in [-center - r, -center + r] with r = sqrt(p/q) = sqrt(p*q)/q,
    # and floor((k + sqrt(m)) / c) = (k + isqrt(m)) // c for integers k, c > 0
    a, b = (-center).numerator, (-center).denominator
    p, q = radius2.numerator, radius2.denominator
    s = isqrt(b * b * p * q)
    return -((s - a * q) // (b * q)), (a * q + s) // (b * q)


def _cholesky(lat):
    """Rational Cholesky data of lat, or of -lat when lat is negative
    definite: q[i][i] > 0 and q[i][j] (j > i) with
    norm(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2.
    q[t][t] = p_t / p_{t-1} and q[t][j] = r_t[j] / p_t for the pivots p_t
    and pivot rows r_t of ratmat.symmetric_elimination; all p_t > 0 means
    signature (n, 0), and a definite form makes no pivot move, so p_t is
    the leading t+1 minor and the last pivot must be +-lat.det: a Gram
    matrix that does not match lat's det (a basis that spans a sublattice)
    raises LatticeError, as does a degenerate one.
    Returns (q, negated, g), where g = gcd(G_ii, 2 G_ij) divides every norm."""
    gram = lat.gram
    n = len(gram)
    # a definite form's diagonal has one sign; the pivots reject the rest
    sign = -1 if n and gram[0][0] < 0 else 1
    try:
        rows, pivots = symmetric_elimination([[sign * x for x in row] for row in gram])
    except MatrixError as e:
        raise LatticeError("short_vectors requires a nondegenerate lattice: %s" % e) from None
    if any(p <= 0 for p in pivots):
        raise LatticeError("short_vectors requires a definite lattice")
    if pivots and pivots[-1] != sign ** n * lat.det:
        raise LatticeError("Gram matrix has det %d, not the lattice's det %d"
                           % (sign ** n * pivots[-1], lat.det))
    q = [[0] * t + [Fraction(p, d)] + [Fraction(x, p) for x in row[1:]]
         for t, (row, p, d) in enumerate(zip(rows, pivots, [1] + pivots))]
    g = gcd(*(x if i == j else 2 * x
              for i, row in enumerate(gram) for j, x in enumerate(row)))
    return q, sign < 0, g


def _search(q, radius):
    """Yield (x, norm) for each nonzero x with norm <= radius[0] and first
    nonzero coordinate positive.  The caller may lower radius[0]; each
    level reads it once, on entry, so a vector yielded after a cut may lie
    above it.  Raises CapExceeded past NODE_BUDGET nodes (range widths)."""
    n = len(q)
    x = [0] * n
    nodes = 0

    def descend(i, remaining, r):
        # remaining = r - sum of completed levels' contributions
        nonlocal nodes
        if radius[0] < r:
            remaining -= r - radius[0]
            r = radius[0]
            if remaining < 0:
                return
        center = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                center += q[i][j] * x[j]
        lo, hi = _range_for(center, remaining / q[i][i])
        nodes += hi - lo + 1
        if nodes > NODE_BUDGET:
            raise CapExceeded("short-vector search past %d nodes" % NODE_BUDGET)
        mid = (lo + hi) // 2
        for k in range(hi - lo + 1):
            # zig-zag out from the middle of the range: short vectors first
            x[i] = xi = mid - k // 2 if k % 2 == 0 else mid + (k + 1) // 2
            rem = remaining - q[i][i] * (xi + center) ** 2
            if i:
                yield from descend(i - 1, rem, r)
            elif any(x) and next(c for c in x if c) > 0:
                # canonical sign: first nonzero coordinate positive
                norm = r - rem
                assert norm.denominator == 1
                yield tuple(x), int(norm)
        x[i] = 0

    try:
        yield from descend(n - 1, Fraction(radius[0]), radius[0])
    finally:
        # descend refers to itself; dropping it frees the search's data at
        # once instead of at the next cyclic collection
        del descend


def short_vectors(lat, bound):
    """All lattice vectors of norm <= bound, up to sign.

    Every norm is a multiple of g (see _cholesky), so the search runs at
    radius bound - (bound mod g); the report keeps bound.  Negative definite
    lattices are negated internally; norms in the report always use the
    positive convention.  Raises CapExceeded past NODE_BUDGET nodes.
    """
    try:
        bound = to_int(bound)
    except MatrixError:
        raise LatticeError("short_vectors bound %r is not an integer" % (bound,)) from None
    q, negated, g = _cholesky(lat)
    found = sorted(_search(q, [bound - bound % g])) if bound >= 1 and q else []
    counts = Counter(norm for _, norm in found)
    return ShortVectorReport(
        bound, tuple(found), tuple(sorted(counts.items())), negated)


def minimum(lat):
    """Smallest norm of a nonzero vector, by one shrinking-radius search.

    A basis vector has norm m = min |G_ii|.  The search starts at radius
    m - g and lowers it to N - g at each norm N found (norms are multiples
    of g), so it lists no vector it does not need.  The last N found is
    the minimum, else m.  Raises CapExceeded past NODE_BUDGET nodes.
    """
    if lat.rank < 1:
        raise LatticeError("minimum of a rank-0 lattice")
    q, _, g = _cholesky(lat)
    best = min(abs(row[i]) for i, row in enumerate(lat.gram))
    radius = [best - g]
    for _, norm in _search(q, radius):
        if norm < best:
            best, radius[0] = norm, norm - g
    return best
