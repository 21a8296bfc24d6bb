"""Certified short-vector enumeration for definite lattices.

Exact Cholesky data from the lattice's fraction-free symmetric
elimination, then depth-first coordinate enumeration with exact interval
bounds (Fincke-Pohst), each level taken in zig-zag order from the middle
of its range (Schnorr-Euchner), at a radius rounded down to a multiple of
the norm gcd.  No floating point: the empty report for a rootless lattice is
an unconditional certificate.  An overlattice of an orthogonal sum of
definite blocks is counted from its glue classes instead (glue_counts).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from .lattice import CapExceeded, LatticeError, _rational_rows
from .ratmat import MatrixError, clear_denominators, to_int

# Far above the largest search in the claims, tests and benchmark
# (L at bound 6: 295,492 nodes).  glue_counts counts its glue classes and
# convolution terms against it too.
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
    and pivot rows r_t of lat.elimination.  A definite form makes no pivot
    move, so p_t is the leading t+1 minor; -G's p_t and r_t are (-1)^(t+1)
    times G's, so for -lat only q[t][t] changes sign.  All q[t][t] > 0
    means signature (n, 0); any other form raises LatticeError, and so
    does a degenerate one, from its elimination.
    Returns (q, negated, g), where g = gcd(G_ii, 2 G_ij) divides every norm."""
    gram = lat.gram
    # a definite form's diagonal has one sign; the pivots reject the rest
    sign = -1 if gram and gram[0][0] < 0 else 1
    rows, pivots = lat.elimination
    if any(sign ** t * p <= 0 for t, p in enumerate(pivots, 1)):
        raise LatticeError("short_vectors requires a definite lattice")
    q = [[0] * t + [Fraction(sign * p, d)] + [Fraction(x, p) for x in row[1:]]
         for t, (row, p, d) in enumerate(zip(rows, pivots, (1,) + pivots))]
    return q, sign < 0, _norm_gcd(gram)


def _norm_gcd(gram):
    """gcd(G_ii, 2 G_ij), which divides every norm."""
    return gcd(*(x if i == j else 2 * x
                 for i, row in enumerate(gram) for j, x in enumerate(row)))


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
    bound = _int_bound(bound)
    q, negated, g = _cholesky(lat)
    found = sorted(_search(q, [bound - bound % g])) if bound >= 1 and q else []
    counts = Counter(norm for _, norm in found)
    return ShortVectorReport(
        bound, tuple(found), tuple(sorted(counts.items())), negated)


def _int_bound(bound):
    try:
        return to_int(bound)
    except MatrixError:
        raise LatticeError("short_vectors bound %r is not an integer" % (bound,)) from None


def glue_counts(lat, blocks, glue, bound):
    """The counts_by_norm of short_vectors(lat, bound), ((norm, count of
    +- pairs), ...), for lat = (+ blocks) + span(glue), an overlattice of
    an orthogonal sum of definite blocks of one sign.  Glue rows are
    rationals in the coordinates of the blocks' sum.

    A vector's norm is the sum of its block norms (Conway-Sloane, Sphere
    Packings, Lattices and Groups, ch. 4 sec. 3), so with d the glue's
    common denominator and r = bound rounded down by lat's norm gcd, as
    in short_vectors: one short_vectors(block, d^2 r) per distinct block,
    its vectors y (both signs, and 0) keyed by y mod d; the glue classes,
    each found once by adding each glue row to the classes found so far
    until a multiple of it is already among them; and per class the
    convolution of its blocks' tables, cut at d^2 r.  Classes and terms
    count against NODE_BUDGET (CapExceeded).  LatticeError unless the
    glue rows are rational of the blocks' total length, every block is
    definite of one sign, and |det (+ blocks)| = |det lat| (#classes)^2.
    """
    bound = _int_bound(bound)
    offsets = [sum(b.rank for b in blocks[:k]) for k in range(len(blocks) + 1)]
    rows = _rational_rows(glue, LatticeError, "glue row")
    for k, r in enumerate(rows):
        if len(r) != offsets[-1]:
            raise LatticeError("glue row %d has length %d, not the blocks' rank %d"
                               % (k, len(r), offsets[-1]))
    ws, d = clear_denominators(rows)

    zero = (0,) * offsets[-1]
    classes, seen = [zero], {zero}
    for w in ws:
        # the classes form a group S; S + j w is a new coset until j w in S
        layer = classes
        while True:
            first = tuple((a + b) % d for a, b in zip(layer[0], w))
            if first in seen:
                break
            layer = [first] + [tuple((a + b) % d for a, b in zip(c, w)) for c in layer[1:]]
            seen.update(layer)
            classes += layer
            if len(classes) > NODE_BUDGET:
                raise CapExceeded("glue classes past %d nodes" % NODE_BUDGET)
    blocks_det = abs(prod(b.det for b in blocks))
    if blocks_det != abs(lat.det) * len(classes) ** 2:
        raise LatticeError("the blocks have |det| %d, not |det| %d of the lattice times "
                           "%d^2 for its %d glue classes"
                           % (blocks_det, abs(lat.det), len(classes), len(classes)))

    cap = d * d * max(0, bound - bound % _norm_gcd(lat.gram)) if lat.rank else 0
    tables, signs = {}, set()
    for block in blocks:
        if block not in tables:
            report = short_vectors(block, cap)
            signs.add(report.negated)
            table = {(0,) * block.rank: Counter({0: 1})}
            for y, norm in report.vectors:
                for v in (y, [-x for x in y]):
                    table.setdefault(tuple(x % d for x in v), Counter())[norm] += 1
            tables[block] = table
    if len(signs) > 1:
        raise LatticeError("glue_counts requires blocks of one sign")

    parts = [(tables[block], lo, hi) for block, lo, hi in zip(blocks, offsets, offsets[1:])]
    total, nodes = Counter(), len(classes)
    for c in classes:
        acc = {0: 1}
        for table, lo, hi in parts:
            nxt = {}
            for t, k in table.get(c[lo:hi], {}).items():
                for s, m in acc.items():
                    if s + t <= cap:
                        nxt[s + t] = nxt.get(s + t, 0) + m * k
                nodes += len(acc)
            acc = nxt
        if nodes > NODE_BUDGET:
            raise CapExceeded("glue counts past %d nodes" % NODE_BUDGET)
        total.update(acc)
    total[0] -= 1  # the zero vector
    if any(s % (d * d) for s, count in total.items() if count):
        raise LatticeError("the glue gives a vector of non-integral norm")
    return tuple((s // (d * d), count // 2) for s, count in sorted(total.items()) if count)


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
