"""Output checks for the benchmark, written without latkit's code.

Each check returns None when the output is right and a one-line reason
when it is not.  They use plain integer arithmetic (fraction-free
elimination, determinants, ranks modulo primes) so that a defect in
latkit's normal forms cannot hide itself.
"""

import json
import random
from fractions import Fraction
from math import gcd, prod


def det_int(m):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def echelon(rows):
    """(rank, pivot columns) of an integer matrix over Q."""
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f, g = a[i][c], a[r][c]
                row = [x * g - y * f for x, y in zip(a[i], a[r])]
                content = 0
                for x in row:
                    content = gcd(content, x)
                a[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
    return r, pivots


def rank_mod(rows, p):
    """Rank of an integer matrix modulo a prime p."""
    a = [[x % p for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _prime_factors(n, limit=10 ** 6):
    """Prime factors of n up to `limit`, and the unfactored rest."""
    out = []
    p = 2
    while p * p <= n and p <= limit:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if 1 < n and (n <= limit * limit):
        out.append(n)
        n = 1
    return out, n


def primitive(rows):
    """Whether integer rows of full rank span a saturated sublattice of
    Z^n, i.e. the gcd of their maximal minors is 1.

    Returns True, False, or None when the gcd keeps a prime factor too
    large to find by trial division.
    """
    r = len(rows)
    if r == 0:
        return True
    n = len(rows[0])
    rk, pivots = echelon(rows)
    if rk < r:
        return False
    rng = random.Random(r * 1000 + n)
    g = 0
    for cols in [pivots] + [sorted(rng.sample(range(n), r)) for _ in range(24)]:
        g = gcd(g, det_int([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return True
    # g is a multiple of the index of the span in its saturation: the
    # rows are primitive iff they keep full rank modulo each prime of g.
    primes, rest = _prime_factors(g)
    if any(rank_mod(rows, p) < r for p in primes):
        return False
    return True if rest == 1 else None


def _mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _solve_right(rows, basis):
    """C with rows = C . basis over Q, or None if some row is outside the
    rational span of basis (basis rows independent)."""
    _, pivots = echelon(basis)
    k = len(basis)
    sq = [[Fraction(basis[i][c]) for c in pivots] for i in range(k)]
    # rows[:, pivots] = C . sq  <=>  sq^T C^T = rows[:, pivots]^T
    out = []
    for row in rows:
        # Gaussian elimination on the k x k system sq^T y = row[pivots]
        a = [[sq[i][j] for i in range(k)] + [Fraction(row[pivots[j]])]
             for j in range(k)]
        for c in range(k):
            p = next(i for i in range(c, k) if a[i][c])
            a[c], a[p] = a[p], a[c]
            a[c] = [x / a[c][c] for x in a[c]]
            for i in range(k):
                if i != c and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        y = [a[i][k] for i in range(k)]
        if any(sum(y[i] * basis[i][c] for i in range(k)) != row[c]
               for c in range(len(row))):
            return None
        out.append(y)
    return out


# -- per-class checks ------------------------------------------------------

def check_disc(gram, fqf):
    """Discriminant group of the lattice with this Gram matrix."""
    n = len(gram)
    f = tuple(fqf.invariant_factors)
    if prod(f) != abs(det_int(gram)):
        return "product of invariant factors %s != |det|" % (f,)
    if any(d <= 1 for d in f) or any(f[i + 1] % f[i] for i in range(len(f) - 1)):
        return "invariant factors %s are not a divisibility chain" % (f,)
    lifts = fqf.generator_lifts
    if len(lifts) != len(f) or len(fqf.q_values) != len(f):
        return "%d lifts for %d invariant factors" % (len(lifts), len(f))
    for i, (d, lift) in enumerate(zip(f, lifts)):
        if len(lift) != n:
            return "lift %d has length %d" % (i, len(lift))
        if any((d * Fraction(x)).denominator != 1 for x in lift):
            return "d_%d * lift_%d is not integral" % (i, i)
        if any(Fraction(x).denominator != 1 for x in _mat_vec(gram, lift)):
            return "G * lift_%d is not integral" % i
        q = sum(x * y for x, y in zip(lift, _mat_vec(gram, lift))) % 2
        if fqf.q_values[i] != q:
            return "q_%d is %s, recomputed %s" % (i, fqf.q_values[i], q)
    bm = fqf.b_matrix
    if any(bm[i][j] != bm[j][i] for i in range(len(f)) for j in range(i)):
        return "b_matrix is not symmetric"
    return None


def check_orthogonal_complement(gram, rows, result):
    sub, basis = result
    n, k = len(gram), len(rows)
    if len(basis) != n - k or (basis and echelon(basis)[0] != n - k):
        return "complement has rank %d, expected %d" % (len(basis), n - k)
    for r in rows:
        p = _mat_vec(gram, r)
        if any(sum(x * y for x, y in zip(p, b)) for b in basis):
            return "a complement row is not orthogonal to the input"
    ok = primitive(basis)
    if not ok:
        return "complement basis is not primitive" if ok is False else \
            "primitivity of the complement basis is undecided"
    want = [[sum(x * y for x, y in zip(_mat_vec(gram, a), b)) for b in basis]
            for a in basis]
    if [list(row) for row in sub.gram] != want:
        return "complement lattice Gram matrix does not match its basis"
    return None


def check_saturation(gram, rows, result):
    sat, idx = result
    k = len(rows)
    if len(sat) != k or echelon(sat)[0] != k:
        return "saturation has rank %d, expected %d" % (len(sat), k)
    ok = primitive(sat)
    if not ok:
        return "saturation basis is not primitive" if ok is False else \
            "primitivity of the saturation basis is undecided"
    coords = _solve_right(rows, sat)
    if coords is None:
        return "input rows are outside the span of the saturation"
    if any(x.denominator != 1 for row in coords for x in row):
        return "input rows are not integral in the saturation basis"
    true_idx = abs(det_int([[int(x) for x in row] for row in coords]))
    if idx != true_idx:
        return "index %s, recomputed %d" % (idx, true_idx)
    return None


def check_short_vectors(gram, bound, rep, expected_pairs=None):
    """Report of short_vectors(lat, bound) for the lattice with this Gram
    matrix: norms recomputed, canonical signs, no duplicates, counts."""
    sign = -1 if rep.negated else 1
    seen = set()
    for v, norm in rep.vectors:
        if not any(v):
            return "zero vector listed"
        if next(c for c in v if c) < 0:
            return "vector %s does not have canonical sign" % (v,)
        if v in seen:
            return "vector %s listed twice" % (v,)
        seen.add(v)
        q = sign * sum(x * y for x, y in zip(v, _mat_vec(gram, v)))
        if q != norm or not 1 <= norm <= bound:
            return "vector %s has norm %d, reported %d (bound %d)" % (v, q, norm, bound)
    counts = {}
    for _, norm in rep.vectors:
        counts[norm] = counts.get(norm, 0) + 1
    if tuple(sorted(counts.items())) != tuple(rep.counts_by_norm):
        return "counts_by_norm does not match the vectors"
    # completeness spot check: every short basis vector is listed
    for i in range(len(gram)):
        if sign * gram[i][i] <= bound:
            e = tuple(int(i == j) for j in range(len(gram)))
            if e not in seen:
                return "basis vector %d of norm %d missing" % (i, sign * gram[i][i])
    if expected_pairs is not None and len(rep.vectors) != expected_pairs:
        return "%d pairs, expected %d" % (len(rep.vectors), expected_pairs)
    return None


def commutant_dim_expected(weights):
    """dim of the commutant of a diagonal map with eigenvalues
    w^a_i: the sum of squared eigenvalue multiplicities."""
    mult = {}
    for a in weights:
        mult[a % 5] = mult.get(a % 5, 0) + 1
    return sum(m * m for m in mult.values())


def dihedral_expected(weights, perm):
    """sigma = diag(w^a_i) and the permutation involution iota
    generate a dihedral group of order 10 in PGL iff sigma is not scalar
    and a_perm(i) + a_i is constant mod 5."""
    if len({a % 5 for a in weights}) == 1:
        return False
    return len({(weights[perm[i]] + weights[i]) % 5 for i in range(len(perm))}) == 1


def check_claims(rc, text, expected_count):
    """A `latkit repro --json` run: exit 0 and every claim passes."""
    if rc != 0:
        return "exit code %s" % rc
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError) as exc:
        return "unreadable JSON output: %s" % exc
    failed = [r["id"] for r in results if not r.get("pass")]
    if failed:
        return "claims failed: %s" % ", ".join(failed[:5])
    if len(results) != expected_count:
        return "%d claims, expected %d" % (len(results), expected_count)
    return None
