"""Exact dense linear algebra over the rationals and over Z.

Matrices are any sequences of rows, copied before any write.  mat_mul
adds products of nonzeros only, so ints give ints and an entry is a
Fraction only if one of its nonzero terms is; mat_vec and vec_dot sum
map(mul, ...), ints giving ints and any Fraction term a Fraction.  Every
mat_mul in latkit multiplies ints.  to_int converts an int first.
det, scaled_inverse (and inverse) and rref share one fraction-free
elimination on ints; signature and IntegralLattice.elimination share the
upper-triangle symmetric_elimination; snf, hnf_int and int_kernel check
for int rows of one length once and share one echelon kernel; and
clear_denominators puts rational rows over one common denominator.
Everything here is exact -- no floats anywhere.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class MatrixError(ValueError):
    pass


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def block_diag(blocks):
    """The block-diagonal matrix of the square blocks, as new lists."""
    n = sum(map(len, blocks))
    out, off = [], 0
    for b in blocks:
        out += [[0] * off + list(row) + [0] * (n - off - len(b)) for row in b]
        off += len(b)
    return out


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise MatrixError("dimension mismatch in mat_mul")
    nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = [[0] * (len(b[0]) if b else 0) for _ in a]
    for row, acc in zip(a, out):
        for x, nz in zip(row, nonzeros):
            if x:
                for j, y in nz:
                    acc[j] += x * y
    return out


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def vec_dot(u, v):
    return sum(map(mul, u, v))


def to_int(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise MatrixError("non-integer entry %s" % x)
        return x.numerator
    if isinstance(x, int):
        return int(x)
    raise MatrixError("non-integer entry %r" % (x,))


def _square(a):
    if any(len(row) != len(a) for row in a):
        raise MatrixError("matrix with %d rows is not square" % len(a))
    return len(a)


def _fraction_free(rows, ncols, above=True):
    """Fraction-free Gauss-Jordan elimination on ints (Bareiss 1968), with
    pivots in the first ncols columns.  Each row is scaled to ints by the
    lcm of its denominators; each step maps every other row to
    (p * row - row[c] * pivot row) // d, p the new pivot and d the last
    one, and every division is exact.  At the end every pivot is d, the
    determinant of the pivot minor, so the rows are d times the RREF.
    above=False skips the rows above each pivot (triangular Bareiss), with
    the same pivots, d and sign but unreduced rows.
    Returns (pivot rows, pivots, d, sign of the row swaps, row scales' product)."""
    a, den = [], 1
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (s // x.denominator) for x in row])
        den *= s
    pivots, d, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(len(a)) if above else range(r + 1, len(a)):
            row = a[i]
            f = row[c]
            if i == r or not f and p == d:
                continue
            a[i] = ([(p * x - f * y) // d for x, y in zip(row, top)] if f
                    else [p * x // d for x in row])
        d = p
        pivots.append(c)
    return a[:len(pivots)], pivots, d, sign, den


def det(a):
    """sign * d divided by the row scales, from the triangular elimination;
    an int for integer input."""
    n = _square(a)
    _, pivots, d, sign, den = _fraction_free(a, n, above=False)
    if len(pivots) < n:
        return 0
    return sign * d if den == 1 else Fraction(sign * d, den)


def scaled_inverse(a):
    """(B, d) with B = d A^-1 an int matrix: the right block of [A | I]
    after the fraction-free elimination, and d its last pivot (for int A,
    d = +-det A and B = +-adj A)."""
    n = _square(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    red, pivots, d, _, _ = _fraction_free(aug, n)
    if len(pivots) < n:
        raise MatrixError("singular matrix")
    return [row[n:] for row in red], d


def inverse(a):
    """Inverse over Q: the scaled inverse divided by its d."""
    b, d = scaled_inverse(a)
    return [[Fraction(x, d) for x in row] for row in b]


def divide_exact(a, d):
    """The int matrix a divided by d, or None if d does not divide every entry."""
    if any(x % d for row in a for x in row):
        return None
    return [[x // d for x in row] for row in a]


def rref(rows, ncols):
    """Reduced row echelon form over Q, pivots in the first ncols columns.
    Returns (R, pivots); R has one row per pivot; its zeros share one Fraction(0)."""
    red, pivots, d, _, _ = _fraction_free(rows, ncols)
    zero = Fraction(0)
    return [[Fraction(x, d) if x else zero for x in row] for row in red], pivots


# --- integer normal forms -------------------------------------------------

def _int_rows(mat):
    """mat as new int lists; MatrixError on a non-integer entry or ragged rows."""
    a = [list(map(to_int, row)) for row in mat]
    if any(len(row) != len(a[0]) for row in a):
        raise MatrixError("rows of unequal lengths %s" % sorted({len(r) for r in a}))
    return a


def _echelon(a, ncols, hermite):
    """Bring the int lists a, in place, to echelon form on their first
    ncols columns and return its rank r: rows r.. are zero there.
    hermite=True also makes each pivot positive and reduces the entries
    above it into [0, pivot), which leaves the rows below it as they are."""
    r = 0
    for c in range(ncols):
        # rows r.. are zero left of column c, so only columns c.. change
        while r < len(a):
            nz = [(abs(row[c]), i) for i, row in enumerate(a[r:], r) if row[c]]
            if nz:
                i = min(nz)[1]
                a[r], a[i] = a[i], a[r]
            if len(nz) < 2:
                break
            top = a[r][c:]
            for row in a[r + 1:]:
                if row[c]:
                    q = row[c] // top[0]
                    row[c:] = [x - q * y for x, y in zip(row[c:], top)]
        if r < len(a) and a[r][c]:
            top = a[r]
            if hermite:
                if top[c] < 0:
                    top[c:] = [-x for x in top[c:]]
                for row in a[:r]:
                    q = row[c] // top[c]
                    if q:
                        row[c:] = [x - q * y for x, y in zip(row[c:], top[c:])]
            r += 1
    return r


def _hnf(a):
    """The row Hermite form of the int lists a, which it rewrites."""
    return a[:_echelon(a, len(a[0]) if a else 0, True)]


def _hermite_blocks(a, w):
    """The row Hermite form of [a | w], split back into its two blocks."""
    k = len(a[0]) if a else 0
    h = _hnf([row + x for row, x in zip(a, w)])
    return [row[:k] for row in h], [row[k:] for row in h]


def _is_diagonal(a):
    return not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def snf(mat):
    """Smith normal form.  Returns (U, D, V) with D = U * mat * V,
    U and V unimodular, D diagonal with d1 | d2 | ... >= 0, zeros last.

    Every reduction is a row Hermite form (Kannan-Bachem 1979; Cohen, A
    Course in Computational Algebraic Number Theory, section 2.4): that of
    [A | U] does the row moves, that of [A^T | V^T] the column moves, and
    the two alternate until A is diagonal.  Hermite forms keep their
    entries reduced, so U and V stay small.  Then each diagonal pair
    d_i, d_j (i < j) with d_i not dividing d_j becomes gcd, lcm by one
    2 x 2 unimodular step on rows i, j of U and columns i, j of V.
    """
    a = _int_rows(mat)
    n = len(a)
    m = len(a[0]) if a else 0
    v = identity(m)
    a, u = _hermite_blocks(a, identity(n))
    while not _is_diagonal(a):
        a, v = map(transpose, _hermite_blocks(transpose(a), transpose(v)))
        if not _is_diagonal(a):
            a, u = _hermite_blocks(a, u)
    k = min(n, m)
    for i in range(k):
        for j in range(i + 1, k):
            x, y = a[i][i], a[j][j]
            g = gcd(x, y)
            if g == x:
                continue
            # s x + t y = g from the inverse of x / g mod y / g
            p, q = x // g, y // g
            s = pow(p, -1, q)
            t = (1 - s * p) // q
            u[i], u[j] = ([s * e + t * f for e, f in zip(u[i], u[j])],
                          [p * f - q * e for e, f in zip(u[i], u[j])])
            for row in v:
                row[i], row[j] = row[i] + row[j], s * p * row[j] - t * q * row[i]
            a[i][i], a[j][j] = g, p * y
    return u, a, v


def hnf_int(mat):
    """Row Hermite normal form of an integer matrix.

    Upper triangular (echelon), positive pivots, entries above a pivot
    reduced into [0, pivot).  Zero rows are dropped.
    """
    return _hnf(_int_rows(mat))


def clear_denominators(rows):
    """(int rows, d): d is the least common denominator of the entries
    (ints or Fractions), and the int rows are d times the input rows."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def int_kernel(mat):
    """Basis rows of {x in Z^m : mat . x = 0} in Hermite normal form.

    A unimodular W with W [mat^T | I_m] in echelon form on mat^T's k
    columns gives it (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.4.10): the right blocks of the rows whose left block is
    zero span the whole kernel, which is thus saturated.  Only they are
    brought to Hermite form, which is unique, so they are the kernel rows
    of the full Hermite form of [mat^T | I_m]."""
    a = _int_rows(mat)
    if not a:
        return []
    k = len(a)
    aug = [list(col) + e for col, e in zip(zip(*a), identity(len(a[0])))]
    r = _echelon(aug, k, False)
    return _hnf([row[k:] for row in aug[r:]])


def symmetric_elimination(gram):
    """Fraction-free symmetric elimination of a symmetric nondegenerate
    matrix on ints.  Returns (rows, pivots): rows[t] is pivot row t on its
    columns t..n-1 at the moment it is the pivot row, and pivots[t] = p_t.

    Step t maps each later row to (p * row - row[t] * pivot row) // d on
    the columns after t, p the pivot and d the last one (Bareiss): the
    trailing block stays d times the Schur complement, so rows[t] is
    p_{t-1} times row t of that complement.  The block is symmetric, so
    only its upper triangle is kept, row i on columns i..n-1.  A zero
    pivot rebuilds the whole block to swap a later nonzero diagonal entry
    in, or else to make the pivot nonzero by e_t += e_j; both moves are
    congruences, so the divisions stay exact.  Ragged or non-symmetric
    input raises MatrixError.
    """
    a, _ = clear_denominators(gram)
    n = _square(a)
    if transpose(a) != a:
        raise MatrixError("matrix is not symmetric")
    u = [row[i:] for i, row in enumerate(a)]
    rows, pivots = [], []
    d = 1
    for t in range(n):
        if not u[t][0]:
            m = n - t
            b = [[u[t + min(i, j)][abs(i - j)] for j in range(m)] for i in range(m)]
            e = identity(m)
            j = next((i for i in range(1, m) if b[i][i]), None)
            if j is not None:
                e[0], e[j] = e[j], e[0]
            else:
                j = next((i for i in range(1, m) if b[0][i]), None)
                if j is None:
                    raise MatrixError("degenerate symmetric form")
                e[0][j] = 1  # e_t += e_j makes the pivot 2 b[0][j] != 0
            b = mat_mul(mat_mul(e, b), transpose(e))
            u[t:] = [row[i:] for i, row in enumerate(b)]
        top = u[t]
        p = top[0]
        rows.append(top)
        pivots.append(p)
        for i in range(t + 1, n):
            f = top[i - t]
            u[i] = [(p * x - f * y) // d for x, y in zip(u[i], top[i - t:])]
        d = p
    return rows, pivots


def signature(gram):
    """Signature (n_plus, n_minus) of a symmetric nondegenerate matrix:
    _sylvester on the pivots of symmetric_elimination."""
    return _sylvester(symmetric_elimination(gram)[1])


def _sylvester(pivots):
    """Pivot t counts as positive iff p_t and p_{t-1} have one sign (p_{-1} = 1)."""
    npos = sum((p > 0) == (d > 0) for d, p in zip((1, *pivots), pivots))
    return npos, len(pivots) - npos
