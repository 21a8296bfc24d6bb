import random
from fractions import Fraction

import pytest

from cholesky_ref import INDEFINITE, definite_grams
from latkit import ratmat
from latkit.ratmat import (
    det, hnf_int, identity, int_kernel, inverse, mat_mul, mat_vec, rref,
    signature, snf, symmetric_elimination, transpose, MatrixError,
)


def rand_mat(rng, n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_det_small():
    assert det([[2, 1], [1, 2]]) == 3
    assert det([[0, 1], [1, 0]]) == -1
    assert det([]) == 1
    assert det([[1, 2], [2, 4]]) == 0


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = rand_mat(rng, n, n)
        if det(a) == 0:
            continue
        assert mat_mul(a, inverse(a)) == [[Fraction(int(i == j)) for j in range(n)]
                                          for i in range(n)]


def test_inverse_singular_raises():
    with pytest.raises(MatrixError):
        inverse([[1, 2], [2, 4]])


def test_non_square_rejected():
    for a in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(MatrixError, match="not square"):
            det(a)
        with pytest.raises(MatrixError, match="not square"):
            inverse(a)


def _rank_deficient(rng, n, m, r):
    """An n x m integer matrix of rank at most r, as a product of random
    n x r and r x m factors."""
    return mat_mul(rand_mat(rng, n, r, -2, 2), rand_mat(rng, r, m, -2, 2))


def _diag(*d):
    return [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]


def test_snf_round_trip_random():
    # 500 small matrices, then 60 up to 20 x 20, rectangular, a third of
    # them rank-deficient, then diagonal inputs with negative entries, zeros
    # between nonzeros and non-dividing pairs, which reach the 2 x 2 gcd
    # step, and a zero row and a zero column; the invariant factors are
    # checked against sympy
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(2024)
    cases = [rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), -6, 6) for _ in range(500)]
    rng = random.Random(31)
    for case in range(60):
        n, m = rng.randint(1, 20), rng.randint(1, 20)
        if case % 3 == 0:
            cases.append(_rank_deficient(rng, n, m, rng.randint(1, min(n, m))))
        else:
            cases.append(rand_mat(rng, n, m, -3, 3))
    cases += [_diag(6, 4), _diag(0, 3), _diag(-3), _diag(6, -4, 0, 9),
              [[0, 0, 0], [4, 6, 2]], [[0, 2], [0, 3]]]
    for a in cases:
        n, m = len(a), len(a[0])
        u, d, v = snf(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        assert all(d[i][j] == 0 for i in range(n) for j in range(m) if i != j)
        diag = [d[i][i] for i in range(min(n, m))]
        nonzero = [x for x in diag if x]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        assert all(x > 0 for x in nonzero)
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        assert nonzero == [int(x) for x in invariant_factors(Matrix(a)) if x]


def test_hnf_shape_and_span():
    rng = random.Random(5)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, n, m, -6, 6)
        h = hnf_int(a)
        # echelon with positive pivots, reduced above
        last = -1
        for row in h:
            c = next(i for i, x in enumerate(row) if x)
            assert c > last
            last = c
            assert row[c] > 0
        # HNF is a canonical form of the row span
        assert hnf_int(h + a) == h


def test_int_kernel_saturated():
    # kernel of (2 4) is spanned by (2, -1), primitively
    k = int_kernel([[2, 4]])
    assert len(k) == 1
    v = k[0]
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd
    assert gcd(v[0], v[1]) == 1
    assert hnf_int(k) == k
    # a wider kernel comes back in Hermite normal form too
    a = [[1, 1, 1, 1], [0, 2, 4, 6]]
    k = int_kernel(a)
    assert len(k) == 2 and hnf_int(k) == k
    assert all(mat_vec(a, v) == [0, 0] for v in k)


def test_signature_basics():
    assert signature([[2, 0], [0, -3]]) == (1, 1)
    assert signature([[0, 1], [1, 0]]) == (1, 1)
    assert signature([[2, 1], [1, 2]]) == (2, 0)
    assert signature([[-2, 1], [1, -2]]) == (0, 2)


def test_signature_random_vs_eigen_count():
    # compare against counting sign changes of leading principal minors
    # when they are all nonzero (Jacobi's criterion)
    rng = random.Random(3)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        a = rand_mat(rng, n, n, -4, 4)
        s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        minors = [det([row[:k] for row in s[:k]]) for k in range(1, n + 1)]
        if any(m == 0 for m in minors):
            continue
        nneg = 0
        prev = Fraction(1)
        for m in minors:
            if (m > 0) != (prev > 0):
                nneg += 1
            prev = m
        assert signature(s) == (n - nneg, nneg)
        done += 1


def _sympy_inertia(s):
    # Descartes' rule of signs is exact for a polynomial whose roots are all
    # real, such as the characteristic polynomial of a symmetric matrix
    from sympy import Matrix

    coeffs = Matrix(s).charpoly().all_coeffs()

    def changes(cs):
        cs = [c for c in cs if c]
        return sum((a > 0) != (b > 0) for a, b in zip(cs, cs[1:]))

    return changes(coeffs), changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])


def _direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def test_signature_oracle_sympy():
    # Seeded symmetric nondegenerate matrices against sympy's inertia,
    # including the zero leading minors the Jacobi test above skips: U,
    # U(2)^3 and U + A2 (a zero first pivot with no nonzero diagonal to swap
    # in), zero-diagonal matrices, and their congruences by random
    # unimodular matrices, some divided by small denominators.
    u = [[0, 1], [1, 0]]
    u2 = [[0, 2], [2, 0]]
    a2 = [[2, -1], [-1, 2]]
    fixed = [u, _direct_sum(u2, u2, u2), _direct_sum(u, a2), _direct_sum(a2, u),
             _direct_sum([[-2]], u, [[0, 3], [3, 0]])]
    rng = random.Random(29)
    cases = list(fixed)
    while len(cases) < 150:
        n = rng.randint(1, 8)
        kind = len(cases) % 3
        if kind == 0:
            a = rand_mat(rng, n, n, -3, 3)
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
    zero_minor = 0
    for k, s in enumerate(cases):
        n = len(s)
        zero_minor += any(det([row[:m] for row in s[:m]]) == 0 for m in range(1, n + 1))
        want = _sympy_inertia(s)
        assert signature(s) == want, s
        if k % 4 == 1:
            scaled = [[Fraction(x, 6) for x in row] for row in s]
            assert signature(scaled) == want
    assert zero_minor >= 40
    with pytest.raises(MatrixError, match="degenerate"):
        signature(_direct_sum(u, [[0]]))


def test_signature_on_short_vector_inputs(L):
    # the Gram matrices of the Cholesky oracle in test_shortvec, and the
    # indefinite forms short_vectors rejects, against sympy's inertia; on
    # a definite form no pivot move runs, so pivot t is the leading
    # (t + 1) x (t + 1) minor
    from sympy import Matrix

    for s in definite_grams([L[0].lattice.gram]) + list(INDEFINITE):
        assert signature(s) == _sympy_inertia(s)
    for s in definite_grams():
        rows, pivots = symmetric_elimination(s)
        m = Matrix(s)
        assert pivots == [m[:k, :k].det() for k in range(1, len(s) + 1)]
        assert [len(row) for row in rows] == list(range(len(s), 0, -1))


def test_transpose_empty():
    assert transpose([]) == []
    assert identity(0) == []


def test_snf_transforms_stay_small_on_L(L):
    # Alternating Hermite forms keep U and V small (6 bits here); a pivot
    # loop on G itself gave entries of 33,044 (U) and 71,385 (V) bits.
    g = L[0].lattice.gram
    u, d, v = snf(g)
    assert mat_mul(mat_mul(u, g), v) == d
    assert max(abs(x).bit_length() for m in (u, v) for row in m for x in row) <= 64


def test_det_oracle_sympy():
    from sympy import Matrix

    rng = random.Random(17)
    for case in range(60):
        n = rng.randint(1, 12)
        if case % 3 == 0 and n > 1:
            a = _rank_deficient(rng, n, n, rng.randint(1, n - 1))
        else:
            a = rand_mat(rng, n, n)
        if case % 2:
            a = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in a]
        expected = Matrix(a).det()
        got = det(a)
        assert got == Fraction(int(expected.p), int(expected.q))
        if case % 2 == 0:
            assert type(got) is int


def test_elimination_oracle_sympy():
    # rref, inverse and det from the one fraction-free elimination,
    # against sympy on int and Fraction matrices: square, rectangular and
    # rank-deficient (n x r times r x m)
    from sympy import Matrix, Rational

    def to_sympy(a):
        return Matrix([[Rational(x.numerator, x.denominator) for x in row] for row in a])

    def from_sympy(x):
        return Fraction(int(x.p), int(x.q))

    rng = random.Random(23)
    for case in range(150):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        if case % 5 < 2:
            m = n
        if case % 3 == 0:
            a = _rank_deficient(rng, n, m, rng.randint(1, min(n, m)))
        else:
            a = rand_mat(rng, n, m)
        if case % 2:
            a = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in a]
        s = to_sympy(a)
        expected, expected_pivots = s.rref()
        red, pivots = rref(a, m)
        assert pivots == list(expected_pivots)
        assert red == [[from_sympy(x) for x in expected.row(i)] for i in range(len(pivots))]
        assert s.rank() == len(pivots)
        if n != m:
            continue
        assert det(a) == from_sympy(s.det())
        if len(pivots) < n:
            with pytest.raises(MatrixError, match="singular"):
                inverse(a)
        else:
            assert inverse(a) == [[from_sympy(x) for x in s.inv().row(i)] for i in range(n)]


def _rand_entries(rng, n, m, kind):
    """An n x m matrix of ints, Fractions or (kind "mixed") both."""
    def entry():
        x = rng.randint(-9, 9)
        if kind == "int" or kind == "mixed" and rng.random() < 0.5:
            return x
        return Fraction(x, rng.randint(1, 6))
    return [[entry() for _ in range(m)] for _ in range(n)]


def _product_type(u, v):
    # the type of the termwise products summed from 0: int unless some
    # term is a Fraction
    return type(sum(x * y for x, y in zip(u, v)))


def test_products_oracle_sympy():
    # mat_mul, mat_vec and vec_dot against sympy on int, Fraction and mixed
    # entries, with 0 rows on the left and 0 columns on the right; ints
    # must give ints, and in mat_vec and vec_dot any Fraction term a
    # Fraction (mat_mul skips zero terms, so it makes no such promise)
    from sympy import Matrix, Rational

    def to_sympy(a, n, m):
        return Matrix(n, m, [Rational(Fraction(x).numerator, Fraction(x).denominator)
                             for row in a for x in row])

    def from_sympy(x):
        return Fraction(int(x.p), int(x.q))

    rng = random.Random(29)
    for case in range(240):
        kind = ("int", "fraction", "mixed")[case % 3]
        n, k, m = rng.randint(0, 5), rng.randint(1, 5), rng.randint(0, 5)
        a, b = _rand_entries(rng, n, k, kind), _rand_entries(rng, k, m, kind)
        v = _rand_entries(rng, 1, k, kind)[0]
        got = mat_mul(a, b)
        want = (to_sympy(a, n, k) * to_sympy(b, k, m)).tolist()
        assert got == [[from_sympy(x) for x in row] for row in want]
        assert len(got) == n and all(len(row) == m for row in got)
        got_v = mat_vec(a, v)
        want_v = to_sympy(a, n, k) * to_sympy([v], 1, k).T
        assert got_v == [from_sympy(want_v[i, 0]) for i in range(n)]
        assert [type(x) for x in got_v] == [_product_type(row, v) for row in a]
        u = _rand_entries(rng, 1, k, kind)[0]
        dot = ratmat.vec_dot(u, v)
        assert dot == from_sympy((to_sympy([u], 1, k) * to_sympy([v], 1, k).T)[0, 0])
        assert type(dot) is _product_type(u, v)
        if kind == "int":
            assert all(type(x) is int for x in sum(got, []) + got_v + [dot])
    assert ratmat.vec_dot([], []) == 0 and type(ratmat.vec_dot([], [])) is int
    assert mat_vec([], [1, 2]) == []


def test_mat_mul_dimension_mismatch():
    for a, b in (([[1, 2]], [[1, 2]]), ([[1]], [[1], [2]]),
                 ([[Fraction(1, 2)] * 3], [[1]] * 2)):
        with pytest.raises(MatrixError, match="dimension mismatch in mat_mul"):
            mat_mul(a, b)


def test_to_int_cases():
    to_int = ratmat.to_int
    assert to_int(7) == 7 and to_int(-(10 ** 30)) == -(10 ** 30)
    for b in (True, False):
        assert to_int(b) == int(b) and type(to_int(b)) is int
    assert to_int(Fraction(-6, 3)) == -2 and type(to_int(Fraction(4, 2))) is int
    for x, msg in ((Fraction(1, 2), "non-integer entry 1/2"),
                   ([1, Fraction(2)], "non-integer entry [1, Fraction(2, 1)]"),
                   ((7,), "non-integer entry (7,)"),
                   (1.0, "non-integer entry 1.0"),
                   ("3", "non-integer entry '3'")):
        with pytest.raises(MatrixError) as err:
            to_int(x)
        assert str(err.value) == msg


# Inputs of the contract test: nondegenerate square ones (one with
# Fractions, one that needs a row swap), symmetric ones whose elimination
# takes each pivot move, and a wide one of rank 2.
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
HALVES = [[Fraction(1, 2), 1, 0], [2, Fraction(3, 4), 1], [0, 1, Fraction(-5, 3)]]
WIDE = [[2, 4, 6, 1], [1, 3, 5, 7], [3, 7, 11, 8]]
SQUARE = (A3, HALVES, [[0, 1], [1, 0]])
SYMMETRIC = (A3,) + INDEFINITE
ROUTINES = {
    "det": (det, SQUARE),
    "scaled_inverse": (ratmat.scaled_inverse, SQUARE),
    "inverse": (inverse, SQUARE),
    "rref": (lambda m: rref(m, len(m[0])), SQUARE + (WIDE,)),
    "snf": (snf, (A3, WIDE)),
    "hnf_int": (hnf_int, (A3, WIDE)),
    "int_kernel": (int_kernel, (A3, WIDE)),
    "symmetric_elimination": (symmetric_elimination, SYMMETRIC),
    "signature": (signature, SYMMETRIC),
    "mat_mul": (lambda m: mat_mul(m, m), SQUARE),
    "transpose": (transpose, SQUARE + (WIDE,)),
    "clear_denominators": (ratmat.clear_denominators, (HALVES, WIDE)),
}


@pytest.mark.parametrize("name", sorted(ROUTINES))
def test_routines_read_tuples_and_lists_alike(name):
    # lattices and isometries hand their matrices out as int tuples: each
    # routine must read them as it reads lists, and write to neither
    fn, inputs = ROUTINES[name]
    for m in inputs:
        rows = [list(r) for r in m]
        frozen = tuple(map(tuple, m))
        assert fn(frozen) == fn(rows)
        assert rows == m and frozen == tuple(map(tuple, m))
