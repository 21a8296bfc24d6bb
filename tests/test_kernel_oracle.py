"""int_kernel and saturation, read off one Hermite form, against the
Smith-form versions they replaced, kept here as oracles.  Hermite normal
form is unique, so the kernels and saturations must be equal, not just
span the same lattice; the oracles' errors must match too."""

import itertools
import random
import time
from math import prod

from latkit.lattice import LatticeError, make_lattice, saturation
from latkit.ratmat import hnf_int, identity, int_kernel, mat_mul, snf, to_int, transpose


# --- the oracles ----------------------------------------------------------

def ref_int_kernel(mat):
    """The last m - r columns of V in U mat V = D span the kernel; their
    Hermite form is the kernel basis."""
    a = [list(map(to_int, row)) for row in mat]
    if not a:
        return []
    m = len(a[0])
    u, d, v = snf(a)
    r = sum(1 for i in range(min(len(a), m)) if d[i][i])
    vt = transpose(v)
    return hnf_int([vt[j] for j in range(r, m)])


def ref_saturation(n, rows):
    """One Smith form D = U rows V: the index is the product of D's
    diagonal, and the kernel of the last n - k columns of V is the
    saturation."""
    rows = [list(r) for r in rows]
    k = len(rows)
    if not rows:
        return [], 1
    _, d, v = snf(rows)
    diag = [d[i][i] for i in range(min(k, n))]
    if k > n or not all(diag):
        raise LatticeError("saturation input rows are dependent")
    sat = ref_int_kernel(transpose(v)[k:]) if k < n else identity(n)
    return sat, prod(diag)


# --- seeded inputs ----------------------------------------------------------

def rand_mat(rng, n, m, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def rank_deficient(rng, n, m, r):
    """An n x m matrix of rank at most r, as a product of random factors."""
    return mat_mul(rand_mat(rng, n, r, -2, 2), rand_mat(rng, r, m, -2, 2))


def kernel_inputs():
    rng = random.Random(13)
    cases = [rand_mat(rng, rng.randint(1, 4), rng.randint(1, 5), -6, 6) for _ in range(400)]
    for case in range(120):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        if case % 3 == 0:
            cases.append(rank_deficient(rng, n, m, rng.randint(1, min(n, m))))
        else:
            cases.append(rand_mat(rng, n, m, -4, 4))
    # tall: many more rows than columns, full rank and rank-deficient
    for case in range(40):
        n, m = rng.randint(12, 40), rng.randint(2, 6)
        if case % 2:
            cases.append(rank_deficient(rng, n, m, rng.randint(1, m - 1)))
        else:
            cases.append(rand_mat(rng, n, m, -3, 3))
    cases += [[[0, 0, 0]], [[0], [0]], [[5]], [[0, 3], [0, 6]]]
    return cases


def saturation_inputs():
    """(n, rows): independent rows with a nontrivial index, dependent rows,
    k = n, and k > n."""
    rng = random.Random(29)
    cases = []
    for case in range(300):
        n = rng.randint(1, 8)
        k = rng.randint(1, n + (case % 10 == 0))
        if case % 4 == 0:
            rows = rank_deficient(rng, k, n, rng.randint(1, k))
        else:
            base = rand_mat(rng, k, n, -3, 3)
            mult = rand_mat(rng, k, k, -2, 2)
            rows = mat_mul(mult, base)
        cases.append((n, rows))
    return cases


def outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeError as exc:
        return "LatticeError", str(exc)


# --- the comparisons --------------------------------------------------------

def test_int_kernel_matches_snf_oracle():
    cases = kernel_inputs()
    for a in cases:
        assert int_kernel(a) == ref_int_kernel(a), a
    assert sum(1 for a in cases if int_kernel(a)) > 200


def test_saturation_matches_snf_oracle():
    cases = saturation_inputs()
    results = []
    for n, rows in cases:
        lat = make_lattice(identity(n))
        got = outcome(saturation, lat, rows)
        assert got == outcome(ref_saturation, n, rows), (n, rows)
        results.append(got)
    errors = sum(1 for r in results if r[0] == "LatticeError")
    indices = {r[1] for r in results if r[0] != "LatticeError"}
    assert 30 < errors < len(cases) - 150
    assert len(indices) > 5 and 1 in indices


def test_tall_signed_permutation_stack():
    """M - I stacked over the 384 signed permutations of Z^4, a 1,536 x 4
    matrix with no kernel: one 4-row Hermite form, where the Smith form of
    the stack took over a minute."""
    def minus_identity(perm, signs):
        return [[signs[i] * (perm[i] == j) - (i == j) for j in range(4)] for i in range(4)]

    stack = [row for perm in itertools.permutations(range(4))
             for signs in itertools.product((1, -1), repeat=4)
             for row in minus_identity(perm, signs)]
    assert len(stack) == 1536
    t0 = time.perf_counter()
    assert int_kernel(stack) == []
    assert time.perf_counter() - t0 < 1.0
    # the 4-cycle alone fixes (1, 1, 1, 1)
    cycle = minus_identity((1, 2, 3, 0), (1, 1, 1, 1))
    assert int_kernel(cycle) == [[1, 1, 1, 1]] == ref_int_kernel(cycle)
