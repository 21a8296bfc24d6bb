import gc
import random
import re
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from cholesky_ref import INDEFINITE, definite_grams, ref_cholesky, upper
from latkit import shortvec
from latkit import catalog
from latkit.catalog import L_GLUE, _minimum_from, build_nikulin, std_gram
from latkit.lattice import (
    CapExceeded, LatticeError, _with_det, direct_sum, make_lattice, overlattice, rescale,
)
from latkit.ratmat import det, mat_mul, transpose
from latkit.shortvec import _cholesky, glue_counts, minimum, short_vectors


def naive_pairs(gram, bound):
    """Box-enumeration oracle: all vectors of norm <= bound up to sign.

    By Cauchy-Schwarz, norm(x) <= bound gives x_i^2 <= bound * (G^-1)_ii,
    so the box |x_i| <= isqrt(bound * (G^-1)_ii) holds them all.  G^-1
    comes from sympy, not from latkit.
    """
    from sympy import Matrix, floor

    n = len(gram)
    inv = Matrix(gram).inv()
    boxes = [isqrt(max(0, int(floor(bound * inv[i, i])))) for i in range(n)]

    def norm(v):
        return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    out = set()
    for v in product(*(range(-b, b + 1) for b in boxes)):
        if any(v) and norm(v) <= bound:
            first = next(x for x in v if x)
            out.add(v if first > 0 else tuple(-x for x in v))
    return sorted((v, norm(v)) for v in out)


def rand_pos_def(rng, n):
    # B^T B + I is positive definite for random integer B
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    g = [[sum(b[k][i] * b[k][j] for k in range(n)) + (1 if i == j else 0)
          for j in range(n)] for i in range(n)]
    return g


def test_oracle_equivalence_random():
    rng = random.Random(99)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        g = rand_pos_def(rng, n)
        if det(g) == 0:
            continue
        lat = make_lattice(g)
        bound = rng.randint(1, 6)
        rep = short_vectors(lat, bound)
        assert list(rep.vectors) == naive_pairs(g, bound)
        done += 1


def test_a2_counts():
    rep = short_vectors(std_gram("A", 2), 2)
    # A2 has 6 roots, 3 up to sign
    assert rep.counts_by_norm == ((2, 3),)
    assert rep.total_pairs == 3
    assert not rep.negated


def test_e8_root_count():
    rep = short_vectors(std_gram("E8"), 2)
    assert rep.counts_by_norm == ((2, 120),)  # 240 roots up to sign


def test_negative_definite_convention():
    rep = short_vectors(rescale(std_gram("A", 2), -1), 2)
    assert rep.negated
    assert rep.counts_by_norm == ((2, 3),)


def test_sign_canonicalisation_and_order():
    rep = short_vectors(std_gram("A", 2), 2)
    for v, _ in rep.vectors:
        assert next(x for x in v if x) > 0
    assert list(rep.vectors) == sorted(rep.vectors)


def test_indefinite_rejected():
    with pytest.raises(LatticeError):
        short_vectors(std_gram("U"), 2)
    with pytest.raises(LatticeError):
        short_vectors(make_lattice([[-2, 1], [1, 2]]), 2)
    with pytest.raises(LatticeError):
        short_vectors(std_gram("U"), 0)


def test_cholesky_matches_fraction_reference(L):
    # the Cholesky data read off the symmetric elimination against the
    # Fraction elimination it replaced, Fraction for Fraction, on
    # enum-shaped and 2 B B^T lattices, E8(-1), A4(-2)^4, L and negatives
    grams = definite_grams([L[0].lattice.gram])
    assert len(grams) == 62
    for gram in grams:
        q, negated, g = _cholesky(make_lattice(gram))
        want_q, want_negated, want_g = ref_cholesky(gram)
        assert upper(q) == upper(want_q)
        assert all(type(x) is Fraction for row in upper(q) for x in row)
        assert (negated, g) == (want_negated, want_g)
        assert negated == (gram[0][0] < 0)


def test_indefinite_forms_rejected_by_both_choleskys():
    # the last form has a positive diagonal and a zero leading 2 x 2 minor,
    # so the elimination takes a pivot move before it meets p_t <= 0
    assert det([row[:2] for row in INDEFINITE[-1][:2]]) == 0
    for gram in INDEFINITE:
        lat = make_lattice(gram)
        with pytest.raises(LatticeError, match="requires a definite lattice"):
            short_vectors(lat, 4)
        with pytest.raises(LatticeError, match="requires a definite lattice"):
            minimum(lat)
        with pytest.raises(LatticeError):
            ref_cholesky(gram)


def test_hand_built_lattices_checked_against_their_det():
    # the last Cholesky pivot is the det of the (negated) Gram matrix, so
    # a det that does not match, or a degenerate Gram matrix from a
    # repeated basis row, raises LatticeError from both searches; the
    # lattices are built by lattice's private known-det route
    a2, e8 = std_gram("A", 2), rescale(std_gram("E8"), -1)
    assert short_vectors(_with_det(a2.gram, 3), 2).total_pairs == 3
    assert short_vectors(_with_det(rescale(std_gram("A", 3), -1).gram, -4), 2).negated
    for lat, det_given in ((a2, 5), (e8, -1), (rescale(std_gram("A", 3), -1), 4)):
        bad = _with_det(lat.gram, det_given)
        for search in (lambda x: short_vectors(x, 2), minimum):
            with pytest.raises(LatticeError, match="not the lattice's det %d" % det_given):
                search(bad)
    rows = [[1] + [0] * 7] * 2 + [[int(i == j) for j in range(8)] for i in range(1, 7)]
    gram = mat_mul(mat_mul(rows, e8.gram), transpose(rows))
    dup = _with_det(tuple(map(tuple, gram)), e8.det)
    for search in (lambda x: short_vectors(x, 2), minimum):
        with pytest.raises(LatticeError, match="nondegenerate lattice: degenerate symmetric form"):
            search(dup)


def test_empty_report():
    lat = make_lattice([[4]])
    rep = short_vectors(lat, 3)
    assert rep.vectors == ()
    assert short_vectors(lat, 0).vectors == ()


def test_minimum():
    assert minimum(std_gram("A", 2)) == 2
    assert minimum(make_lattice([[6]])) == 6
    assert minimum(rescale(std_gram("E8"), -2)) == 4
    with pytest.raises(LatticeError):
        minimum(make_lattice([]))


def transform(gram, u):
    """U^T G U: the Gram matrix of the basis given by the columns of U."""
    n = len(gram)
    return [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]


def badly_reduced(rng, gram, spread):
    """U^T G U for a random unimodular U, built by adding +-1 or +-2 times
    another column to the column of smallest norm until every diagonal
    entry is at least `spread`."""
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        g = transform(gram, u)
        i = min(range(n), key=lambda t: g[t][t])
        if g[i][i] >= spread:
            return g
        j = rng.choice([t for t in range(n) if t != i])
        k = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[i] += k * row[j]


def minimum_oracle_cases():
    """(gram, expected minimum or None): odd, scaled by 2, 3 and 6,
    negative definite, and badly reduced bases (smallest diagonal entry
    >= 10x the minimum)."""
    rng = random.Random(8)
    cases = []
    while len(cases) < 96:
        g = rand_pos_def(rng, rng.randint(1, 4))
        if det(g) == 0:
            continue
        s = (1, 2, 3, 6, -1, -2)[len(cases) % 6]
        cases.append(([[s * x for x in row] for row in g], None))
    a2, a3 = [[2, -1], [-1, 2]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    for k in range(12):
        cases.append((badly_reduced(rng, a3 if k % 2 else a2, 20), 2))
    return cases


def brute_minimum(g, value):
    """Whether value is the minimum of g by the box oracle: every vector up
    to norm `value` is listed, and the least has norm `value`."""
    pos = [[-x for x in row] for row in g] if g[0][0] < 0 else g
    return min(norm for _, norm in naive_pairs(pos, value)) == value


# A3 in a basis with entries up to 165,774, too large for the box oracle
A3_HUGE = transform([[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                    [[-113, -157, 56], [-182, -253, 90], [70, 97, -35]])


def test_minimum_oracle():
    # against brute force
    for g, expected in minimum_oracle_cases():
        got = minimum(make_lattice(g))
        assert brute_minimum(g, got)
        assert expected in (None, got)
    # a shrinking search that does not try the middle of each range first
    # runs past NODE_BUDGET here
    assert minimum(make_lattice(A3_HUGE)) == 2


def test_minimum_searches_L_once(monkeypatch, L):
    # on L, m = min |G_ii| = 4 and g = 2, so minimum is one search at
    # radius m - g = 2
    radii = []
    search = shortvec._search
    monkeypatch.setattr(shortvec, "_search",
                        lambda q, radius: radii.append(radius[0]) or search(q, radius))
    assert minimum(L[0].lattice) == 4
    assert radii == [2]


def test_minimum_read_off_a_bound_3_report(monkeypatch):
    # repro reads L/minimum off the counts up to norm 3 that L/rootless
    # reads: the least listed norm, else m = min |G_ii| when
    # m <= 3 + 1, else a search; each branch against shortvec.minimum and
    # brute force, with the search taken in the last branch only
    searches = []
    search = shortvec.minimum
    monkeypatch.setattr(shortvec, "minimum",
                        lambda lat: searches.append(lat) or search(lat))

    def read_off(lat):
        before = len(searches)
        got = _minimum_from(lat, short_vectors(lat, 3).counts_by_norm, 3)
        assert got == minimum(lat)
        return got, len(searches) - before

    for g, _ in minimum_oracle_cases():
        got, searched = read_off(make_lattice(g))
        assert brute_minimum(g, got)
        assert searched == (got > 3 and min(abs(g[i][i]) for i in range(len(g))) > 4)
    assert read_off(make_lattice(A3_HUGE)) == (2, 0)
    # listed: A4(-1)^4 has 40 pairs of roots; the minimum of an orthogonal
    # sum is the least of its summands'
    a4 = rescale(std_gram("A", 4), -1)
    a4_4 = direct_sum([a4] * 4)
    assert short_vectors(a4_4, 3).counts_by_norm == ((2, 40),)
    assert read_off(a4_4) == (2, 0) and brute_minimum(a4.gram, 2)
    # read off the diagonal: E8(-2) lists nothing up to 3, and m = 4; the
    # box oracle runs on E8(2) in the dual basis, Gram 2 C^-1 for the
    # Cartan matrix C, where the box at norm 3 is {-1, 0, 1}^8
    e8 = rescale(std_gram("E8"), -2)
    assert read_off(e8) == (4, 0)
    from sympy import Matrix
    dual = [[int(2 * x) for x in row]
            for row in Matrix(std_gram("E8").gram).inv().tolist()]
    assert naive_pairs(dual, 3) == [] and min(dual[i][i] for i in range(8)) == 4
    # searched: m = 6, 8 and 5 > 4 with nothing listed; the minimum lies
    # below m on the last two, through (1, -1, 0) and (1, -1)
    for g, want in (([[6]], 6), ([[8, 6, 0], [6, 8, 0], [0, 0, 10]], 4),
                    ([[5, 3], [3, 5]], 4)):
        assert read_off(make_lattice(g)) == (want, 1) and brute_minimum(g, want)
    with pytest.raises(LatticeError):
        _minimum_from(make_lattice([]), (), 3)


def test_bound_between_norms():
    # every norm is a multiple of gcd(G_ii, 2 G_ij), so the search runs at
    # the largest multiple <= bound; the report must not change
    rep = short_vectors(make_lattice([[4, 1], [1, 4]]), 7)
    # g = 2 here; a gcd of the diagonal alone (4) would miss (1, -1), norm 6
    assert rep.vectors == (((0, 1), 4), ((1, -1), 6), ((1, 0), 4))
    assert rep.bound == 7
    rng = random.Random(7)
    for _ in range(40):
        g = rand_pos_def(rng, rng.randint(1, 3))
        if det(g) == 0:
            continue
        s = rng.choice((2, 3, 6))
        g = [[s * x for x in row] for row in g]
        bound = rng.randint(1, 8 * s)
        rep = short_vectors(make_lattice(g), bound)
        assert rep.bound == bound
        assert list(rep.vectors) == naive_pairs(g, bound)


@pytest.mark.parametrize("bound", [2.9, "4", 1j, None, Fraction(7, 2)])
def test_bound_must_be_an_integer(bound):
    with pytest.raises(LatticeError, match=re.escape("bound %r is not an integer" % (bound,))):
        short_vectors(make_lattice([[4, 1], [1, 4]]), bound)


def test_integral_bounds_of_any_exact_type_are_read_as_ints():
    lat = make_lattice([[4, 1], [1, 4]])
    for bound in (Fraction(7), True, 7):
        rep = short_vectors(lat, bound)
        assert type(rep.bound) is int and rep.bound == int(bound)


def test_search_leaves_no_reference_cycle(L):
    # the recursive search holds its Cholesky data; with the cycle
    # collector off, nothing of a search may be left for it to find
    lat = L[0].lattice
    gc.collect()
    gc.disable()
    try:
        short_vectors(lat, 3)
        minimum(lat)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _L_glue(c):
    return [rescale(std_gram("A", 4), -2)] * 4, [c.base_vectors[n] for n in L_GLUE]


def test_glue_counts_of_L_match_its_search(L):
    # the counts of L = A4(-2)^4 + glue at bounds 2, 3, 4, and of the
    # nu-roots L (40 pairs of roots), equal short_vectors on L's Gram matrix
    c = L[0]
    blocks, glue = _L_glue(c)
    for bound, want in ((2, ()), (3, ()), (4, ((4, 1320),))):
        assert glue_counts(c.lattice, blocks, glue, bound) == want
        assert short_vectors(c.lattice, bound).counts_by_norm == want
    roots = catalog.FAULTS["nu-roots"]["L"](None)
    got = glue_counts(roots.lattice, *_L_glue(roots), 3)
    assert got == short_vectors(roots.lattice, 3).counts_by_norm == ((2, 40),)


def _glued_sums(rng):
    """(blocks, glue) with A_n(4s) blocks glued by half vectors and A2(3s)
    blocks by multiples of (1/3, 2/3), s = +-1: every such glue row pairs
    integrally and evenly, so overlattice accepts it."""
    sign = rng.choice((1, -1))
    blocks, parts = [], []
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 0.3:
            blocks.append(rescale(std_gram("A", 2), 3 * sign))
            parts.append(lambda: [Fraction(k, 3) for k in ((1, 2), (2, 1), (0, 0))[rng.randrange(3)]])
        else:
            n = rng.randint(1, 3)
            blocks.append(rescale(std_gram("A", n), 4 * sign))
            parts.append(lambda n=n: [Fraction(rng.randint(0, 1), 2) for _ in range(n)])
    glue = [sum((part() for part in parts), []) for _ in range(rng.randint(1, 3))]
    return blocks, glue


def test_glue_counts_oracle_on_glued_sums():
    # the Nikulin lattice A1(-1)^8 + (1/2, ..., 1/2), and seeded sums of
    # A_n(4) and A2(3) blocks under half and third glue, of either sign,
    # against short_vectors on the Gram matrix that overlattice builds
    nik = build_nikulin()[0]
    for bound in (2, 4, 6):
        assert (glue_counts(nik, [rescale(std_gram("A", 1), -1)] * 8,
                            [[Fraction(1, 2)] * 8], bound)
                == short_vectors(nik, bound).counts_by_norm)
    # by hand: norm 2 is +-e_i; norm 4 is +-e_i +- e_j and (+-1/2, ..., +-1/2)
    assert glue_counts(nik, [rescale(std_gram("A", 1), -1)] * 8,
                       [[Fraction(1, 2)] * 8], 4) == ((2, 8), (4, 4 * 28 // 2 + 2 ** 8 // 2))
    rng = random.Random(38)
    for _ in range(12):
        blocks, glue = _glued_sums(rng)
        lat, _, _ = overlattice(direct_sum(blocks), glue)
        for bound in (0, 2, 5, 8):
            assert (glue_counts(lat, blocks, glue, bound)
                    == short_vectors(lat, bound).counts_by_norm), (blocks, glue, bound)


def test_glue_counts_refuses_malformed_input(L):
    c = L[0]
    blocks, glue = _L_glue(c)
    a2 = std_gram("A", 2)
    for args, match in (
            ((c.lattice, blocks, glue[:3] + [glue[3][:15]] + glue[4:], 3),
             "glue row 3 has length 15, not the blocks' rank 16"),
            ((c.lattice, blocks, [[0.5] * 16], 3), "glue row 0 has entry 0.5"),
            ((c.lattice, blocks, glue, 2.5), "bound 2.5 is not an integer"),
            ((std_gram("U"), [std_gram("U")], [], 2), "requires a definite lattice"),
            ((direct_sum([a2, rescale(a2, -1)]), [a2, rescale(a2, -1)], [], 2),
             "blocks of one sign"),
            ((c.lattice, blocks, glue[:7], 3), "not \\|det\\| 625 of the lattice times 128"),
            # (1/2, 0) has norm 1/2 in A1 + A1; Z^2 passes the det check
            ((make_lattice([[1, 0], [0, 1]]), [std_gram("A", 1)] * 2,
              [[Fraction(1, 2), 0]], 2), "non-integral norm"),
            ((rescale(c.lattice, 2), blocks, glue, 3), "not \\|det\\| 40960000 of the lattice times 256")):
        with pytest.raises(LatticeError, match=match):
            glue_counts(*args)


def test_glue_counts_budget(monkeypatch, L):
    # L's 256 classes and their convolution terms count against NODE_BUDGET
    c = L[0]
    blocks, glue = _L_glue(c)
    for budget, match in ((200, "glue classes"), (300, "glue counts")):
        monkeypatch.setattr(shortvec, "NODE_BUDGET", budget)
        with pytest.raises(CapExceeded, match=match):
            glue_counts(c.lattice, blocks, glue, 3)
