import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from cholesky_ref import U, direct_sum_matrix, symmetric_cases, sympy_inertia
from fqf_ref import element_order, q_of
from latkit import catalog, lattice, ratmat
from latkit.isometry import IsometryError, make_isometry
from latkit.catalog import (
    build_MD5, build_nikulin, reflection_in_span, repro_all, std_gram, u2_cubed,
)
from latkit.lattice import (
    CapExceeded, FiniteQuadraticForm, GlueError, IntegralLattice, LatticeError, direct_sum,
    discriminant_group, fqf_isomorphic, invariant_factors, make_lattice,
    orthogonal_complement, overlattice, rescale, saturation, sublattice,
)


def test_make_lattice_validation():
    for gram, msg in (([[1, 2], [3]], "Gram matrix must be square"),
                      ([[1, 2], [0, 1]], "Gram matrix must be symmetric"),
                      ([[Fraction(1, 2)]], "Gram matrix must be integral: non-integer entry 1/2"),
                      ([[1.5]], "Gram matrix must be integral: non-integer entry 1.5"),
                      ([[1, 2], [2, 4]], "Gram matrix is degenerate"),
                      ([[0]], "Gram matrix is degenerate")):
        with pytest.raises(LatticeError) as err:
            make_lattice(gram)
        assert type(err.value) is LatticeError and str(err.value) == msg


def test_basic_invariants():
    a2 = std_gram("A", 2)
    assert a2.det == 3
    assert a2.signature == (2, 0)
    assert a2.is_even and 0 in a2.signature
    u = std_gram("U")
    assert u.signature == (1, 1)
    assert 0 not in u.signature
    assert rescale(std_gram("A", 2), -1).signature == (0, 2)


def test_pairing_and_norm():
    a2 = std_gram("A", 2)
    assert a2.pairing((1, 0), (1, 0)) == 2
    assert a2.pairing((1, 0), (0, 1)) == -1
    assert a2.pairing((1, 1), (1, 1)) == 2


def test_direct_sum_and_rescale():
    a1 = std_gram("A", 1)
    s = direct_sum([a1, a1, a1])
    assert s.rank == 3 and s.det == 8
    assert rescale(a1, -2).gram == ((-4,),)
    with pytest.raises(LatticeError):
        rescale(a1, 0)
    # the scale is an integer, never truncated: 5/2 and 2.7 are not 2
    for bad in (Fraction(5, 2), 2.7, Fraction(1, 2)):
        with pytest.raises(LatticeError, match="rescale by non-integer %s" % bad):
            rescale(a1, bad)
    assert rescale(a1, True) == a1 and rescale(a1, Fraction(6, 2)) == rescale(a1, 3)


def test_one_matrix_form():
    # objects store their matrices as int tuples and hand only those out:
    # no list view of a Gram matrix or of an isometry's rows
    src = Path(lattice.__file__).parent
    for p in sorted(src.glob("*.py")):
        text = p.read_text()
        assert "gram_rows" not in text, p.name
        assert not re.search(r"def rows\(self\b", text), p.name


def test_discriminant_group_refuses_an_odd_lattice(monkeypatch):
    # on <3> the lifts 1/3 and 4/3 of one class have q = 1/3 and 4/3 mod 2:
    # q is defined only on an even lattice, and snf never runs on an odd one
    monkeypatch.setattr(lattice, "snf", lambda g: pytest.fail("snf ran"))
    for gram in ([[3]], [[2, 1], [1, -1]], [[1, 0], [0, 1]]):
        with pytest.raises(LatticeError, match="odd lattice: q mod 2 depends on the lift"):
            discriminant_group(make_lattice(gram))


def test_discriminant_group_standard():
    assert discriminant_group(std_gram("A", 4)).invariant_factors == (5,)
    assert discriminant_group(std_gram("E8")).invariant_factors == ()
    assert discriminant_group(std_gram("U")).invariant_factors == ()
    f = discriminant_group(std_gram("A", 1))
    assert f.invariant_factors == (2,)
    # generator of A1*/A1 is alpha/2, of norm 1/2
    assert f.q_values == (Fraction(1, 2),)


def _random_even_lattice(rng, n):
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            return make_lattice([[2 * sum(x * y for x, y in zip(r, s)) for s in b] for r in b])
        except LatticeError:
            continue


def test_invariant_factors_match_sympy_and_discriminant_group(L):
    # seeded 2BB^T Gram matrices up to rank 10 and orthogonal sums of two
    # of them above (generic ranks past 10 make discriminant_group's Smith
    # form slow), negated for odd ranks; then the catalog's lattices, E8
    # (unimodular) and rank 0
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(2026)
    cases = []
    for n in range(4, 17):
        if n <= 10:
            lat = _random_even_lattice(rng, n)
        else:
            k = rng.randint(4, n - 4)
            lat = direct_sum([_random_even_lattice(rng, k), _random_even_lattice(rng, n - k)])
        cases.append(rescale(lat, -1) if n % 2 else lat)
    nik = build_nikulin()[0]
    cases += [L[0].lattice, build_MD5(nik), nik, u2_cubed(), std_gram("E8")]
    for lat in cases:
        got = invariant_factors(lat)
        assert got == tuple(int(x) for x in sympy_factors(Matrix(lat.gram))
                            if abs(x) > 1)
        assert got == discriminant_group(lat).invariant_factors
    assert invariant_factors(L[0].lattice) == (5, 5, 5, 5)
    assert invariant_factors(std_gram("E8")) == ()
    rank0 = make_lattice([])
    assert invariant_factors(rank0) == discriminant_group(rank0).invariant_factors == ()


def test_discriminant_lifts_have_right_order():
    lat = u2_cubed()
    f = discriminant_group(lat)
    assert f.invariant_factors == (2, 2, 2, 2, 2, 2)
    for lift, d in zip(f.generator_lifts, f.invariant_factors):
        scaled = [d * x for x in lift]
        assert all(Fraction(x).denominator == 1 for x in scaled)
        assert any(Fraction(x).denominator != 1 for x in lift)


def test_overlattice_e8_from_d8():
    # D8 = even-sum sublattice of Z^8; glue by the all-halves vector
    d8 = make_lattice([[2 if i == j else 0 for j in range(8)] for i in range(8)])
    rows = [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(8)]
            for i in range(7)]
    rows.append([1 if j in (6, 7) else 0 for j in range(8)])
    base = sublattice(make_lattice([[int(i == j) for j in range(8)] for i in range(8)]),
                      rows)
    assert base.det == 4
    # the glue vector (1/2,...,1/2) of Z^8, expressed in the D8 basis
    lat, index, basis = overlattice(base, [_in_basis(rows, [Fraction(1, 2)] * 8)])
    assert index == 2
    assert index * index == Fraction(base.det, lat.det)
    assert abs(lat.det) == 1
    assert lat.is_even


def _in_basis(rows, vec):
    # solve vec = sum c_i rows_i for the square case by brute inversion
    from latkit.ratmat import inverse, mat_vec, transpose
    return mat_vec(inverse(transpose(rows)), list(vec))


def test_span_index_is_the_glue_index():
    # [Z^n + span(rows) : Z^n], the index overlattice reports
    half = Fraction(1, 2)
    assert lattice.span_index([[half] * 8]) == 2
    assert lattice.span_index([[half, 0], [0, half], [half, half]]) == 4
    assert lattice.span_index([[Fraction(1, 3), Fraction(2, 3)], [1, 0]]) == 3
    assert lattice.span_index([[1, 2], [3, 4]]) == 1
    a1_8 = direct_sum([rescale(std_gram("A", 1), -1)] * 8)
    assert overlattice(a1_8, [[half] * 8])[1] == 2


def test_span_index_rejects_rows_of_unequal_length():
    # rows of unequal length have no common n: neither cut nor padded
    half = Fraction(1, 2)
    for rows, bad in (([[half, 0], [half]], "row 1 has length 1, not 2"),
                      ([[half], [half, half]], "row 1 has length 2, not 1"),
                      ([[half, 0], [0, half], [half, half, 0]], "row 2 has length 3, not 2"),
                      ([[], [half]], "row 1 has length 1, not 0")):
        with pytest.raises(LatticeError, match=bad + " as row 0"):
            lattice.span_index(rows)


def test_overlattice_rejects_bad_glue():
    a1 = std_gram("A", 1)
    with pytest.raises(GlueError):
        overlattice(a1, [[Fraction(1, 3)]])
    # half of the A1 generator pairs integrally but has odd self-pairing
    with pytest.raises(GlueError):
        overlattice(make_lattice([[4]]), [[Fraction(1, 2)]])
    with pytest.raises(GlueError):
        overlattice(a1, [[Fraction(1, 2), Fraction(0)]])


@pytest.mark.parametrize("bad", [0.5, "1/2", 0.1, None, 1j])
def test_glue_entries_must_be_ints_or_fractions(bad):
    # a float, a string or any other entry has no exact value to read off,
    # so it is refused by name instead of passed through Fraction()
    a1_2 = direct_sum([rescale(std_gram("A", 1), -1)] * 2)
    with pytest.raises(GlueError, match=r"glue vector 0 has entry %s, not an int or Fraction"
                       % re.escape(repr(bad))):
        overlattice(a1_2, [[bad, Fraction(1, 2)]])
    with pytest.raises(LatticeError, match=r"row 1 has entry %s" % re.escape(repr(bad))):
        lattice.span_index([[Fraction(1, 2), 0], [0, bad]])


def test_overlattice_reports_offending_pair():
    a1 = std_gram("A", 1)
    with pytest.raises(GlueError, match="glue vector 0 pairs non-integrally"):
        overlattice(a1, [[Fraction(1, 4)]])


def test_sublattice_and_saturation():
    z2 = make_lattice([[1, 0], [0, 1]])
    sub = sublattice(z2, [[2, 0], [0, 3]])
    assert sub.det == 36
    sat, idx = saturation(z2, [[2, 0]])
    assert sat == [[1, 0]]
    assert idx == 2
    sat, idx = saturation(z2, [[1, 1], [1, -1]])
    assert idx == 2  # index of the span in Z^2
    with pytest.raises(LatticeError):
        saturation(z2, [[1, 0], [2, 0]])


@pytest.mark.parametrize("fn", [sublattice, saturation, orthogonal_complement])
def test_rows_of_the_wrong_length_are_rejected(fn):
    # mat_vec's zip would pad or cut such a row and answer for another one
    a3 = std_gram("A", 3)
    for rows, bad in (([[2, 0]], "row 0 has length 2"), ([[1, 0, 0, 5]], "row 0 has length 4"),
                      ([[1, 0, 0], [0, 1]], "row 1 has length 2")):
        with pytest.raises(LatticeError, match=bad + ", not the rank 3"):
            fn(a3, rows)


def test_orthogonal_complement():
    a2 = std_gram("A", 2)
    comp, rows = orthogonal_complement(a2, [[1, 0]])
    assert comp.rank == 1
    assert a2.pairing(rows[0], (1, 0)) == 0
    # complement of everything is rank 0
    comp, rows = orthogonal_complement(a2, [[1, 0], [0, 1]])
    assert comp.rank == 0 and rows == []
    # complement of nothing is everything
    comp, rows = orthogonal_complement(a2, [])
    assert comp.rank == 2


def laplace_det(m):
    """Integer determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def minors_gcd(rows):
    """gcd of all k x k minors of a k x n integer matrix."""
    n = len(rows[0]) if rows else 0
    g = 0
    for cols in combinations(range(n), len(rows)):
        g = gcd(g, laplace_det([[r[c] for c in cols] for r in rows]))
    return g


def test_saturation_oracle_random():
    """The index is the gcd of the k x k minors of the rows, the basis is
    primitive (minors with gcd 1) and spans every input row over Q."""
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        mult = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        rows = [[sum(mult[a][b] * base[b][c] for b in range(k)) for c in range(n)]
                for a in range(k)]
        lat = make_lattice([[int(i == j) for j in range(n)] for i in range(n)])
        g = minors_gcd(rows)
        if g == 0:
            with pytest.raises(LatticeError):
                saturation(lat, rows)
            continue
        sat, idx = saturation(lat, rows)
        assert len(sat) == k
        assert idx == g
        assert minors_gcd(sat) == 1
        for r in rows:
            assert minors_gcd(sat + [r]) == 0
        checked += 1
    assert checked > 50


def test_saturation_edge_cases():
    z3 = make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert saturation(z3, []) == ([], 1)
    sat, idx = saturation(z3, [[2, 1, 0], [0, 3, 0], [1, 1, 5]])
    assert sat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert idx == 30
    # a primitive row whose Hermite pivot is not 1
    assert saturation(z3, [[2, 1, 0]]) == ([[2, 1, 0]], 1)
    assert saturation(z3, [[4, 2, 0], [0, 0, 3]]) == ([[2, 1, 0], [0, 0, 1]], 6)


def test_dependent_rows_rejected():
    z3 = make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    a2 = std_gram("A", 2)
    for lat, rows in ((z3, [[1, 2, 3], [2, 4, 6]]),
                      (z3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
                      (a2, [[1, 0], [2, 0]]),
                      (a2, [[1, 0], [0, 1], [1, 1]])):
        with pytest.raises(LatticeError, match="dependent"):
            saturation(lat, rows)
        with pytest.raises(LatticeError, match="dependent"):
            orthogonal_complement(lat, rows)


@pytest.mark.parametrize("fn", [sublattice, saturation, orthogonal_complement,
                                reflection_in_span])
def test_non_integer_rows_are_rejected(fn):
    # [1/2] is not in the lattice (4), though its Gram matrix (1) is integral
    for lat, rows, bad in ((make_lattice([[4]]), [[Fraction(1, 2)]], "1/2"),
                           (std_gram("A", 2), [[1, 0], [0, 1.5]], "1.5")):
        with pytest.raises(LatticeError) as err:
            fn(lat, rows)
        assert type(err.value) is LatticeError
        assert str(err.value) == "rows must be integral: non-integer entry " + bad


A2 = make_lattice([[2, -1], [-1, 2]])
# Each matrix entry point on a matrix with one bad entry x, and the error
# it must raise: its module's own LatticeError subclass, or MatrixError.
MATRIX_ENTRY_POINTS = {
    "make_lattice": (lambda x: make_lattice([[2, x], [x, 2]]), LatticeError),
    "rescale": (lambda x: rescale(A2, x), LatticeError),
    "sublattice": (lambda x: sublattice(A2, [[1, x]]), LatticeError),
    "saturation": (lambda x: saturation(A2, [[1, x]]), LatticeError),
    "orthogonal_complement": (lambda x: orthogonal_complement(A2, [[1, x]]), LatticeError),
    "reflection_in_span": (lambda x: reflection_in_span(A2, [[1, x]]), LatticeError),
    "make_isometry": (lambda x: make_isometry(A2, [[1, x], [0, 1]]), IsometryError),
    "snf": (lambda x: ratmat.snf([[1, x]]), ratmat.MatrixError),
    "hnf_int": (lambda x: ratmat.hnf_int([[1, x]]), ratmat.MatrixError),
    "int_kernel": (lambda x: ratmat.int_kernel([[1, x]]), ratmat.MatrixError),
}


@pytest.mark.parametrize("bad", [[1], Fraction(1, 2)], ids=["nested-list", "half"])
@pytest.mark.parametrize("name", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_entry_points_reject_a_bad_entry(name, bad):
    # a nested list is one entry, not a row to convert: it fails the
    # integrality check like 1/2, never with a TypeError from the arithmetic
    call, error = MATRIX_ENTRY_POINTS[name]
    with pytest.raises(ValueError) as err:
        call(bad)
    assert type(err.value) is error
    assert "non-integer" in str(err.value) and str(bad) in str(err.value)


def test_orthogonal_complement_rejects_non_integer_rows():
    with pytest.raises(ValueError):
        orthogonal_complement(std_gram("A", 2), [[Fraction(1, 2), 0]])


def test_fqf_isomorphic_positive_and_negative():
    f_a1 = discriminant_group(std_gram("A", 1))
    f_a1_neg = discriminant_group(rescale(std_gram("A", 1), -1))
    # q = 1/2 vs q = 3/2 in Q/2Z: not isomorphic
    assert fqf_isomorphic(f_a1, f_a1_neg) is None
    assert fqf_isomorphic(f_a1, f_a1) is not None
    f_a2 = discriminant_group(std_gram("A", 2))
    assert fqf_isomorphic(f_a1, f_a2) is None  # different orders
    wit = fqf_isomorphic(f_a2, f_a2)
    assert wit is not None and q_of(f_a2, wit[0]) == f_a2.q_values[0] % 2


def test_fqf_witness_is_checked():
    f = discriminant_group(u2_cubed())
    wit = fqf_isomorphic(f, f)
    assert wit is not None
    for i, x in enumerate(wit):
        assert element_order(f, x) == f.invariant_factors[i]
        assert q_of(f, x) == f.q_values[i] % 2


def test_fqf_isomorphic_budget(monkeypatch):
    # The Nikulin / U(2)^3 pair, the search that nikulin/disc-form-matches-
    # U2-cubed ran before its glue witness, takes 265 backtracking nodes; a
    # budget below that raises.
    nik = discriminant_group(build_nikulin()[0])
    u2 = discriminant_group(u2_cubed())
    assert fqf_isomorphic(nik, u2) is not None
    monkeypatch.setattr(lattice, "NODE_BUDGET", 100)
    with pytest.raises(CapExceeded, match="past 100 nodes"):
        fqf_isomorphic(nik, u2)
    monkeypatch.setattr(lattice, "NODE_BUDGET", 265)
    assert fqf_isomorphic(nik, u2) is not None


def test_L_discriminant_form_pinned_up_to_isomorphism(L_disc):
    # The generators of L*/L depend on the transforms snf returns, so the
    # form is pinned only up to isomorphism; fqf_isomorphic never reads the
    # lifts.  q and b are the values of an earlier generator choice.
    f5 = Fraction(1, 5)
    q = (2 * f5, 0, 2 * f5, 0)
    b = ((2 * f5, 0, f5, 4 * f5), (0, 0, 3 * f5, f5),
         (f5, 3 * f5, 2 * f5, f5), (4 * f5, f5, f5, 0))
    pinned = FiniteQuadraticForm((5, 5, 5, 5), (), q, b)
    assert L_disc.invariant_factors == (5, 5, 5, 5)
    assert fqf_isomorphic(L_disc, pinned) is not None
    # the other isomorphism class of forms on (Z/5)^4, as a negative control
    q_other = (2 * f5, 2 * f5, 2 * f5, 4 * f5)
    b_other = tuple(tuple(q_other[i] if i == j else 0 for j in range(4)) for i in range(4))
    other = FiniteQuadraticForm((5, 5, 5, 5), (), q_other, b_other)
    assert fqf_isomorphic(L_disc, other) is None


def _assert_same_lattice(a, b):
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def _fixture_lattices(l_lat):
    """L (given), the catalog lattices, rescalings and 40 seeded direct
    sums of rescaled random blocks, with the empty lattice both ways."""
    u2 = rescale(std_gram("U"), 2)
    lats = [l_lat, build_nikulin()[0], build_MD5(build_nikulin()[0]), u2_cubed(),
            rescale(l_lat, -1), rescale(std_gram("E8"), 3), rescale(u2, -1),
            direct_sum([]), make_lattice([])]
    rng = random.Random(31)
    for _ in range(40):
        blocks = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(1, 4)
            sym = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            sym = [[sym[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if ratmat.det(sym) == 0:
                sym = [[2 * (i == j) for j in range(n)] for i in range(n)]
            blocks.append(rescale(make_lattice(sym), rng.choice((-3, -1, 1, 2))))
        lats.append(direct_sum(blocks))
    return lats


def test_det_and_signature_come_from_one_elimination():
    # lattice has no ratmat.det: a lattice's det is the last pivot of its
    # symmetric elimination, and its signature is Sylvester's count on the
    # pivots, on seeded forms whose elimination moves pivots
    assert not hasattr(lattice, "det")
    for lat in map(make_lattice, symmetric_cases()):
        assert lat.det == ratmat.det(lat.gram) and type(lat.det) is int
        assert lat.signature == sympy_inertia(lat.gram)
    with pytest.raises(LatticeError, match="Gram matrix is degenerate"):
        make_lattice(direct_sum_matrix(U, [[0]]))
    # a lattice built on a degenerate Gram matrix has no det, and rank 0
    # has det 1
    with pytest.raises(LatticeError, match="Gram matrix is degenerate"):
        IntegralLattice(((1, 1), (1, 1))).det
    assert IntegralLattice(()).det == make_lattice([]).det == 1
    assert IntegralLattice(()).signature == (0, 0)


def test_det_is_computed_or_derived_never_passed():
    # a lattice takes its Gram matrix only: no det is passed in, and each
    # det is read off the lattice's own elimination, so gluing [1/2] into
    # (8) gives (2) with det 8 / 2^2
    with pytest.raises(TypeError):
        IntegralLattice(((8,),), 5)
    glued, index, _ = overlattice(IntegralLattice(((8,),)), [[Fraction(1, 2)]])
    assert glued.gram == ((2,),) and index == 2 and glued.det == 2


def test_every_known_det_is_the_gram_det(monkeypatch, L):
    # every IntegralLattice that a repro pass builds, with no fault and
    # under each fault, and the fixture lattices (direct sums, rescalings,
    # overlattices): det against ratmat.det and signature against sympy
    built = {}
    init = IntegralLattice.__init__

    def recording(self, gram):
        init(self, gram)
        built.setdefault(gram, self)

    monkeypatch.setattr(IntegralLattice, "__init__", recording)
    for fault in (None,) + catalog.FAULT_IDS:
        repro_all(inject_fault=fault)
    fixtures = _fixture_lattices(L[0].lattice)
    monkeypatch.undo()
    assert {lat.gram for lat in fixtures} < set(built)
    for gram, lat in built.items():
        assert lat.det == (ratmat.det(gram) if gram else 1) and type(lat.det) is int
        assert lat.signature == sympy_inertia(gram)


def test_stored_det_is_the_gram_det(L):
    # direct_sum, rescale and overlattice build each lattice from its Gram
    # matrix alone, so every fixture lattice has det(gram) and equals the
    # lattice make_lattice builds on the same matrix
    for lat in _fixture_lattices(L[0].lattice):
        assert lat.det == (ratmat.det(lat.gram) if lat.gram else 1) and type(lat.det) is int
        _assert_same_lattice(lat, make_lattice(lat.gram))
    empty = direct_sum([])
    assert empty.rank == 0 and empty.det == 1
    _assert_same_lattice(empty, make_lattice([]))
    assert repr(empty) == "IntegralLattice(gram=())"


def test_bool_entries_become_ints():
    lat = make_lattice([[True, False], [False, True]])
    _assert_same_lattice(lat, make_lattice([[1, 0], [0, 1]]))
    assert repr(lat) == "IntegralLattice(gram=((1, 0), (0, 1)))"
    assert all(type(x) is int for row in lat.gram for x in row)


def test_sublattice_rejects_dependent_rows_and_degenerate_spans():
    z3 = make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    u = std_gram("U")
    for lat, rows in ((z3, [[1, 2, 3], [2, 4, 6]]),
                      (z3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
                      (z3, [[0, 0, 0]]),
                      (u, [[1, 0]]),      # isotropic, so its span is degenerate
                      (u, [[0, 3]]),
                      (direct_sum([u, u]), [[1, 0, 0, 0], [0, 0, 1, 0]])):
        with pytest.raises(LatticeError) as err:
            sublattice(lat, rows)
        assert type(err.value) is LatticeError
        assert str(err.value).startswith("sublattice rows are dependent or degenerate")
    # a non-isotropic row of U and an independent pair span lattices
    assert sublattice(u, [[1, 1]]).gram == ((2,),)
    assert sublattice(u, [[1, 1], [1, -1]]).det == -4
    assert sublattice(z3, []).rank == 0 and sublattice(z3, []).signature == (0, 0)


def test_discriminant_q_and_b_are_the_lift_pairings():
    rng = random.Random(2209)
    lattices = [std_gram("A", 4), std_gram("A", 1), std_gram("U"), u2_cubed(),
                build_nikulin()[0], build_MD5(build_nikulin()[0])]
    for _ in range(40):
        lat = _random_even_lattice(rng, rng.randint(1, 8))
        lattices.append(rescale(lat, -1) if rng.random() < 0.3 else lat)
    lattices.append(direct_sum([lattices[-1], rescale(u2_cubed(), 3)]))
    nontrivial = 0
    for lat in lattices:
        f = discriminant_group(lat)
        lifts = f.generator_lifts
        assert f.q_values == tuple(lat.pairing(x, x) % 2 for x in lifts)
        assert f.b_matrix == tuple(tuple(lat.pairing(x, y) % 1 for y in lifts)
                                   for x in lifts)
        # the pairing itself, summed entry by entry from the Gram matrix
        for x in lifts:
            for y in lifts:
                assert lat.pairing(x, y) == sum(x[i] * lat.gram[i][j] * y[j]
                                                for i in range(lat.rank)
                                                for j in range(lat.rank))
        nontrivial += len(lifts) > 1
    assert nontrivial >= 10
    assert discriminant_group(make_lattice([])) == FiniteQuadraticForm((), (), (), ())
