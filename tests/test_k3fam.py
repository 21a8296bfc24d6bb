import collections
import dataclasses
import io
import math
import os
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from cyclo_ref import (
    RefCyc5, from_ref_matrix, ref_kernel, ref_matrix, ref_rref,
)
from k3fam_ref import dense_product
from latkit import k3fam
from latkit.isometry import CapExceeded
from latkit.cyclo import Cyc5
from latkit.k3fam import (
    FamilyError, MonomialFamily, ProjectiveMap, commutant_dim, diagonal_map,
    dihedral_in_pgl, fixed_locus, fixed_point_count, moduli_count, permutation_map, pgl_equal,
    plane_fixed_count, poly_apply_map, poly_from_terms, poly_mul, poly_scale,
    poly_total_degree, proportional, restrict_and_count, restrict_to_subspace, swap_check,
    sylvester_resultant, sigma_weight, is_invariant_family,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import oracles  # noqa: E402

w = Cyc5.omega
one = Cyc5.one()


def test_poly_basics():
    p = poly_from_terms([((1, 0), 1), ((0, 1), 1)])
    q = poly_from_terms([((1, 0), 1), ((0, 1), -1)])
    assert poly_mul(p, q) == poly_from_terms([((2, 0), 1), ((0, 2), -1)])
    assert poly_total_degree(poly_mul(p, p)) == 2
    assert poly_from_terms([((0, 0), 1), ((0, 0), -1)]) == {}


def test_poly_apply_map_diagonal():
    p = poly_from_terms([((2, 1), 1)])
    m = diagonal_map([w(1), w(2)]).matrix
    assert poly_apply_map(p, m) == poly_from_terms([((2, 1), w(4))])


def test_monomial_family_validation():
    with pytest.raises(FamilyError):
        MonomialFamily(num_vars=2, weights=(0, 1), monomials=((1, 0), (1, 1)))
    with pytest.raises(FamilyError):
        MonomialFamily(num_vars=2, weights=(0, 1), monomials=((1, 0, 0),))
    fam = MonomialFamily(num_vars=2, weights=(0, 1), monomials=((2, 0), (0, 2)))
    with pytest.raises(FamilyError):
        fam.polynomial([1])
    # exponents are refused as poly_from_terms refuses them; (7, -5) was kept
    for m in ((7, -5), (1.5, 0.5), (True, 1)):
        with pytest.raises(FamilyError, match=r"exponents .* are not nonnegative ints"):
            MonomialFamily(num_vars=2, weights=(0, 1), monomials=((2, 0), m))


def test_sigma_weight_and_invariance():
    assert sigma_weight((2, 3), (0, 1)) == 3
    fam = MonomialFamily(num_vars=2, weights=(1, 4), monomials=((1, 1), (2, 0)))
    ok, weight = is_invariant_family(fam)
    assert not ok and weight is None
    fam2 = MonomialFamily(num_vars=2, weights=(1, 4), monomials=((5, 0), (0, 5)))
    assert is_invariant_family(fam2) == (True, 0)


def test_projective_map_algebra():
    s = diagonal_map([one, w(1)])
    t = permutation_map([1, 0])
    assert (t * t).is_scalar()
    assert pgl_equal(s, diagonal_map([w(2), w(3)]))  # scalar multiple
    assert not pgl_equal(s, t)
    assert pgl_equal(s * s.inverse(), diagonal_map([one, one]))
    with pytest.raises(FamilyError):
        ProjectiveMap([[Cyc5.zero(), Cyc5.zero()],
                       [Cyc5.zero(), one]]).inverse()


def test_dihedral_in_pgl():
    s = diagonal_map([one, w(1), w(2), w(3), w(4)])
    i = permutation_map([0, 4, 3, 2, 1])
    assert dihedral_in_pgl(s, i)
    # sigma scalar: degenerate, not dihedral
    assert not dihedral_in_pgl(diagonal_map([one] * 5), i)
    # iota not an involution
    assert not dihedral_in_pgl(s, permutation_map([1, 2, 0, 3, 4]))
    # a 4-cycle passes every other test: diag(1, w, 1, w) is not scalar, its
    # fifth power is, and s_i s_pi(i) = w throughout
    assert not dihedral_in_pgl(diagonal_map([one, w(1), one, w(1)]), permutation_map([1, 2, 3, 0]))


def test_fixed_locus_dimensions():
    i = permutation_map([1, 0, 3, 2])
    spaces = dict(fixed_locus(i))
    assert len(spaces[1]) == 2 and len(spaces[-1]) == 2
    for sign, basis in fixed_locus(i):
        for v in basis:
            img = [sum(i.matrix[r][c] * v[c] for c in range(4)) for r in range(4)]
            assert img == [Cyc5.one() * sign * x for x in v]
    with pytest.raises(FamilyError):
        fixed_locus(permutation_map([1, 2, 0]))


def test_restrict_and_count():
    # x^2 - y^2 on the line spanned by e0, e1: two roots
    p = poly_from_terms([((2, 0, 0), 1), ((0, 2, 0), -1)])
    line = [(one, Cyc5.zero(), Cyc5.zero()), (Cyc5.zero(), one, Cyc5.zero())]
    assert restrict_and_count(p, line) == 2
    # x^2 on the line where x = 0: identically zero restriction
    line2 = [(Cyc5.zero(), one, Cyc5.zero()), (Cyc5.zero(), Cyc5.zero(), one)]
    p2 = poly_from_terms([((2, 0, 0), 1)])
    assert restrict_and_count(p2, line2) is None


def test_fixed_point_count_on_the_catalog_samples(monkeypatch):
    # the quartic's iota has two eigenlines, each meeting X in 4 points;
    # ci-p4's has an eigenplane (quadric and cubic meet in 6 points) and
    # an eigenline on which the cubic vanishes and the quadric leaves 2;
    # its curves miss (1 : 0 : 0) of the plane, so it needs no shear
    from latkit import catalog
    monkeypatch.setattr(k3fam, "_SHEARS", [(0, 0)])
    for case in (catalog.quartic_p3(), catalog.ci_p4()):
        assert fixed_point_count(case.forms, case.iota) == 8


def test_fixed_point_count_refuses_what_it_cannot_count():
    # x0 <-> x1, x2 <-> x3 has eigenlines (a, a, b, b) and (a, -a, b, -b);
    # two quadrics that both survive on the first leave a line with two forms
    squares = poly_from_terms([((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1),
                               ((0, 0, 2, 0), 1), ((0, 0, 0, 2), 1)])
    cross = poly_from_terms([((1, 1, 0, 0), 1), ((0, 0, 1, 1), 1)])
    swap = permutation_map([1, 0, 3, 2])
    with pytest.raises(FamilyError, match=re.escape("(+1) eigenspace: dimension 2, 2 form(s)")):
        fixed_point_count((squares, cross), swap)
    # diag(1, 1, 1, -1) fixes the plane x3 = 0, where a conic and its
    # square share a component, so no finite count exists
    conic = poly_from_terms([((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1)])
    with pytest.raises(FamilyError, match=re.escape("(+1) eigenspace: dimension 3, 2 form(s)")):
        fixed_point_count((conic, poly_mul(conic, conic)), diagonal_map([1, 1, 1, -1]))


def test_sylvester_resultant_degree():
    # generic conic and cubic in two variables: resultant degree 6 in the rest
    x2 = poly_from_terms([((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)])
    x3 = poly_from_terms([((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 2)])
    res = sylvester_resultant(x2, x3, 0)
    assert poly_total_degree(res) == 6
    # shared factor forces a zero resultant
    shared = poly_from_terms([((1, 0), 1), ((0, 1), -1)])
    assert sylvester_resultant(poly_mul(shared, shared), shared, 0) == {}


def test_resultant_determinant_budget(monkeypatch):
    # a dense 4 x 4 determinant expands 4 + 4 * 3 + 4 * 3 * 2 = 40 terms
    rows = [[{(): one * c} for c in row] for row in
            ([2, 1, 0, 3], [1, 4, 1, 1], [5, 1, 3, 2], [1, 2, 1, 6])]
    with monkeypatch.context() as m:
        m.setattr(k3fam, "DET_TERM_BUDGET", 40)
        assert k3fam._poly_det(rows, {(): one}) == {(): one * 136}
        m.setattr(k3fam, "DET_TERM_BUDGET", 39)
        with pytest.raises(CapExceeded):
            k3fam._poly_det(rows, {(): one})
    # dense binary octics: a 16 x 16 Sylvester matrix, 16! cofactor terms
    p = poly_from_terms([((k, 8 - k), k + 1) for k in range(9)])
    q = poly_from_terms([((k, 8 - k), (-1) ** k * (k + 2)) for k in range(9)])
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="past %d terms" % k3fam.DET_TERM_BUDGET):
        sylvester_resultant(p, q, 0)
    assert time.perf_counter() - t0 < 1.0


def test_plane_fixed_count_bezout():
    plane = [(one, Cyc5.zero(), Cyc5.zero()),
             (Cyc5.zero(), one, Cyc5.zero()),
             (Cyc5.zero(), Cyc5.zero(), one)]
    conic = poly_from_terms([((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)])
    cubic = poly_from_terms([((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 2)])
    assert plane_fixed_count((conic, cubic), plane) == 6
    assert plane_fixed_count((conic, poly_mul(conic, conic)), plane) is None


def test_plane_fixed_count_through_the_first_parameter_point():
    # both curves pass through (1 : 0 : 0), which the resultant in
    # parameter 0 drops unless the plane is sheared first: Bezout's 4 (not
    # 3) for two conics, and None (not 2) for curves sharing the line x1 = 0
    plane = [tuple(one if i == j else Cyc5.zero() for j in range(3)) for i in range(3)]
    cases = [
        ([((1, 1, 0), 1), ((0, 0, 2), 1)], [((1, 0, 1), 1), ((0, 2, 0), 1)], 4),
        ([((0, 1, 1), 1)], [((1, 1, 0), 1), ((0, 1, 1), 1)], None),
        # conics through the three coordinate points and (1 : -2 : -2)
        ([((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1)],
         [((1, 1, 0), 1), ((0, 1, 1), 2), ((1, 0, 1), 3)], 4),
    ]
    for p, q, count in cases:
        assert plane_fixed_count((poly_from_terms(p), poly_from_terms(q)), plane) == count


def test_commutant_dim():
    # distinct eigenvalues: commutant is the diagonal maps
    assert commutant_dim(diagonal_map([one, w(1), w(2)])) == 3
    # scalar: everything commutes
    assert commutant_dim(diagonal_map([one, one])) == 4
    # repeated eigenvalue in a 3x3: 1 + 1 + a 2x2 block
    assert commutant_dim(diagonal_map([one, one, w(1)])) == 5
    # diag(2, 2w) is read off its entries although sigma^10 != I
    scaled = diagonal_map([one * 2, w(1) * 2])
    assert commutant_dim(scaled) == ref_commutant_dim(scaled.matrix) == 2


def test_moduli_count():
    assert moduli_count([7], 4, 0) == 3
    assert moduli_count([3, 7], 5, 1) == 3
    # three forms with a doubled eigenvalue in the diagonal action:
    # (5-1)+(4-1)+(4-1) - (8-1) = 3
    assert moduli_count([5, 4, 4], 8, 0) == 3


def test_swap_check():
    i = permutation_map([1, 0])
    p = poly_from_terms([((2, 0), 1)])
    q = poly_from_terms([((0, 2), 3)])
    assert swap_check(i, p, q)         # x^2 -> y^2, scalar 1/3 vs q
    assert not swap_check(i, p, p)
    assert swap_check(i, {}, {})
    # iota^2 = 2 I: p composed with iota^-1 is y^2 / 4, and with iota y^2
    assert swap_check(ProjectiveMap([[0, 1], [2, 0]]), p, q)
    # a 3-cycle is no involution, so iota^-1 is no multiple of iota
    cyc = permutation_map([1, 2, 0])
    with pytest.raises(FamilyError, match="swap_check takes an involution"):
        swap_check(cyc, poly_from_terms([((2, 0, 0), 1)]), poly_from_terms([((0, 2, 0), 1)]))
    assert proportional(q, poly_scale(q, Cyc5.omega(2))) and proportional({}, {})
    assert not proportional(p, q) and not proportional(p, {})


def test_restrict_to_subspace_parameters():
    p = poly_from_terms([((1, 1, 0), 1)])
    basis = [(one, one, Cyc5.zero())]
    r = restrict_to_subspace(p, basis)
    assert r == poly_from_terms([((2,), 1)])


def test_catalog_cases_are_consistent():
    from latkit import catalog
    families = {"k3:quartic-p3": [catalog.QUARTIC],
                "k3:ci-p4": [catalog.P4_QUADRIC, catalog.P4_CUBIC],
                "k3:ci-p5": [catalog.P5_Q1, catalog.P5_Q2, catalog.P5_Q3],
                "k3:double-cover-p2": [catalog.SEXTIC]}
    assert [name for name in catalog.BUILDERS if name.startswith("k3:")] == list(families)
    for name, fams in families.items():
        case = catalog.BUILDERS[name](None)
        assert dihedral_in_pgl(case.sigma, case.iota)
        assert moduli_count(case.param_counts, commutant_dim(case.commutant_of),
                            case.redundancy) == 3
        assert len(case.forms) == len(case.param_counts) == len(fams)
        for fam, form in zip(fams, case.forms):
            # each sample form is a member of a family invariant under
            # diag(w^weights), the map whose commutant the moduli count reads
            assert is_invariant_family(fam)[0]
            assert set(form) <= set(fam.monomials)
            assert case.commutant_of == diagonal_map([Cyc5.omega(k) for k in fam.weights])


def _is_monomial(m):
    """One nonzero per row, in columns that form a permutation."""
    return (all(len(nz) == 1 for nz in m.nonzeros)
            and sorted(nz[0][0] for nz in m.nonzeros) == list(range(m.size)))


def test_catalog_maps_are_monomial():
    # ProjectiveMap.inverse reads monomial maps alone, so every sigma, iota
    # and base_iota of the k3 cases, faults included, must be one
    from latkit import catalog
    builders = [b for name, b in catalog.BUILDERS.items() if name.startswith("k3:")]
    faults = [b for fault in catalog.FAULTS.values()
              for name, b in fault.items() if name.startswith("k3:")]
    assert (len(builders), len(faults)) == (4, 3)
    for build in builders + faults:
        case = build(None)
        for m in (case.sigma, case.iota, case.base_iota):
            assert m is None or _is_monomial(m)
    assert sum(build(None).base_iota is not None for build in builders) == 1


# --- oracle: the ref_* functions compute on the Fraction Q(w) arithmetic
# and field-generic Gauss-Jordan of tests/cyclo_ref.py alone ------------

def _rand_cyc(rng, rational):
    if rational or rng.random() < 0.3:
        return one * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Cyc5([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])


def _rand_cyc_matrix(rng, n, rational):
    """A random n x n matrix over Q(w); a quarter of them singular, with
    the last row a Q(w)-combination of the others."""
    a = [[_rand_cyc(rng, rational) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        c = [_rand_cyc(rng, rational) for _ in range(n - 1)]
        a[-1] = [sum((ci * row[j] for ci, row in zip(c, a)), Cyc5.zero())
                 for j in range(n)]
    return a


def ref_commutant_dim(a):
    a = ref_matrix(a)
    n = len(a)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [RefCyc5.zero()] * (n * n)
            for k in range(n):
                row[i * n + k] = row[i * n + k] + a[k][j]
                row[k * n + j] = row[k * n + j] - a[i][k]
            rows.append(row)
    return len(ref_kernel(rows, n * n))


def _ref_inverse(a):
    """The inverse of the square rows a, read from the reference rref of
    [a | I] as a ProjectiveMap, or None when a is singular."""
    n = len(a)
    aug = [list(row) + [one if i == j else Cyc5.zero() for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = ref_rref(aug, n)
    if pivots != list(range(n)):
        return None
    return ProjectiveMap(from_ref_matrix([row[n:] for row in red]))


def test_inverse_and_commutant_match_reference():
    # inverse reads maps with one nonzero per row alone (most are 1 x 1),
    # and a repeated column makes them singular; any other map raises
    # FamilyError, as singular or as not monomial, though the reference
    # inverts it when it is not singular
    rng = random.Random(41)
    singular = monomial = 0
    for case in range(80):
        n = rng.randint(1, 4)
        a = _rand_cyc_matrix(rng, n, case % 2 == 0)
        m, inv = ProjectiveMap(a), _ref_inverse(a)
        singular += inv is None
        if all(len(nz) == 1 for nz in m.nonzeros):
            monomial += inv is not None
            if inv is None:
                with pytest.raises(FamilyError, match="singular"):
                    m.inverse()
            else:
                assert m.inverse() == inv
        else:
            with pytest.raises(FamilyError, match="singular|inverse takes a monomial map"):
                m.inverse()
            assert inv is None or m * inv == diagonal_map([1] * n)
        if n <= 3:
            d = diagonal_map([a[i][i] for i in range(n)])
            assert commutant_dim(d) == ref_commutant_dim(d.matrix)
    assert singular >= 8 and monomial >= 10


def _conjugated_diagonals():
    """40 pairs (P D P^-1, eigenvalues of D), D with repeated eigenvalues
    drawn from all ten +-w^k."""
    rng = random.Random(43)
    out = []
    while len(out) < 40:
        n = rng.randint(2, 6)
        p = ProjectiveMap(_rand_cyc_matrix(rng, n, len(out) % 2 == 0))
        pinv = _ref_inverse(p.matrix)
        if pinv is None:
            continue
        values = rng.sample([w(k) * s for k in range(5) for s in (1, -1)], rng.randint(1, 4))
        eig = [rng.choice(values) for _ in range(n)]
        out.append((p * diagonal_map(eig) * pinv, eig))
    return out


def test_commutant_dim_of_conjugated_diagonals():
    # P D P^-1 has the commutant of D, of dimension the sum of the squared
    # eigenvalue multiplicities, which the reference solve on P D P^-1
    # confirms for n <= 3; commutant_dim answers D and refuses P D P^-1
    # unless D is scalar
    refused = 0
    for sigma, eig in _conjugated_diagonals():
        expected = sum(1 for x in eig for y in eig if x == y)
        assert commutant_dim(diagonal_map(eig)) == expected
        if sigma.size <= 3:
            assert ref_commutant_dim(sigma.matrix) == expected
        if len(set(eig)) == 1:
            assert commutant_dim(sigma) == expected
        else:
            with pytest.raises(FamilyError, match="commutant_dim takes a diagonal map"):
                commutant_dim(sigma)
            refused += 1
    assert refused == 29


TEN_ROOTS = [w(k) * s for s in (1, -1) for k in range(5)]


def _partitions(n, most):
    if n == 0:
        yield []
    for first in range(min(n, most), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def _root_of_unity_diagonals():
    """Eigenvalue lists: every one for n <= 2, and for each n <= 8 every
    multiplicity pattern on randomly chosen eigenvalues among the +-w^k."""
    rng = random.Random(67)
    maps = [[x] for x in TEN_ROOTS] + [[x, y] for x in TEN_ROOTS for y in TEN_ROOTS]
    for n in range(1, 9):
        for parts in _partitions(n, 10):
            eig = [x for d, x in zip(parts, rng.sample(TEN_ROOTS, len(parts))) for _ in range(d)]
            rng.shuffle(eig)
            maps.append(eig)
    return maps


def test_commutant_dim_of_diagonal_roots_of_unity():
    # the multiplicity formula sum d^2
    maps = _root_of_unity_diagonals()
    for eig in maps:
        assert commutant_dim(diagonal_map(eig)) == sum(eig.count(x) ** 2 for x in set(eig))
    assert len(maps) == 110 + 66


def test_commutant_dim_and_permutation_map_make_no_extra_products(monkeypatch):
    # a diagonal map's commutant is counted off its entries, with no Cyc5 product
    rng = random.Random(103)
    n = 8
    eig = [rng.choice(TEN_ROOTS) for _ in range(n)]
    sigma = diagonal_map(eig)
    calls, real_mul = [], Cyc5.__mul__

    def counting_mul(x, y):
        calls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(Cyc5, "__mul__", counting_mul)
    assert commutant_dim(sigma) == sum(eig.count(x) ** 2 for x in set(eig))
    assert calls == []
    # permutation maps coerce their signs as summands
    calls.clear()
    perms = [permutation_map(rng.sample(range(n), n), rng.sample(TEN_ROOTS, n)),
             permutation_map([1, 0, 3, 2]),
             permutation_map([1, 0], [Fraction(1, 2), -3])]
    assert calls == []
    assert perms[2] == ProjectiveMap([[0, Fraction(1, 2)], [-3, 0]])
    assert perms[1].nonzeros == (((1, one),), ((0, one),), ((3, one),), ((2, one),))


def _diagonals_beyond_ten(rng):
    """Entry lists of diagonal maps with sigma^10 != I, n <= 8: roots of
    unity scaled by rationals, rationals, Q(w) values with denominators, and
    zero entries (singular maps); per n one list from each pool, drawn from
    a few values so that most repeat."""
    scaled = [x * c for x in TEN_ROOTS for c in (2, Fraction(-1, 3))]
    rational = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 7) if abs(a) != b]
    mixed = [_rand_cyc(rng, False) for _ in range(6)] + [Cyc5.zero()]
    lists = [[1, 2, 3, 4, 5], [0, 0], [0, one, 0, Fraction(3, 3)]]
    for n in range(1, 9):
        for pool in (scaled, rational, mixed, scaled + [0] * 3):
            values = rng.sample(pool, rng.randint(1, 4))
            lists.append([rng.choice(values) for _ in range(n)])
    return lists


def _count_products_and_solves(monkeypatch):
    """Patch Cyc5.__mul__ and k3fam's cyclo.rref to log "mul" and "rref"."""
    calls = []
    real_mul, real_rref = Cyc5.__mul__, k3fam.cyclo.rref

    def counting_mul(x, y):
        calls.append("mul")
        return real_mul(x, y)

    def counting_rref(rows, ncols):
        calls.append("rref")
        return real_rref(rows, ncols)

    monkeypatch.setattr(Cyc5, "__mul__", counting_mul)
    monkeypatch.setattr(k3fam.cyclo, "rref", counting_rref)
    return calls


def _rand_monomial(rng, n):
    """(rows, cols, entries) of a random diagonal or signed-permutation map:
    entries +-w^k, or random nonzero Cyc5 values with denominators."""
    cols = list(range(n)) if rng.random() < 0.5 else rng.sample(range(n), n)
    pool = TEN_ROOTS if rng.random() < 0.5 else None
    entries = []
    while len(entries) < n:
        x = rng.choice(pool) if pool else _rand_cyc(rng, rng.random() < 0.3)
        if x:
            entries.append(x)
    rows = [[entries[i] if j == cols[i] else Cyc5.zero() for j in range(n)] for i in range(n)]
    return rows, cols, entries


def test_monomial_inverse_matches_reference(monkeypatch):
    # the inverse of a monomial map is its inverse permutation with each
    # entry inverted: no solve, and the reference rref of [M | I] agrees
    rng = random.Random(113)
    maps = []
    for case in range(60):
        rows, cols, entries = _rand_monomial(rng, rng.randint(1, 6))
        m = diagonal_map(entries) if cols == sorted(cols) else permutation_map(cols, entries)
        assert m == ProjectiveMap(rows)
        maps.append((m, _ref_inverse(rows)))
    assert sum(any(x.d > 1 for nz in m.nonzeros for _, x in nz) for m, _ in maps) >= 10
    assert sum(m.size > 1 and m.nonzeros[0][0][0] != 0 for m, _ in maps) >= 10
    calls = _count_products_and_solves(monkeypatch)
    for m, inv in maps:
        assert m.inverse() == inv
        assert m * m.inverse() == m.inverse() * m == diagonal_map([1] * m.size)
    assert "rref" not in calls


def test_inverse_refuses_singular_and_dense_maps():
    z = Cyc5.zero()
    with pytest.raises(FamilyError, match="projective map is singular"):
        ProjectiveMap([[one, z, z], [z, z, z], [z, z, w(2)]]).inverse()   # zero row
    with pytest.raises(FamilyError, match="projective map is singular"):
        ProjectiveMap([[z, one, z], [z, w(1), z], [z, z, one]]).inverse()  # column 1 twice
    with pytest.raises(FamilyError, match=r"inverse takes a monomial map, not "
                                          r"ProjectiveMap\(matrix="):
        ProjectiveMap([[one, z, z], [z, one, w(3)], [z, z, one]]).inverse()
    assert _ref_inverse([[one, z, z], [z, one, w(3)], [z, z, one]]) is not None


def test_k3_repro_pass_solves_only_the_fixed_loci(monkeypatch):
    # conjugation-scalar and cover-relation invert monomial maps with no
    # solve; the three fixed_locus calls make two eliminations each
    from latkit import cli
    calls = _count_products_and_solves(monkeypatch)
    assert cli.main(["repro", "--filter", "k3", "--json"], io.StringIO()) == 0
    assert calls.count("rref") == 6


def test_map_products_run_only_where_claims_need_them(monkeypatch):
    # a k3 repro pass makes 11 map products: iota^2 (one product each, in
    # fixed_locus and swap_check) and the conjugation-scalar and
    # cover-relation claims; the families workload's map op makes none
    from latkit import cli
    products, powers = [], []
    real_mul, real_power = ProjectiveMap.__mul__, ProjectiveMap.power
    monkeypatch.setattr(ProjectiveMap, "__mul__",
                        lambda a, b: products.append(1) or real_mul(a, b))
    monkeypatch.setattr(ProjectiveMap, "power",
                        lambda a, k: powers.append(k) or real_power(a, k))
    assert cli.main(["repro", "--filter", "k3", "--json"], io.StringIO()) == 0
    assert len(products) == 11 and powers and set(powers) == {2}
    products.clear()
    powers.clear()
    rng = random.Random(157)
    for _ in range(20):
        n = rng.randint(2, 6)
        perm = list(range(n))
        for i, j in zip(*[iter(rng.sample(range(n), n))] * 2):
            perm[i], perm[j] = j, i
        sigma = diagonal_map([w(rng.randrange(5)) for _ in range(n)])
        commutant_dim(sigma)
        dihedral_in_pgl(sigma, permutation_map(perm))
    assert dihedral_in_pgl(diagonal_map([one, w(1), w(4)]), permutation_map([0, 2, 1]))
    assert products == [] and powers == []


def test_commutant_dim_of_diagonals_beyond_order_ten(monkeypatch):
    # diag(s_i) commutes with X iff X_ij (s_j - s_i) = 0, so the dimension
    # is #{(i, j) : s_i = s_j} for every diagonal map, found with no Cyc5
    # product and no solve; diag(1, 2, 3, 4, 5) once raised CapExceeded
    lists = _diagonals_beyond_ten(random.Random(109))
    maps = [diagonal_map(eig) for eig in lists]
    assert all(a.power(10) != a.power(0) for a in maps)
    expected = [sum(1 for x in eig for y in eig if x == y) for eig in lists]
    small = [(a, e) for a, e in zip(maps, expected) if a.size <= 3]
    assert [ref_commutant_dim(a.matrix) for a, _ in small] == [e for _, e in small]
    calls = _count_products_and_solves(monkeypatch)
    assert [commutant_dim(a) for a in maps] == expected
    assert calls == []
    assert expected[:3] == [5, 4, 8]
    assert (len(maps), max(a.size for a in maps), len(small)) == (35, 8, 13)
    assert sum(e > len(eig) for eig, e in zip(lists, expected)) >= 20


def test_off_diagonal_maps_are_not_read_off_their_diagonals(monkeypatch):
    # one nonzero off the diagonal makes commutant_dim refuse a map, with no
    # product or solve; a count read off the diagonal would give 4 for each
    swap = permutation_map([1, 0])                       # eigenvalues 1 and -1
    nilpotent = ProjectiveMap([[0, 1], [0, 0]])          # commutant {aI + bN}
    jordan = ProjectiveMap([[w(1), 0], [one, w(1)]])     # row 1 off and on the diagonal
    calls = _count_products_and_solves(monkeypatch)
    for a in (swap, nilpotent, jordan):
        with pytest.raises(FamilyError, match=r"commutant_dim takes a diagonal map, not "
                                              r"ProjectiveMap\(matrix="):
            commutant_dim(a)
        assert ref_commutant_dim(a.matrix) == 2
    assert calls == []


# --- reference: dihedral_in_pgl as it was written before the sigma iota
# sigma test, with k-fold powers, an inverse and division, on RefCyc5 ----

def ref_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), RefCyc5.zero()) for col in zip(*b)]
            for row in a]


def ref_power(a, k):
    n = len(a)
    out = [[RefCyc5.one() if i == j else RefCyc5.zero() for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = ref_product(out, a)
    return out


def ref_inverse(a):
    n = len(a)
    red, _ = ref_rref([row + [RefCyc5.one() if i == j else RefCyc5.zero() for j in range(n)]
                       for i, row in enumerate(a)], n)
    return [row[n:] for row in red]


def ref_is_scalar(a):
    d = a[0][0]
    return bool(d) and all(a[i][j] == (d if i == j else RefCyc5.zero())
                           for i in range(len(a)) for j in range(len(a)))


def ref_pgl_equal(a, b):
    lam = None
    for x, y in zip(sum(a, []), sum(b, [])):
        if bool(x) != bool(y):
            return False
        if y:
            if lam is None:
                lam = x / y
            elif x / y != lam:
                return False
    return lam is not None


def ref_dihedral_in_pgl(sigma, iota):
    s, i = ref_matrix(sigma.matrix), ref_matrix(iota.matrix)
    if len(i) != len(s) or not ref_is_scalar(ref_power(i, 2)):
        return False
    if ref_is_scalar(s) or not ref_is_scalar(ref_power(s, 5)):
        return False
    conj = ref_product(ref_product(i, s), ref_inverse(i))
    return ref_pgl_equal(conj, ref_inverse(s))


def test_power_is_repeated_product():
    rng = random.Random(53)
    dense = ProjectiveMap(_rand_cyc_matrix(rng, 3, False))
    for a in (dense, diagonal_map([w(1), -w(3), one]), permutation_map([2, 0, 1], [1, -1, 1])):
        for k in range(12):
            assert a.power(k) == ProjectiveMap(from_ref_matrix(ref_power(ref_matrix(a.matrix), k)))


def test_power_refuses_negative_exponents():
    # k >>= 1 stays at -1, so a negative k used to loop for ever
    rng = random.Random(89)
    for a in (permutation_map([1, 0]), ProjectiveMap(_rand_cyc_matrix(rng, 3, False))):
        t0 = time.perf_counter()
        for k in (-1, -2, -10):
            with pytest.raises(FamilyError, match="negative power"):
                a.power(k)
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("rows", [
    [[1, 0], [0]],          # ragged
    [[1], [0, 1]],
    [[1, 0]],               # not square
    [[1, 0], [0, 1], [1, 1]],
    [],                     # empty
    [[]],
])
def test_malformed_maps_are_refused(rows):
    with pytest.raises(FamilyError, match="not a nonempty square"):
        ProjectiveMap(rows)


@pytest.mark.parametrize("entry", [[1], 1.5, "1"])
def test_entries_outside_q_w_are_refused(entry):
    with pytest.raises(FamilyError, match=r"entry %s is not in Q\(w\)" % re.escape(repr(entry))):
        ProjectiveMap([[one, 0], [0, entry]])


def test_ints_bools_fractions_and_cyc5_entries_coerce():
    a = ProjectiveMap([[True, Fraction(1, 2)], [0, w(1)]])
    assert a.matrix == ((one, one * Fraction(1, 2)), (Cyc5.zero(), w(1)))
    assert a.nonzeros == (((0, one), (1, one * Fraction(1, 2))), ((1, w(1)),))


@pytest.mark.parametrize("rows, match", [
    ([1, 2], r"row 0, 1, is not iterable"),
    ([[1, 0], 3], r"row 1, 3, is not iterable"),
    (5, r"rows 5 are not iterable"),
])
def test_rows_that_are_not_iterable_are_refused(rows, match):
    with pytest.raises(FamilyError, match=match):
        ProjectiveMap(rows)


@pytest.mark.parametrize("images, signs, match", [
    ([0, 0], None, "not a permutation of range"),       # singular
    ([-1, 0], None, "not a permutation of range"),      # read as [1, 0]
    ([5], None, "not a permutation of range"),          # IndexError
    ([1.0, 0], None, "not a permutation of range"),
    ([1, 0], [1], "takes 2 signs, not 1"),              # row 1 left zero
    ([1, 0], [1, 2, 3], "takes 2 signs, not 3"),
    ([1, 0], [1, Fraction(0)], "include a zero"),
    ([1, 0], [Cyc5.zero(), one], "include a zero"),
    ([1, 0], [1, 1.5], r"entry 1.5 is not in Q\(w\)"),
    ([], None, "not a nonempty square"),
])
def test_permutation_map_refuses_what_is_not_a_signed_permutation(images, signs, match):
    with pytest.raises(FamilyError, match=match):
        permutation_map(images, signs)


def _rand_entry(rng, nonzero):
    """An int, Fraction or Cyc5 entry, or (unless nonzero) a zero of one of those types."""
    x = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                    _rand_cyc(rng, False), rng.choice(TEN_ROOTS)])
    if nonzero:
        return x or rng.choice([1, Fraction(-1, 2), w(2)])
    return rng.choice([x, x, 0, Fraction(0), Cyc5.zero()])


def test_monomial_maps_match_dense_construction():
    # diagonal and permutation maps are written from their n entries; they
    # must equal the map built from the dense rows in every field
    rng = random.Random(113)
    seen = set()
    for case in range(400):
        n = rng.randint(1, 8)
        if case % 2:
            cols = list(range(n))
            entries = [_rand_entry(rng, False) for _ in range(n)]
            a = diagonal_map(entries)
        else:
            cols = rng.sample(range(n), n)
            entries = [_rand_entry(rng, True) for _ in range(n)]
            a = permutation_map(cols, entries if case % 4 else None)
            entries = entries if case % 4 else [1] * n
        dense = ProjectiveMap([[entries[i] if j == cols[i] else 0 for j in range(n)]
                               for i in range(n)])
        assert a.matrix == dense.matrix
        assert a.nonzeros == dense.nonzeros
        assert a == dense and hash(a) == hash(dense) and repr(a) == repr(dense)
        seen.update(type(x) for x in entries)
        seen.add(sum(map(bool, entries)) < n)
    assert seen == {int, Fraction, Cyc5, True, False}


def _pattern_variants(rng, a):
    """Maps that share a's size: scalar multiples of a, and multiples with
    one nonzero moved to another column, dropped or added, a row zeroed, or
    one row scaled apart."""
    n, lam = len(a), _rand_cyc(rng, False) or one
    b = [[x * lam for x in row] for row in a]
    yield b
    i, j = rng.randrange(n), rng.randrange(n)
    for change in range(5):
        c = [list(row) for row in b]
        if change == 0 and n > 1:
            k = (j + rng.randrange(1, n)) % n
            c[i][j], c[i][k] = c[i][k], c[i][j]
        elif change == 1:
            c[i][j] = Cyc5.zero()
        elif change == 2:
            c[i][j] = c[i][j] or _rand_cyc(rng, False) or one
        elif change == 3:
            c[i] = [Cyc5.zero()] * n
        elif change == 4:
            c[i] = [x * 2 for x in c[i]]
        yield c


def test_pgl_equal_on_nonzero_patterns_matches_division_reference():
    rng = random.Random(127)
    seen = set()
    for case in range(50):
        n = rng.randint(1, 5)
        density = rng.choice((1.0, 0.5, 0.2))
        a = [[_rand_cyc(rng, case % 2 == 0) if rng.random() < density else Cyc5.zero()
              for _ in range(n)] for _ in range(n)]
        if case % 5 == 0:
            a[rng.randrange(n)] = [Cyc5.zero()] * n
        for b in _pattern_variants(rng, a):
            pa, pb = ProjectiveMap(a), ProjectiveMap(b)
            want = ref_pgl_equal(ref_matrix(a), ref_matrix(b))
            assert pgl_equal(pa, pb) == want and pgl_equal(pb, pa) == want
            same_pattern = [[j for j, _ in nz] for nz in pa.nonzeros] == \
                [[j for j, _ in nz] for nz in pb.nonzeros]
            seen.add((want, same_pattern))
    assert seen == {(True, True), (False, True), (False, False)}
    # all-zero maps are no point of PGL, and sizes must agree
    zero = ProjectiveMap([[0, 0], [0, 0]])
    assert not pgl_equal(zero, zero)
    assert not pgl_equal(diagonal_map([1]), diagonal_map([1, 1]))


def test_monomial_maps_are_built_and_compared_from_their_nonzeros(monkeypatch):
    # no ProjectiveMap.__init__ (and its n^2 scan) behind a monomial map,
    # one truth test per entry, and pgl_equal reads the nonzeros alone
    rng = random.Random(131)
    n = 8
    inits, calls = [], []
    real_init, real_mul, real_bool = ProjectiveMap.__init__, Cyc5.__mul__, Cyc5.__bool__

    def counting_init(self, rows):
        inits.append(1)
        real_init(self, rows)

    def counting_mul(x, y):
        calls.append("mul")
        return real_mul(x, y)

    def counting_bool(x):
        calls.append("bool")
        return real_bool(x)

    monkeypatch.setattr(ProjectiveMap, "__init__", counting_init)
    monkeypatch.setattr(Cyc5, "__mul__", counting_mul)
    monkeypatch.setattr(Cyc5, "__bool__", counting_bool)
    eig = [rng.choice(TEN_ROOTS) for _ in range(n)]
    perm = rng.sample(range(n), n)
    sigma, iota = diagonal_map(eig), permutation_map(perm, rng.sample(TEN_ROOTS, n))
    assert inits == [] and calls == ["bool"] * 2 * n
    for a, b, want in ((sigma, diagonal_map([x * w(3) for x in eig]), True),
                       (iota, permutation_map(perm), False),
                       (sigma, iota, False)):
        calls.clear()
        assert pgl_equal(a, b) == want
        assert calls.count("mul") <= 2 * n and calls.count("bool") <= 3 * n
    assert calls == []          # different patterns: no entry is read
    assert inits == []


def _rand_sparse_map(rng, n, density):
    """A random n x n map whose entries are nonzero with probability density,
    or, for density None, a monomial map (one nonzero per row and column)."""
    if density is None:
        return permutation_map(rng.sample(range(n), n),
                               [_rand_cyc(rng, False) or one for _ in range(n)])
    return ProjectiveMap([[_rand_cyc(rng, rng.random() < 0.5) if rng.random() < density
                           else 0 for _ in range(n)] for _ in range(n)])


def test_product_matches_dense_reference():
    # every pairing of fully dense, half, sparse, all-zero and monomial
    # factors, n = 1..8: the same entries as the dense product, and an
    # index that lists exactly the nonzero entries in column order
    rng = random.Random(83)
    densities = (1.0, 0.5, 0.2, 0.0, None)
    for n in range(1, 9):
        for da in densities:
            for db in densities:
                a, b = _rand_sparse_map(rng, n, da), _rand_sparse_map(rng, n, db)
                ab = a * b
                assert ab.matrix == dense_product(a.matrix, b.matrix)
                assert ab.nonzeros == ProjectiveMap(ab.matrix).nonzeros
                assert ab == ProjectiveMap(ab.matrix) and hash(ab) == hash(ProjectiveMap(ab.matrix))
    # a sum that cancels to zero leaves the index
    ab = ProjectiveMap([[1, 1], [0, 1]]) * ProjectiveMap([[1, 0], [-1, 1]])
    assert ab.matrix == dense_product(((one, one), (0, one)), ((one, 0), (-one, one)))
    assert ab.nonzeros == (((1, one),), ((0, -one), (1, one)))
    assert not ab.matrix[0][0]


def test_is_scalar_matches_reference():
    # d I, d I with one entry changed, and d I with one row's d moved
    rng = random.Random(101)
    seen = set()
    for case in range(300):
        n = rng.randint(1, 5)
        d = _rand_cyc(rng, case % 2 == 0) if case % 7 else Cyc5.zero()
        rows = [[d if i == j else Cyc5.zero() for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if case % 3 == 1:
            rows[i][j] = _rand_cyc(rng, False)
        elif case % 3 == 2:
            rows[i][i], rows[i][j] = Cyc5.zero(), d
        want = ref_is_scalar(ref_matrix(rows))
        assert ProjectiveMap(rows).is_scalar() == want
        seen.add(want)
    assert seen == {True, False}


def test_monomial_products_make_one_cyc5_product_per_row(monkeypatch):
    rng = random.Random(97)
    n = 8
    diag = [diagonal_map([rng.choice(TEN_ROOTS) for _ in range(n)]) for _ in range(2)]
    perm = [permutation_map(rng.sample(range(n), n), rng.sample(TEN_ROOTS, n)) for _ in range(2)]
    calls, real_mul = [], Cyc5.__mul__

    def counting_mul(x, y):
        calls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(Cyc5, "__mul__", counting_mul)
    for a, b in (diag, perm):
        calls.clear()
        ab = a * b
        assert len(calls) == n
        assert ab.matrix == dense_product(a.matrix, b.matrix)
    # int entries are coerced with no product at all
    calls.clear()
    diagonal_map([1] * n)
    ProjectiveMap([[1, 0], [0, Fraction(-2, 3)]])
    assert calls == []


def test_dihedral_in_pgl_matches_reference():
    # P diag(s w^a_i) P^-1 and P pi P^-1 with pi an involution: half the
    # weights obey a_pi(i) + a_i = c mod 5 (dihedral), half are random
    rng = random.Random(59)
    answers = []
    while len(answers) < 60:
        n = rng.randint(2, 5)
        p = ProjectiveMap(_rand_cyc_matrix(rng, n, len(answers) % 2 == 0))
        pinv = _ref_inverse(p.matrix)
        if pinv is None:
            continue
        perm = list(range(n))
        idx = rng.sample(range(n), n)
        for t in range(rng.randint(1, n // 2)):
            perm[idx[2 * t]], perm[idx[2 * t + 1]] = idx[2 * t + 1], idx[2 * t]
        c = rng.randrange(5)
        a = [rng.randrange(5) for _ in range(n)]
        if rng.random() < 0.5:
            for i in range(n):
                a[i] = 3 * c % 5 if perm[i] == i else a[min(i, perm[i])]
                if i > perm[i]:
                    a[i] = (c - a[i]) % 5
        s = rng.choice((1, -1))
        sigma = p * diagonal_map([w(x) * s for x in a]) * pinv
        iota = p * permutation_map(perm) * pinv
        got = dihedral_in_pgl(sigma, iota)
        assert got == ref_dihedral_in_pgl(sigma, iota)
        answers.append(got)
    assert answers.count(True) >= 15 and answers.count(False) >= 15


def _monomial_pair(rng):
    """(sigma, iota, weights, perm) for a diagonal sigma and a monomial iota.

    sigma = diag(e_i w^a_i r_i).  Half the time the a_i follow
    a_pi(i) = c - a_i along every cycle of pi, and at times they are all
    equal; the signs e_i and the r_i (1, 2, 1 + w, -1/3) are shared by
    every entry or drawn per entry, and at times one entry is zero.  iota
    has columns pi, an involution or at times any permutation, and entries
    c_i: all 1, random signs, non-units with c_i c_pi(i) one square mu^2,
    or random non-units; at times it is one size larger than sigma.
    weights and perm are set only for sigma = diag(w^a_i) and an unsigned
    involution iota of its size, the inputs of oracles.dihedral_expected."""
    n = rng.randint(1, 5)
    pi, idx = list(range(n)), rng.sample(range(n), n)
    for t in range(rng.randint(0, n // 2)):
        pi[idx[2 * t]], pi[idx[2 * t + 1]] = idx[2 * t + 1], idx[2 * t]
    if rng.random() < 0.25:
        pi = rng.sample(range(n), n)
    c = rng.randrange(5)
    a = [rng.randrange(5) for _ in range(n)]
    if rng.random() < 0.5:
        # x, c - x, x, ... along each cycle of pi; an odd cycle needs x = 3c
        for i in range(n):
            cycle = [i]
            while pi[cycle[-1]] != i:
                cycle.append(pi[cycle[-1]])
            if min(cycle) == i:
                x = rng.randrange(5) if len(cycle) % 2 == 0 else 3 * c % 5
                for k, j in enumerate(cycle):
                    a[j] = (c - x) % 5 if k % 2 else x
    if rng.random() < 0.1:
        a = [a[0]] * n
    r_pool = [one, one * 2, one + w(1), one * Fraction(-1, 3)]
    plain = rng.random() < 0.3
    if plain:
        e, r = [1] * n, [one] * n
    elif rng.random() < 0.6:
        e, r = [rng.choice((1, -1))] * n, [rng.choice(r_pool)] * n
    else:
        e, r = [rng.choice((1, -1)) for _ in range(n)], [rng.choice(r_pool) for _ in range(n)]
    s = [w(x) * r[i] * e[i] for i, x in enumerate(a)]
    if rng.random() < 0.08:
        s[rng.randrange(n)] = Cyc5.zero()
    mode = "unit" if plain else rng.choice(("unit", "signs", "square", "random"))
    mu = rng.choice([one, one * 2, one + w(1), w(2), -one])
    entries = [rng.choice([one * 2, one + w(1), w(3) * Fraction(1, 2), -w(1)]) for _ in range(n)]
    if mode == "signs":
        entries = [one * rng.choice((1, -1)) for _ in range(n)]
    elif mode == "square":
        for i, p in enumerate(pi):
            if p == i:
                entries[i] = mu * rng.choice((1, -1))
            elif i > p:
                entries[i] = mu * mu * entries[p].inv()
    sigma = diagonal_map(s)
    if rng.random() < 0.05:
        return sigma, permutation_map(pi + [n]), None, None
    iota = permutation_map(pi, None if mode == "unit" else entries)
    roots = s == [w(x) for x in a]
    involution = all(pi[p] == i for i, p in enumerate(pi))
    if roots and mode == "unit" and involution:
        return sigma, iota, a, pi
    return sigma, iota, None, None


def _failed_condition(sigma, iota):
    """The first of the reference's tests that sigma and iota fail, or None."""
    s, i = ref_matrix(sigma.matrix), ref_matrix(iota.matrix)
    if len(i) != len(s):
        return "sizes"
    if not ref_is_scalar(ref_power(i, 2)):
        return "iota^2"
    if ref_is_scalar(s):
        return "sigma scalar"
    if not ref_is_scalar(ref_power(s, 5)):
        return "sigma^5"
    if not ref_pgl_equal(ref_product(ref_product(i, s), ref_inverse(i)), ref_inverse(s)):
        return "relation"
    return None


def test_dihedral_in_pgl_of_monomial_pairs_matches_reference(monkeypatch):
    # a diagonal sigma with no zero entry and a monomial iota are answered
    # from their entries, with no map product and O(n) Cyc5 products; the
    # answer is the reference's, and the weight rule's on its inputs
    rng = random.Random(149)
    products, maps = [], []
    real_mul, real_map_mul = Cyc5.__mul__, ProjectiveMap.__mul__
    monkeypatch.setattr(Cyc5, "__mul__", lambda x, y: products.append(1) or real_mul(x, y))
    monkeypatch.setattr(ProjectiveMap, "__mul__",
                        lambda a, b: maps.append(1) or real_map_mul(a, b))
    seen = collections.Counter()
    for _ in range(240):
        sigma, iota, weights, perm = _monomial_pair(rng)
        products.clear()
        maps.clear()
        got = dihedral_in_pgl(sigma, iota)
        closed = sigma.size == iota.size and all(sigma.nonzeros)
        if closed:
            assert maps == [] and len(products) <= 2 * sigma.size + 5
        failed = _failed_condition(sigma, iota)
        assert got == (failed is None)
        if weights is not None:
            assert got == oracles.dihedral_expected(weights, perm)
        pi = [nz[0][0] for nz in iota.nonzeros]
        seen.update({failed, "closed" * closed, "oracle" * (weights is not None),
                     "n = 1" * (sigma.size == 1), "zero entry" * (not all(sigma.nonzeros)),
                     "non-involution" * any(pi[p] != i for i, p in enumerate(pi)),
                     "non-unit sigma" * any(math.prod([x] * 10) != one
                                            for nz in sigma.nonzeros for _, x in nz),
                     "non-unit iota" * any(math.prod([x] * 10) != one
                                           for nz in iota.nonzeros for _, x in nz)})
    assert seen[None] >= 15 and seen["closed"] >= 200 and seen["oracle"] >= 20
    assert all(seen[k] for k in ("sizes", "iota^2", "sigma scalar", "sigma^5", "relation",
                                 "n = 1", "zero entry", "non-involution", "non-unit sigma",
                                 "non-unit iota")), seen


def test_pgl_equal_matches_division_reference():
    rng = random.Random(61)
    seen = set()
    for case in range(200):
        n = rng.randint(1, 3)
        a = [[_rand_cyc(rng, case % 2 == 0) if rng.random() < 0.7 else Cyc5.zero()
              for _ in range(n)] for _ in range(n)]
        lam = _rand_cyc(rng, False) or one
        b = [[x * lam for x in row] for row in a]
        if rng.random() < 0.5:
            # perturb one entry: a zero-pattern change or a different ratio
            i, j = rng.randrange(n), rng.randrange(n)
            b[i][j] = Cyc5.zero() if b[i][j] and rng.random() < 0.5 else b[i][j] + one
        pa, pb = ProjectiveMap(a), ProjectiveMap(b)
        want = ref_pgl_equal(ref_matrix(a), ref_matrix(b))
        assert pgl_equal(pa, pb) == want
        zeros_match = all(bool(x) == bool(y) for x, y in zip(sum(pa.matrix, ()), sum(pb.matrix, ())))
        seen.add((want, zeros_match, lam == one))
    assert {(True, True, False), (False, False, False), (False, True, False)} <= seen


def test_fixed_locus_matches_reference():
    rng = random.Random(47)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        p = _rand_cyc_matrix(rng, n, done % 2 == 0)
        red, pivots = ref_rref([row + [one if i == j else Cyc5.zero() for j in range(n)]
                                for i, row in enumerate(p)], n)
        if pivots != list(range(n)):
            continue
        signs = [rng.choice((1, -1)) for _ in range(n)]
        iota = (ProjectiveMap(p) * diagonal_map(signs)
                * ProjectiveMap(from_ref_matrix([r[n:] for r in red])))
        ref_iota = ref_matrix(iota.matrix)
        expected = []
        for sign in (1, -1):
            rows = [[ref_iota[i][j] - (sign if i == j else 0) for j in range(n)]
                    for i in range(n)]
            basis = ref_kernel(rows, n)
            if basis:
                expected.append((sign, [tuple(v) for v in from_ref_matrix(basis)]))
        assert fixed_locus(iota) == expected
        counts = (signs.count(1), signs.count(-1))
        assert [len(b) for _, b in expected] == [c for c in counts if c]
        done += 1


def test_projective_maps_store_only_their_nonzeros(monkeypatch):
    # one stored form: the dense matrix is a view built on first read, and
    # no map on the families path (monomial maps, products, powers, the
    # dihedral test and the commutant of a diagonal map) ever builds it
    assert [f.name for f in dataclasses.fields(ProjectiveMap)] == ["nonzeros"]
    products = []
    real_mul = ProjectiveMap.__mul__

    def recording_mul(a, b):
        products.append(real_mul(a, b))
        return products[-1]

    monkeypatch.setattr(ProjectiveMap, "__mul__", recording_mul)
    sigma = diagonal_map([one, w(1), w(2), w(3), w(4)])
    iota = permutation_map([0, 4, 3, 2, 1], [one, -one, w(2), -one, w(3)])
    maps = [sigma, iota, sigma.power(0)]
    maps += [sigma * iota, iota * sigma, sigma.power(5), iota.power(2)]
    involution = permutation_map([0, 4, 3, 2, 1])
    # sigma * iota, iota * sigma, four for sigma^5 and one for iota^2; the
    # dihedral test of a diagonal sigma and a monomial iota adds none
    assert len(products) == 7
    assert not dihedral_in_pgl(sigma, iota) and dihedral_in_pgl(sigma, involution)
    assert len(products) == 7
    # a zero entry of sigma takes the products: iota^2, then sigma^5 in four
    singular = diagonal_map([1, 0, 0, w(1), 1])
    assert not dihedral_in_pgl(singular, involution)
    assert len(products) == 12
    assert commutant_dim(sigma) == 5 and commutant_dim(diagonal_map([1, 0, 0, w(1)])) == 6
    assert all("matrix" not in vars(m) for m in maps + products + [involution, singular])
    # even a map built from dense rows keeps only its nonzeros; the view is
    # built once, on first read
    assert "matrix" not in vars(ProjectiveMap([[1, 0], [0, 1]]))
    assert sigma.matrix is sigma.matrix and "matrix" in vars(sigma)


def _rand_rows(rng, n, kind):
    """n dense rows of one kind: dense, half or sparse random entries, all
    zero, dense with one zero row, or monomial."""
    density = {"dense": 1.0, "half": 0.5, "sparse": 0.2, "zero": 0.0, "zero-row": 1.0}
    if kind == "monomial":
        perm = rng.sample(range(n), n)
        return [[_rand_cyc(rng, False) or one if j == perm[i] else Cyc5.zero()
                 for j in range(n)] for i in range(n)]
    rows = [[_rand_cyc(rng, rng.random() < 0.5) if rng.random() < density[kind]
             else Cyc5.zero() for _ in range(n)] for _ in range(n)]
    if kind == "zero-row":
        rows[rng.randrange(n)] = [Cyc5.zero()] * n
    return rows


def test_dense_view_matches_dense_reference():
    # maps built from rows or by a product carry only their nonzeros; the
    # view built from them is the dense matrix, round-trips through
    # ProjectiveMap(rows), and two maps are equal exactly when their dense
    # matrices are
    rng = random.Random(139)
    seen = set()
    for n in range(1, 9):
        ident = diagonal_map([1] * n)
        for kind in ("dense", "half", "sparse", "zero", "zero-row", "monomial"):
            rows = _rand_rows(rng, n, kind)
            ref = tuple(map(tuple, rows))
            for m in (ProjectiveMap(rows), ident * ProjectiveMap(rows),
                      ProjectiveMap(rows) * ident):
                assert "matrix" not in vars(m)
                assert m.matrix == ref
                again = ProjectiveMap(m.matrix)
                assert again == m and hash(again) == hash(m)
                assert repr(m) == repr(again) == "ProjectiveMap(matrix=%r)" % (ref,)
            # the same rows, one row zeroed, and one entry changed
            i, j = rng.randrange(n), rng.randrange(n)
            zeroed = [r if k != i else [Cyc5.zero()] * n for k, r in enumerate(rows)]
            changed = [list(r) for r in rows]
            changed[i][j] = changed[i][j] + rng.choice([one, w(1)])
            for other in (rows, zeroed, changed):
                a, b = ident * ProjectiveMap(rows), ident * ProjectiveMap(other)
                same = tuple(map(tuple, other)) == ref
                assert (a == b) == same == (a.matrix == b.matrix)
                assert hash(a) == hash(b) or not same
                seen.add((kind, same))
    assert {same for _, same in seen} == {True, False}
    assert ("zero", True) in seen and ("zero-row", False) in seen
    # an all-zero map differs from one of another size
    assert ProjectiveMap([[0]]) != ProjectiveMap([[0, 0], [0, 0]])


@pytest.mark.parametrize("call, match", [
    # both raised a bare TypeError from Cyc5.one() * c
    (lambda: poly_from_terms([((1, 0), "x")]), r"polynomial coefficient 'x' is not in Q\(w\)"),
    (lambda: poly_from_terms([((1, 0), 0.5)]), r"polynomial coefficient 0.5 is not in Q\(w\)"),
    (lambda: poly_scale({(1, 0): one}, 1.5), r"polynomial scale factor 1.5 is not in Q\(w\)"),
])
def test_polynomial_coefficients_outside_q_w_are_refused(call, match):
    with pytest.raises(FamilyError, match=match) as err:
        call()
    assert "projective map" not in str(err.value)


@pytest.mark.parametrize("exps", [
    (1.5, 0),       # was read as (1, 0)
    ("2", 0),       # was read as (2, 0)
    (-1, 2),        # was kept
    (True, 0),      # was read as (1, 0)
])
def test_exponents_that_are_not_nonnegative_ints_are_refused(exps):
    with pytest.raises(FamilyError, match=r"exponents .* are not nonnegative ints"):
        poly_from_terms([((0, 3), 1), (exps, 1)])


def test_int_and_fraction_coefficients_still_coerce():
    p = poly_from_terms([((2, 0), 3), ((0, 2), Fraction(1, 2)), ((1, 1), w(2))])
    assert p == {(2, 0): one * 3, (0, 2): one * Fraction(1, 2), (1, 1): w(2)}
    assert poly_scale(p, Fraction(2)) == poly_scale(p, 2) == {k: c * 2 for k, c in p.items()}
    assert poly_scale(p, 0) == {}
