"""The integer-table fqf_isomorphic, the generator-only group_closure,
the generator-stacked invariant_sublattice and disc_action_trivial on the
Smith form's V against the Fraction and closure versions they replaced,
kept here as oracles: the same witnesses (or None) and node counts on
seeded forms, the same closures, invariant bases and discriminant actions
on Weyl groups, signed permutation groups, E8, M_D5 and L's g, h.
Above order 4096 the old search answered None on isomorphic forms; the
new one must give a valid witness or CapExceeded."""

import functools
import random
from fractions import Fraction

import pytest

from fqf_ref import b_of, element_order, elements, q_of
from isometry_ref import inverse as iso_inverse, is_identity
from latkit import catalog, isometry, lattice
from latkit.catalog import build_MD5, build_nikulin, std_gram, u2_cubed
from latkit.isometry import (
    CapExceeded, Isometry, IsometryError, disc_action_trivial, group_closure,
    invariant_sublattice, make_isometry, order,
)
from latkit.lattice import (
    FiniteQuadraticForm, IntegralLattice, direct_sum, discriminant_group, fqf_isomorphic,
    invariant_factors, make_lattice, rescale,
)
from latkit.ratmat import det, identity, int_kernel, inverse, mat_mul, transpose


# --- the oracles ----------------------------------------------------------

def ref_fqf_isomorphic(f1, f2):
    """The Fraction search over fqf_ref's q_of and b_of, with its budget,
    for orders up to 4096; returns (witness or None, candidate images
    tried)."""
    assert f1.order <= 4096
    if f1.order != f2.order:
        return None, 0
    if sorted(f1.invariant_factors) != sorted(f2.invariant_factors):
        return None, 0
    m1 = sorted((element_order(f1, e), q_of(f1, e)) for e in elements(f1))
    m2 = sorted((element_order(f2, e), q_of(f2, e)) for e in elements(f2))
    if m1 != m2:
        return None, 0
    k = len(f1.invariant_factors)
    q1 = [f1.q_values[i] % 2 for i in range(k)]
    b1 = [[f1.b_matrix[i][j] % 1 for j in range(k)] for i in range(k)]
    pool = [(e, element_order(f2, e), q_of(f2, e)) for e in elements(f2)]
    assigned = []
    nodes = 0

    def backtrack(i):
        nonlocal nodes
        if i == k:
            return ref_generated_order(f2, assigned) == f2.order
        for cand, o, q in pool:
            nodes += 1
            if nodes > lattice.NODE_BUDGET:
                raise CapExceeded("past %d nodes" % lattice.NODE_BUDGET)
            if o != f1.invariant_factors[i] or q != q1[i]:
                continue
            if any(b_of(f2, cand, prev) != b1[i][j] for j, prev in enumerate(assigned)):
                continue
            if b_of(f2, cand, cand) % 1 != b1[i][i]:
                continue
            assigned.append(cand)
            if backtrack(i + 1):
                return True
            assigned.pop()
        return False

    return (tuple(assigned) if backtrack(0) else None), nodes


def ref_generated_order(f, images):
    seen = {(0,) * len(f.invariant_factors)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for img in images:
                y = tuple((a + b) % d for a, b, d in zip(x, img, f.invariant_factors))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen)


def is_witness(f1, f2, wit):
    """The images have f1's orders, q and b values, and generate f2."""
    k = len(f1.invariant_factors)
    return (len(wit) == k
            and all(element_order(f2, x) == d for x, d in zip(wit, f1.invariant_factors))
            and all(q_of(f2, wit[i]) == f1.q_values[i] % 2 for i in range(k))
            and all(b_of(f2, wit[i], wit[j]) == f1.b_matrix[i][j] % 1
                    for i in range(k) for j in range(k))
            and ref_generated_order(f2, wit) == f2.order)


def ref_group_closure(gens, cap=10000):
    """Breadth-first closure over the generators and their inverses."""
    lat = gens[0].lattice
    gens = list(gens) + [iso_inverse(g) for g in gens]
    n = lat.rank
    ident = tuple(tuple(identity(n)[i]) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = tuple(tuple(r) for r in mat_mul([list(r) for r in m], g.matrix))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise CapExceeded("cap %d" % cap)
                    new.append(prod)
        frontier = new
    return tuple(sorted(seen))


def ref_disc_action_trivial(m, fqf):
    """M x - x integral for every generator lift x, on Fractions."""
    return all(Fraction(sum(a * y for a, y in zip(row, x)) - xi).denominator == 1
               for x in fqf.generator_lifts for row, xi in zip(m, x))


def ref_invariant_rows(lat, elements):
    """int_kernel of M - I stacked over every element of the closure.
    int_kernel takes one Hermite form of the transposed stack, so the
    1,536 x 4 stack of the hyperoctahedral group costs a 4-row form."""
    n = lat.rank
    stacked = [[m[i][j] - (i == j) for j in range(n)] for m in elements for i in range(n)]
    return int_kernel(stacked)


# --- seeded forms -----------------------------------------------------------

def unimodular(rng, n):
    u = identity(n)
    for _ in range(3 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
    rng.shuffle(u)
    return u


def conjugate(rng, gram):
    u = unimodular(rng, len(gram))
    return mat_mul(mat_mul(u, gram), transpose(u))


def two_bbt(rng, n, det_range):
    """2 B B^T for B with entries in {-1, 0, 1} and |det B| in det_range."""
    while True:
        b = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if abs(det(b)) in det_range:
            return mat_mul([[2 * x for x in row] for row in b], transpose(b))


def seeded_pairs():
    """(label, f1, f2): isomorphic pairs (a Gram matrix against a unimodular
    conjugate), sign flips, pairs of unrelated lattices of equal order, and
    the catalog's forms; 60 in all, every order at most 4096."""
    rng = random.Random(20)
    pairs = []

    def add(label, g1, g2):
        pairs.append((label, discriminant_group(make_lattice(g1)),
                      discriminant_group(make_lattice(g2))))

    for t in range(20):
        n = rng.choice((2, 3, 4, 5))
        g = two_bbt(rng, n, range(1, 4) if n == 5 else range(1, 6))
        add("2BB^T/conjugate/%d" % t, g, conjugate(rng, g))
    # orders 1,024 to 4,096, from their own seed: the first runs out of
    # budget, the next two need over 10,000 nodes
    large = random.Random(5)
    for t, (n, dets) in enumerate(((6, (4,)), (6, (4,)), (5, (6,)), (4, (16,)))):
        g = two_bbt(large, n, dets)
        add("2BB^T/large/%d" % t, g, conjugate(large, g))
    for t in range(8):
        g = two_bbt(rng, rng.choice((2, 3, 4)), range(1, 5))
        add("2BB^T/negated/%d" % t, g, [[-x for x in row] for row in conjugate(rng, g)])
    for t in range(8):
        n = rng.choice((2, 3, 4))
        g = two_bbt(rng, n, (1, 2, 3))
        while True:
            h = two_bbt(rng, n, (1, 2, 3))
            if abs(det(h)) == abs(det(g)):
                break
        add("2BB^T/unrelated/%d" % t, g, h)
    roots = [std_gram("A", 2), std_gram("A", 4), std_gram("A", 6),
             rescale(std_gram("A", 2), 2), std_gram("A", 1), std_gram("A", 3)]
    for t in range(16):
        g = direct_sum(rng.sample(roots, rng.choice((1, 2, 3)))).gram
        if t % 2:
            add("roots/negated/%d" % t, g, [[-x for x in row] for row in conjugate(rng, g)])
        else:
            add("roots/conjugate/%d" % t, g, conjugate(rng, g))
    a4 = std_gram("A", 4).gram
    a4m = rescale(std_gram("A", 4), -1).gram
    add("A4/A4(-1)", a4, a4m)
    add("A4+A4/A4(-1)+A4(-1)", direct_sum([std_gram("A", 4)] * 2).gram,
        direct_sum([rescale(std_gram("A", 4), -1)] * 2).gram)
    add("U(2)^3/U(2)^3", u2_cubed().gram, conjugate(rng, u2_cubed().gram))
    pairs.append(("nikulin/U(2)^3", discriminant_group(build_nikulin()[0]),
                  discriminant_group(u2_cubed())))
    return pairs


PAIRS = seeded_pairs()
F5 = Fraction(1, 5)
PINNED = FiniteQuadraticForm(
    (5, 5, 5, 5), (), (2 * F5, 0, 2 * F5, 0),
    ((2 * F5, 0, F5, 4 * F5), (0, 0, 3 * F5, F5), (F5, 3 * F5, 2 * F5, F5),
     (4 * F5, F5, F5, 0)))
OTHER = FiniteQuadraticForm(
    (5, 5, 5, 5), (), (2 * F5, 2 * F5, 2 * F5, 4 * F5),
    tuple(tuple((2 * F5, 2 * F5, 2 * F5, 4 * F5)[i] if i == j else 0 for j in range(4))
          for i in range(4)))


@functools.lru_cache(maxsize=None)
def ref_outcome(f1, f2):
    """(witness, None or "cap", nodes) of the oracle."""
    try:
        wit, nodes = ref_fqf_isomorphic(f1, f2)
    except CapExceeded:
        return None, "cap", lattice.NODE_BUDGET + 1
    return wit, None, nodes


def assert_same_search(f1, f2, monkeypatch):
    """Both searches give the same witness, None or CapExceeded, after the
    same number of candidate images; returns the oracle's outcome."""
    want, cap, nodes = ref_outcome(f1, f2)
    if cap:
        with pytest.raises(CapExceeded):
            fqf_isomorphic(f1, f2)
        return want, cap, nodes
    got = fqf_isomorphic(f1, f2)
    assert got == want
    if want is not None:
        assert is_witness(f1, f2, got)
    if nodes == 0:
        # the prune rejected the pair before any candidate; a search that
        # skipped it would run past a budget of just the order
        with monkeypatch.context() as m:
            m.setattr(lattice, "NODE_BUDGET", f1.order)
            assert fqf_isomorphic(f1, f2) is None
    # enough at the oracle's count, and one short raises (where the order
    # alone does not trip the up-front check)
    if nodes - 1 >= f1.order:
        with monkeypatch.context() as m:
            m.setattr(lattice, "NODE_BUDGET", nodes)
            assert fqf_isomorphic(f1, f2) == want
            m.setattr(lattice, "NODE_BUDGET", nodes - 1)
            with pytest.raises(CapExceeded):
                fqf_isomorphic(f1, f2)
    return want, cap, nodes


def test_seeded_pairs_cover_every_outcome():
    assert len(PAIRS) == 60
    assert all(f1.order <= 4096 for _, f1, _ in PAIRS)
    outcomes = [ref_outcome(f1, f2) for _, f1, f2 in PAIRS]
    assert sum(wit is not None for wit, _, _ in outcomes) >= 30
    assert sum(wit is None and not cap for wit, cap, _ in outcomes) >= 10
    assert any(cap for _, cap, _ in outcomes)
    assert any(wit is not None and nodes > 10000 for wit, _, nodes in outcomes)


@pytest.mark.parametrize("label,f1,f2", PAIRS, ids=[p[0] for p in PAIRS])
def test_fqf_isomorphic_matches_fraction_search(label, f1, f2, monkeypatch):
    assert_same_search(f1, f2, monkeypatch)


def test_catalog_forms_match_fraction_search(L_disc, monkeypatch):
    nik = discriminant_group(build_nikulin()[0])
    u2 = discriminant_group(u2_cubed())
    assert assert_same_search(nik, u2, monkeypatch)[2] == 265
    assert assert_same_search(L_disc, PINNED, monkeypatch)[0] is not None
    assert assert_same_search(L_disc, L_disc, monkeypatch)[0] is not None
    assert assert_same_search(L_disc, OTHER, monkeypatch)[0] is None


def test_fqf_checks_beyond_q_on_hand_built_forms(monkeypatch):
    # On a discriminant form b(x, x) = q(x) mod 1 and b is nondegenerate,
    # so the self-pairing and generation checks never decide; on these
    # hand-built forms on (Z/2)^2 they do.
    half = Fraction(1, 2)
    u = FiniteQuadraticForm((2, 2), (), (0, 0), ((0, half), (half, 0)))
    # q agrees with u elementwise, but b(gen_0, gen_0) = 1/2 != q = 0
    skew = FiniteQuadraticForm((2, 2), (), (0, 0), ((half, half), (half, half)))
    assert assert_same_search(skew, u, monkeypatch)[0] is None
    # b = 0: images with the right q and b need not generate
    flat = FiniteQuadraticForm((2, 2), (), (0, 0), ((0, 0), (0, 0)))
    assert assert_same_search(flat, flat, monkeypatch)[0] == ((0, 1), (1, 0))


def large_pairs():
    """Seeded 2 B B^T forms of rank 7 and order 4,097 to 40,000 against a
    unimodular conjugate: isomorphic, so None is always wrong."""
    rng = random.Random(7)
    out = []
    while len(out) < 8:
        g = two_bbt(rng, 7, range(6, 18))
        f1 = discriminant_group(make_lattice(g))
        if 4096 < f1.order <= 40000:
            out.append((f1, discriminant_group(make_lattice(conjugate(rng, g)))))
    return out


def test_fqf_isomorphic_above_4096_never_wrong():
    found = 0
    for f1, f2 in large_pairs():
        try:
            wit = fqf_isomorphic(f1, f2)
        except CapExceeded:
            continue
        assert wit is not None and is_witness(f1, f2, wit)
        found += 1
    assert found >= 1


def test_fqf_order_past_budget_raises_up_front(monkeypatch):
    f = discriminant_group(u2_cubed())
    monkeypatch.setattr(lattice, "NODE_BUDGET", 63)
    with pytest.raises(CapExceeded, match="order 64"):
        fqf_isomorphic(f, f)
    # unequal orders and factors are still answered, whatever the budget
    assert fqf_isomorphic(f, discriminant_group(std_gram("A", 2))) is None


# --- isometry groups ---------------------------------------------------------

def reflection(lat, root):
    """x -> x - (root . x) root for a norm-2 root, on columns."""
    g_root = [sum(g * r for g, r in zip(row, root)) for row in lat.gram]
    n = lat.rank
    return make_isometry(lat, [[(i == j) - root[i] * g_root[j] for j in range(n)]
                               for i in range(n)])


def signed_permutation(lat, perm, signs):
    n = lat.rank
    return make_isometry(lat, [[signs[j] if perm[j] == i else 0 for j in range(n)]
                               for i in range(n)])


def group_cases(L):
    cases = []
    a2 = std_gram("A", 2)
    rot = make_isometry(a2, [[0, -1], [1, -1]])
    swap = make_isometry(a2, [[0, 1], [1, 0]])
    minus = make_isometry(a2, [[-1, 0], [0, -1]])
    cases += [("A2/rot", [rot], 3), ("A2/swap", [swap], 2),
              ("A2/weyl", [reflection(a2, [1, 0]), reflection(a2, [0, 1])], 6),
              ("A2/aut", [rot, swap, minus], 12)]
    d4 = make_lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    simple = [reflection(d4, [int(i == j) for j in range(4)]) for i in range(4)]
    cases += [("D4/weyl", simple, 192), ("D4/s1s3s4", [simple[0], simple[2], simple[3]], 8),
              ("D4/s1s2", simple[:2], 6), ("D4/s2", simple[1:2], 2)]
    z4 = make_lattice([[2 * (i == j) for j in range(4)] for i in range(4)])
    cycle = signed_permutation(z4, [1, 2, 3, 0], [1, 1, 1, 1])
    flip = signed_permutation(z4, [0, 1, 2, 3], [-1, 1, 1, 1])
    transp = signed_permutation(z4, [1, 0, 2, 3], [1, 1, 1, 1])
    neg_swap = signed_permutation(z4, [1, 0, 2, 3], [-1, -1, 1, 1])
    cases += [("2Z4/hyperoctahedral", [cycle, transp, flip], 384),
              ("2Z4/cycle", [cycle], 4), ("2Z4/transp+flip", [transp, flip], 8),
              ("2Z4/neg-swap+cycle", [neg_swap, cycle], None)]
    z3 = make_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    cases += [("2Z3/signed", [signed_permutation(z3, [1, 2, 0], [-1, 1, 1])], 6)]
    g, h = L.isometries["g"], L.isometries["h"]
    cases += [("L/g", [g], 5), ("L/h", [h], 2), ("L/gh", [g, h], 10)]
    return cases


def test_closures_and_invariants_match_oracle(L, L_disc):
    trivial = set()
    for label, gens, order in group_cases(L[0]):
        lat = gens[0].lattice
        want = ref_group_closure(gens)
        got = group_closure(gens)
        assert got.elements == want, label
        if order is not None:
            assert got.order == order, label
        assert invariant_sublattice(lat, gens)[1] == ref_invariant_rows(lat, want), label
        fqf = L_disc if lat == L[0].lattice else discriminant_group(lat)
        for m in want:
            ref = ref_disc_action_trivial(m, fqf)
            assert disc_action_trivial(lat, Isometry(lat, m)) == ref, label
            trivial.add(ref)
    assert trivial == {True, False}


def test_md5_block_swap_moves_discriminant_classes():
    # swapping the two A4(-1) blocks of M_D5 swaps the two Z/5 factors of
    # its discriminant group, so some class moves
    md5 = build_MD5(build_nikulin()[0])
    perm = list(range(4, 8)) + list(range(4)) + list(range(8, 16))
    swap = make_isometry(md5, [[int(perm[j] == i) for j in range(16)] for i in range(16)])
    assert ref_disc_action_trivial(swap.matrix, discriminant_group(md5)) is False
    assert disc_action_trivial(md5, swap) is False


def test_invariant_ranks():
    # the oracle comparison would pass on a kernel that ignores some
    # generator only if both did; pin a few ranks by hand
    d4 = make_lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    s1, s3 = reflection(d4, [1, 0, 0, 0]), reflection(d4, [0, 0, 1, 0])
    assert len(invariant_sublattice(d4, [s1])[1]) == 3
    assert len(invariant_sublattice(d4, [s1, s3])[1]) == 2
    z4 = make_lattice([[2 * (i == j) for j in range(4)] for i in range(4)])
    cycle = signed_permutation(z4, [1, 2, 3, 0], [1, 1, 1, 1])
    assert invariant_sublattice(z4, [cycle])[1] == [[1, 1, 1, 1]]
    assert invariant_sublattice(z4, [])[1] == identity(4)


def test_infinite_group_hits_cap(monkeypatch):
    # x -> 3x + 4y, y -> 2x + 3y preserves 2x^2 - 4y^2 and has infinite order
    lat = make_lattice([[2, 0], [0, -4]])
    pell = make_isometry(lat, [[3, 4], [2, 3]])
    with pytest.raises(CapExceeded):
        ref_group_closure([pell], cap=500)
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 500)
    with pytest.raises(CapExceeded):
        group_closure([pell])
    with pytest.raises(CapExceeded):
        order(pell)


def test_order_matches_a_power_loop(L, monkeypatch):
    # order is the size of group_closure of one element: against the least
    # k with M^k = I by dense powers, on every element of <g, h>, and under
    # a CLOSURE_BUDGET at and below the order of g
    lat = L[0].lattice
    g, h = L[0].isometries["g"], L[0].isometries["h"]
    one = identity(lat.rank)
    orders = []
    for m in ref_group_closure([g, h]):
        power, k = [list(r) for r in m], 1
        while power != one:
            assert k < 10
            power, k = dense_product(power, m), k + 1
        assert order(Isometry(lat, m)) == k
        orders.append(k)
    assert sorted(orders) == [1] + [2] * 5 + [5] * 4
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 5)
    assert order(g) == 5
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 4)
    with pytest.raises(CapExceeded, match="cap 4"):
        order(g)
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 1)
    with pytest.raises(CapExceeded, match="cap 1"):
        order(h)


def dense_product(a, b):
    """The product as sums of termwise products over every entry."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_product_matches_mat_mul(L):
    # Isometry products (mat_mul over nonzeros) against the dense product:
    # every pair of elements of <g, h>, and the whole closure against the
    # dense oracle's
    lat = L[0].lattice
    g, h = L[0].isometries["g"], L[0].isometries["h"]
    closure = group_closure([g, h])
    assert closure.elements == ref_group_closure([g, h])
    elements = [Isometry(lat, m) for m in closure.elements]
    for a in elements:
        for b in elements:
            prod = a * b
            assert isinstance(prod, Isometry)
            assert prod.matrix == tuple(map(tuple, dense_product(a.matrix, b.matrix)))
    with pytest.raises(IsometryError):
        g * make_isometry(make_lattice([[2]]), [[1]])


def test_sparse_product_on_zero_rows_and_cancelling_entries():
    # random unimodular U against U^-1 (every off-diagonal entry cancels),
    # and both against copies with zeroed rows and columns
    rng = random.Random(37)
    for case in range(120):
        n = rng.randint(1, 9)
        u = unimodular(rng, n)
        u_inv = [[int(x) for x in row] for row in inverse(u)]
        assert mat_mul(u, u_inv) == identity(n)
        holed = [row if rng.random() < 0.6 else [0] * n for row in u]
        holed = [[x if j % 3 != case % 3 else 0 for j, x in enumerate(row)]
                 for row in holed]
        for a, b in ((u, u_inv), (holed, u), (u_inv, holed), (holed, holed)):
            got = mat_mul(a, b)
            assert got == dense_product(a, b)
            assert all(type(x) is int for row in got for x in row)
            # an isometry's tuple rows give the same product
            assert mat_mul(tuple(map(tuple, a)), tuple(map(tuple, b))) == got


# --- the Smith form, shared and read without an inverse ----------------------

def test_disc_action_trivial_on_more_lattices(L, L_disc):
    # rank 0, E8 (unimodular: every isometry acts trivially), M_D5 (factors
    # 2, 2, 2, 2, 10, 10) and L under -I, g, h and g h, against the
    # Fraction oracle on discriminant_group's lifts
    zero = make_lattice([])
    cases = [(zero, make_isometry(zero, []), True)]
    e8 = std_gram("E8")
    minus8 = make_isometry(e8, [[-(i == j) for j in range(8)] for i in range(8)])
    cases += [(e8, reflection(e8, [int(i == k) for i in range(8)]), True) for k in range(8)]
    cases += [(e8, minus8, True)]
    md5 = build_MD5(build_nikulin()[0])
    assert invariant_factors(md5) == (2, 2, 2, 2, 10, 10)
    minus16 = [[-(i == j) for j in range(16)] for i in range(16)]
    root = [0] * 16
    root[5] = 1   # a root of the second A4(-1), of norm -2: x -> x + (x, r) r
    g_root = [sum(a * r for a, r in zip(row, root)) for row in md5.gram]
    s_root = [[(i == j) + root[i] * g_root[j] for j in range(16)] for i in range(16)]
    cases += [(md5, make_isometry(md5, minus16), False),
              (md5, make_isometry(md5, s_root), True)]
    g, h = L[0].isometries["g"], L[0].isometries["h"]
    lat = L[0].lattice
    cases += [(lat, make_isometry(lat, minus16), False), (lat, g, True), (lat, h, True),
              (lat, g * h, True)]
    for lat_, iso, want in cases:
        fqf = L_disc if lat_ is lat else discriminant_group(lat_)
        assert ref_disc_action_trivial(iso.matrix, fqf) is want
        assert disc_action_trivial(lat_, iso) is want


def test_smith_runs_snf_once(monkeypatch):
    calls = []
    snf = lattice.snf
    monkeypatch.setattr(lattice, "snf", lambda g: calls.append(1) or snf(g))
    md5 = build_MD5(build_nikulin()[0])
    first = md5.smith
    assert md5.smith is first and len(calls) == 1
    assert first == tuple(tuple(map(tuple, m)) for m in snf(md5.gram))
    assert invariant_factors(md5) == (2, 2, 2, 2, 10, 10)
    swap = make_isometry(md5, [[int(j == (i + 4) % 8 if i < 8 else i == j)
                                for j in range(16)] for i in range(16)])
    assert disc_action_trivial(md5, swap) is False and len(calls) == 1


def test_dihedral_relation_needs_no_inverse(L):
    # g h g = h against h g h^-1 g = 1 on all 100 ordered pairs from <g, h>
    # and under the faults that replace h or g by -I
    c = L[0]
    lat = c.lattice
    elements = [Isometry(lat, m) for m in group_closure([c.isometries["g"],
                                                          c.isometries["h"]]).elements]
    seen = set()
    for x in elements:
        for y in elements:
            new = (x * y * x).matrix == y.matrix
            assert new == is_identity(y * x * iso_inverse(y) * x)
            seen.add(new)
    assert seen == {True, False}
    for fault, want in (("h-minus-one", False), ("g-minus-one", True)):
        faulty = catalog.FAULTS[fault]["L"](None)
        g, h = faulty.isometries["g"], faulty.isometries["h"]
        assert is_identity(h * g * iso_inverse(h) * g) is want
        assert catalog._dihedral_relation(faulty) is want
    assert catalog._dihedral_relation(c) is True


def test_make_isometry_refuses_a_degenerate_lattice():
    # M^T G M = G proves |det M| = 1 only when det G != 0: on this G the
    # matrix with columns (3, -2) and (1, 0) keeps the Gram form at det 2
    lat = IntegralLattice(((1, 1), (1, 1)))
    for m in ([[1, 0], [0, 1]], [[3, 1], [-2, 0]]):
        with pytest.raises(IsometryError, match="degenerate"):
            make_isometry(lat, m)
