"""The integer overlattice, build_L and reflection_in_span against the
Fraction versions they replaced, kept here as oracles: equal results on
the catalog's constructions and on seeded random gluings, and the same
error text on each failing branch."""

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from fqf_ref import b_of, q_of
from latkit import catalog
from latkit.catalog import (
    CatalogError, NamedConstruction, build_L, build_nikulin, reflection_in_span,
    std_gram,
)
from latkit.isometry import make_isometry
from latkit.lattice import (
    GlueError, LatticeError, direct_sum, discriminant_group,
    make_lattice, orthogonal_complement, overlattice, rescale, sublattice,
)
from latkit.ratmat import (
    det, divide_exact, hnf_int, inverse, mat_mul, mat_vec, scaled_inverse, to_int,
    transpose,
)


# --- the Fraction oracles -------------------------------------------------

def is_integral(x):
    """True when every entry of x (a number or nested lists of them) is an
    integer."""
    if isinstance(x, (list, tuple)):
        return all(is_integral(y) for y in x)
    return Fraction(x).denominator == 1


def det_index(lat, new_lat):
    """[L' : L] from determinants: its square is det L / det L'."""
    ratio = Fraction(lat.det, new_lat.det)
    idx = isqrt(ratio.numerator)
    assert ratio.denominator == 1 and idx * idx == ratio.numerator
    return idx


def ref_hnf_rowspan(mat):
    d = 1
    for row in mat:
        for x in row:
            d = lcm(d, Fraction(x).denominator)
    h = hnf_int([[to_int(Fraction(x) * d) for x in row] for row in mat])
    return [[Fraction(x, d) for x in row] for row in h]


def ref_overlattice(lat, glue):
    n = lat.rank
    vecs = [[Fraction(x) for x in g] for g in glue]
    for k, w in enumerate(vecs):
        if len(w) != n:
            raise GlueError("glue vector %d has wrong length" % k)
        pair_rows = mat_vec(lat.gram, w)
        for i, p in enumerate(pair_rows):
            if Fraction(p).denominator != 1:
                raise GlueError(
                    "glue vector %d pairs non-integrally with basis vector %d "
                    "(value %s)" % (k, i, p))
        self_pair = lat.pairing(w, w)
        if Fraction(self_pair).denominator != 1 or to_int(Fraction(self_pair)) % 2 != 0:
            raise GlueError(
                "glue vector %d has self-pairing %s not in 2Z" % (k, self_pair))
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            p = lat.pairing(vecs[a], vecs[b])
            if Fraction(p).denominator != 1:
                raise GlueError(
                    "glue vectors %d and %d pair non-integrally (value %s)"
                    % (a, b, p))
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)] + vecs
    basis = ref_hnf_rowspan(rows)
    if len(basis) != n:
        raise GlueError("glue vectors do not preserve the rank")
    new_gram = mat_mul(mat_mul(basis, lat.gram), transpose(basis))
    new_lat = make_lattice(new_gram)
    return new_lat, det_index(lat, new_lat), basis


def _ref_to_new_basis(p_inv, vec, what):
    y = mat_vec(p_inv, list(vec))
    if not is_integral(y):
        raise CatalogError("%s does not lie in the overlattice" % what)
    return tuple(to_int(x) for x in y)


def _ref_conjugate_isometry(lat, p, p_inv, m, what):
    rows = mat_mul(mat_mul(p_inv, m), p)
    if not is_integral(rows):
        raise CatalogError("%s does not extend integrally to the overlattice" % what)
    return make_isometry(lat, [[to_int(x) for x in r] for r in rows])


def ref_build_L(nu_override=None, glue_count=8):
    """The Fraction build_L; glue_count < 8 glues only the first vectors
    of the orbit, to reach the membership error."""
    base = direct_sum([rescale(std_gram("A", 4), -2)] * 4)
    g_base = catalog._block_diag([catalog._gamma4()] * 4)
    mu = list(catalog.MU_BASE)
    nu = list(nu_override if nu_override is not None else catalog.NU_BASE)

    orbit = []
    for v in (mu, nu):
        cur = v
        for _ in range(4):
            orbit.append(cur)
            cur = mat_vec(g_base, cur)
    lat, index, basis = ref_overlattice(base, orbit[:glue_count])

    p = transpose(basis)
    p_inv = inverse(p)
    g = _ref_conjugate_isometry(lat, p, p_inv, g_base, "g")
    h_base = catalog._block_diag([catalog._eta4()] * 4)
    h = _ref_conjugate_isometry(lat, p, p_inv, h_base, "h")

    base_vectors = {"mu": tuple(mu), "nu": tuple(nu)}
    cur_mu, cur_nu = mu, nu
    for i in range(1, 4):
        cur_mu = mat_vec(g_base, cur_mu)
        cur_nu = mat_vec(g_base, cur_nu)
        base_vectors["g%d(mu)" % i] = tuple(cur_mu)
        base_vectors["g%d(nu)" % i] = tuple(cur_nu)

    def gpow(v, k):
        for _ in range(k):
            v = mat_vec(g_base, v)
        return v

    def basis_vec(copy, idx):
        v = [Fraction(0)] * 16
        v[4 * copy + idx] = Fraction(1)
        return v

    def add(*vs):
        out = [Fraction(0)] * 16
        for v in vs:
            out = [a + b for a, b in zip(out, v)]
        return out

    def neg(v):
        return [-x for x in v]

    e = [None] * 9
    e[1] = list(mu)
    e[2] = add(gpow(mu, 2), gpow(mu, 3))
    e[3] = list(nu)
    e[4] = add(mu, gpow(mu, 2), gpow(mu, 3), neg(gpow(nu, 2)), neg(gpow(nu, 3)))
    e[5] = basis_vec(0, 0)
    e[6] = add(basis_vec(0, 2), basis_vec(0, 3))
    e[7] = basis_vec(1, 0)
    e[8] = add(basis_vec(1, 2), basis_vec(1, 3))
    for i in range(1, 9):
        base_vectors["e%d" % i] = tuple(e[i])
        base_vectors["f%d" % (i + 8)] = tuple(mat_vec(g_base, e[i]))

    vectors = {name: _ref_to_new_basis(p_inv, v, name)
               for name, v in base_vectors.items()}
    return NamedConstruction(
        lattice=lat, base_lattice=base, vectors=vectors, base_vectors=base_vectors,
        isometries={"g": g, "h": h}, index=index,
    ), index


def ref_reflection_in_span(lat, span_rows):
    comp, comp_rows = orthogonal_complement(lat, span_rows)
    cols = transpose(list(span_rows) + list(comp_rows))
    n = lat.rank
    diag = [[(-1 if i == j and i < len(span_rows) else (1 if i == j else 0))
             for j in range(n)] for i in range(n)]
    m = mat_mul(mat_mul(cols, diag), inverse(cols))
    if not is_integral(m):
        raise CatalogError("reflection is not integral on the lattice")
    return [[to_int(x) for x in r] for r in m]


def _outcome(fn, *args):
    """fn's result, or (error type, message) when it raises LatticeError."""
    try:
        return fn(*args)
    except LatticeError as exc:
        return type(exc), str(exc)


# --- the catalog's constructions ------------------------------------------

def _e8_from_d8():
    # D8 = even-sum sublattice of Z^8 glued by (1/2, ..., 1/2)
    rows = [[1 if j == i else (-1 if j == i + 1 else 0) for j in range(8)]
            for i in range(7)]
    rows.append([1 if j in (6, 7) else 0 for j in range(8)])
    base = sublattice(make_lattice([[int(i == j) for j in range(8)] for i in range(8)]),
                      rows)
    glue = mat_vec(inverse(transpose(rows)), [Fraction(1, 2)] * 8)
    return base, [glue]


def test_L_matches_fraction_oracle(L):
    c, index = L
    ref, ref_index = ref_build_L()
    assert index == ref_index == 256
    assert c == ref
    for field in ("lattice", "index", "vectors", "base_vectors", "isometries"):
        assert getattr(c, field) == getattr(ref, field), field
    assert list(c.vectors) == list(ref.vectors)
    assert all(type(x) is int for v in c.vectors.values() for x in v)
    assert all(type(x) is Fraction for v in c.base_vectors.values() for x in v)
    # the basis build_L reads off its gluing, against the oracle's
    glue = [c.base_vectors[v] for v in ("mu", "g1(mu)", "g2(mu)", "g3(mu)",
                                        "nu", "g1(nu)", "g2(nu)", "g3(nu)")]
    got = overlattice(c.base_lattice, glue)
    assert got == ref_overlattice(c.base_lattice, glue)
    assert got[:2] == (c.lattice, index)
    assert all(type(x) is Fraction for row in got[2] for x in row)


def test_nikulin_and_e8_match_fraction_oracle():
    nik, index = build_nikulin()
    base = direct_sum([rescale(std_gram("A", 1), -1)] * 8)
    glue = [[Fraction(1, 2)] * 8]
    ref = ref_overlattice(base, glue)
    assert overlattice(base, glue) == ref
    assert (nik, index) == ref[:2]
    base, glue = _e8_from_d8()
    got = overlattice(base, glue)
    assert got == ref_overlattice(base, glue)
    assert got[1] == 2 and abs(got[0].det) == 1


def test_index_matches_determinant_ratio(L):
    # overlattice reads the index off its Hermite pivots; check it against
    # determinants on L, the Nikulin lattice, E8 from D8, and glues with
    # denominators 3 and 5 in indefinite unimodular gluings
    c, index = L
    assert index == det_index(c.base_lattice, c.lattice) == 256
    nik, index = build_nikulin()
    assert index == det_index(direct_sum([rescale(std_gram("A", 1), -1)] * 8), nik) == 2
    a2, a4 = std_gram("A", 2), std_gram("A", 4)
    w1 = [Fraction(x, 5) for x in (4, 3, 2, 1)]  # A4's first fundamental weight
    cases = [
        (_e8_from_d8(), 2),
        ((direct_sum([a2, rescale(a2, -1)]),
          [[Fraction(1, 3), Fraction(2, 3)] * 2]), 3),
        ((direct_sum([a4, rescale(a4, -1)]), [w1 * 2]), 5),
    ]
    for (lat, glue), want in cases:
        new_lat, index, _ = overlattice(lat, glue)
        assert index == det_index(lat, new_lat) == want
        assert abs(new_lat.det) == 1 and new_lat.is_even


def test_reflection_matches_fraction_oracle(L):
    c, _ = L
    for rows in ([c.vectors["e%d" % i] for i in range(1, 9)],
                 [c.vectors["f%d" % i] for i in range(9, 17)]):
        assert reflection_in_span(c.lattice, rows) == ref_reflection_in_span(c.lattice, rows)
    # random spans in small even lattices: integral reflections and
    # CatalogErrors, each the same as the oracle's
    rng = random.Random(41)
    seen = set()
    for _ in range(40):
        lat = _random_even_lattice(rng, rng.randint(2, 5))
        k = rng.randint(1, lat.rank - 1)
        rows = [[rng.randint(-2, 2) for _ in range(lat.rank)] for _ in range(k)]
        got = _outcome(reflection_in_span, lat, rows)
        assert got == _outcome(ref_reflection_in_span, lat, rows)
        seen.add(type(got) is tuple)
    assert seen == {True, False}


# --- seeded random gluings --------------------------------------------------

def _random_even_lattice(rng, n):
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[2 * sum(x * y for x, y in zip(r, s)) for s in b] for r in b]
        try:
            return make_lattice(g)
        except LatticeError:
            continue


def _isotropic_glue(rng, lat):
    """Up to three mutually orthogonal isotropic elements of the
    discriminant form, lifted with a random lattice vector added."""
    f = discriminant_group(lat)
    chosen = []
    for _ in range(30):
        c = tuple(rng.randrange(d) for d in f.invariant_factors)
        if q_of(f, c) or any(b_of(f, c, prev) for prev in chosen):
            continue
        chosen.append(c)
        if len(chosen) == 3:
            break
    glue = []
    for c in chosen:
        v = [sum(ci * lift[j] for ci, lift in zip(c, f.generator_lifts))
             + rng.randint(-3, 3) for j in range(lat.rank)]
        glue.append(v)
    return glue


def _half_vector_glue(rng):
    """A sum of A_n(-2) and up to four half-vectors v / 2 with v in {0, 1}^n,
    kept only when the gluing conditions hold for the set so far."""
    ranks = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
    lat = direct_sum([rescale(std_gram("A", r), -2) for r in ranks])
    glue = []
    for _ in range(40):
        v = [Fraction(rng.randint(0, 1), 2) for _ in range(lat.rank)]
        if lat.pairing(v, v) % 2 or any(lat.pairing(v, w) % 1 for w in glue):
            continue
        glue.append(v)
        if len(glue) == 4:
            break
    return lat, glue


def test_random_gluings_match_fraction_oracle():
    rng = random.Random(2024)
    cases = []
    for _ in range(25):
        lat = _random_even_lattice(rng, rng.randint(1, 6))
        cases.append((lat, _isotropic_glue(rng, lat)))
    cases += [_half_vector_glue(rng) for _ in range(25)]
    glued = 0
    for lat, glue in cases:
        got = overlattice(lat, glue)
        assert got == ref_overlattice(lat, glue)
        assert got[0].rank == lat.rank
        glued += got[1] > 1
    assert glued >= 30


# --- failing inputs: the same error text ----------------------------------

def test_glue_errors_match_fraction_oracle():
    a1 = std_gram("A", 1)
    a2 = std_gram("A", 2)
    basis, self_, mutual, length = (
        "pairs non-integrally with basis", "has self-pairing", "pair non-integrally (",
        "has wrong length")
    cases = [
        (a1, [[Fraction(1, 3)]], basis),
        (a2, [[1, 0], [Fraction(1, 3), Fraction(1, 3)]], basis),
        (make_lattice([[4]]), [[Fraction(1, 2)]], self_),
        (a2, [[Fraction(1, 3), Fraction(2, 3)]], self_),
        (rescale(std_gram("A", 1), -1), [[0], [Fraction(1, 2)]], self_),
        # each glue vector is fine alone; their pairing 1/2 is a multiple
        # of 1/d but not an integer
        (make_lattice([[8, 2], [2, 8]]), [[Fraction(1, 2), 0], [0, Fraction(1, 2)]], mutual),
        (make_lattice([[8, 0], [0, 8]]), [[Fraction(1, 2), 0], [0, Fraction(1, 2)],
                                          [Fraction(1, 4), Fraction(1, 4)]], self_),
        # wrong length, after the checks of earlier vectors
        (a1, [[Fraction(1, 2), Fraction(0)]], length),
        (a2, [[1, 0], [Fraction(1, 3)]], length),
    ]
    for lat, glue, kind in cases:
        with pytest.raises(GlueError) as got:
            overlattice(lat, glue)
        with pytest.raises(GlueError) as want:
            ref_overlattice(lat, glue)
        assert str(got.value) == str(want.value)
        assert kind in str(got.value)
    # The rank-loss branch cannot fire: the rows [d I ; W] contain d I.


def test_build_L_errors_match_fraction_oracle(monkeypatch):
    nu = list(catalog.NU_BASE)
    nu[4] = Fraction(1, 3)
    with pytest.raises(GlueError) as got:
        build_L(nu_override=nu)
    with pytest.raises(GlueError) as want:
        ref_build_L(nu_override=nu)
    assert str(got.value) == str(want.value)

    # membership: glue only the g-orbit of mu, so nu is not in the lattice
    real = catalog.overlattice
    monkeypatch.setattr(catalog, "overlattice", lambda base, glue: real(base, glue[:4]))
    with pytest.raises(CatalogError) as got:
        build_L()
    with pytest.raises(CatalogError) as want:
        ref_build_L(glue_count=4)
    assert str(got.value) == str(want.value) == "nu does not lie in the overlattice"
    monkeypatch.undo()

    # integrality: an h that does not preserve the glued lattice
    monkeypatch.setattr(catalog, "_eta4", lambda: [[1, 1, 0, 0], [0, 1, 0, 0],
                                                    [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(CatalogError) as got:
        build_L()
    with pytest.raises(CatalogError) as want:
        ref_build_L()
    assert (str(got.value) == str(want.value)
            == "h does not extend integrally to the overlattice")


# --- the certificate's short cuts against the routes they replaced --------

def complement_basis_reflection(lat, span_rows):
    """The reflection as C diag(-1, .., 1) C^-1 on ints, C the columns of
    span_rows and an orthogonal complement basis (its earlier route)."""
    comp, comp_rows = orthogonal_complement(lat, span_rows)
    k = len(span_rows)
    cols = transpose(list(span_rows) + list(comp_rows))
    inv, e = scaled_inverse(cols)
    signed = [[-x if j < k else x for j, x in enumerate(row)] for row in cols]
    m = divide_exact(mat_mul(signed, inv), e)
    if m is None:
        raise CatalogError("reflection is not integral on the lattice")
    return m


def _random_definite_lattice(rng, n):
    """B B^T for a random nonsingular B, doubled half of the time."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        s = rng.choice((1, 2))
        g = [[s * sum(x * y for x, y in zip(r, t)) for t in b] for r in b]
        try:
            return make_lattice(g)
        except LatticeError:
            continue


def test_reflection_matches_the_complement_basis_route(L):
    c, _ = L
    for rows in ([c.vectors["e%d" % i] for i in range(1, 9)],
                 [c.vectors["f%d" % i] for i in range(9, 17)]):
        assert reflection_in_span(c.lattice, rows) == complement_basis_reflection(c.lattice, rows)
    g, h = c.isometries["g"], c.isometries["h"]
    # h negates the e-span; its conjugate g h g^-1 = g^2 h negates the f-span
    assert (reflection_in_span(c.lattice, [c.vectors["e%d" % i] for i in range(1, 9)])
            == list(map(list, h.matrix)))
    assert (reflection_in_span(c.lattice, [c.vectors["f%d" % i] for i in range(9, 17)])
            == list(map(list, (g * g * h).matrix)))
    rng = random.Random(2207)
    outcomes = set()
    for _ in range(120):
        lat = _random_definite_lattice(rng, rng.randint(2, 6))
        k = rng.randint(1, lat.rank - 1)
        rows = [[rng.randint(-2, 2) for _ in range(lat.rank)] for _ in range(k)]
        want = _outcome(complement_basis_reflection, lat, rows)
        got = _outcome(reflection_in_span, lat, rows)
        if type(want) is tuple and "dependent" in want[1]:
            assert got == (LatticeError, "reflection span rows are dependent or degenerate")
            outcomes.add("dependent")
        else:
            assert got == want
            outcomes.add("integral" if type(got) is list else "not integral")
            if type(got) is list:
                make_isometry(lat, got)
                assert mat_mul(got, got) == [[int(i == j) for j in range(lat.rank)]
                                             for i in range(lat.rank)]
    assert outcomes == {"integral", "not integral", "dependent"}


def test_reflection_edge_spans():
    u = std_gram("U")
    with pytest.raises(LatticeError) as err:
        reflection_in_span(u, [[1, 0]])  # isotropic: a degenerate span
    assert type(err.value) is LatticeError
    a2 = std_gram("A", 2)
    assert reflection_in_span(a2, []) == [[1, 0], [0, 1]]
    assert reflection_in_span(a2, [[1, 0]]) == [[-1, 1], [0, 1]]
    with pytest.raises(LatticeError, match="length"):
        reflection_in_span(a2, [[1, 0, 0]])


def test_overlattice_det_is_det_over_index_squared():
    rng = random.Random(2024)
    cases = []
    for _ in range(25):
        lat = _random_even_lattice(rng, rng.randint(1, 6))
        cases.append((lat, _isotropic_glue(rng, lat)))
    cases += [_half_vector_glue(rng) for _ in range(25)]
    for lat, glue in cases:
        new_lat, index, _ = overlattice(lat, glue)
        assert new_lat.det == det(new_lat.gram) == lat.det // index ** 2
        assert new_lat == make_lattice(new_lat.gram)
        assert all(type(x) is int for row in new_lat.gram for x in row)
    c, _ = build_L()
    assert c.lattice.det == det(c.lattice.gram) == 5 ** 4


def make_lattice_half_unimodular(lat, rows):
    """_half_unimodular through a second lattice built on the halved Gram."""
    half = divide_exact(sublattice(lat, rows).gram, 2)
    if half is None:
        return "half-Gram not integral"
    half_lat = make_lattice(half)
    return (half_lat.is_even, abs(half_lat.det), half_lat.signature)


def test_half_unimodular_matches_the_make_lattice_route(L):
    c, _ = L
    for rows in ([c.vectors["e%d" % i] for i in range(1, 9)],
                 [c.vectors["f%d" % i] for i in range(9, 17)]):
        assert (catalog._half_unimodular(c.lattice, rows)
                == make_lattice_half_unimodular(c.lattice, rows) == (True, 1, (0, 8)))
    rng = random.Random(2208)
    seen = set()
    for _ in range(80):
        lat = _random_definite_lattice(rng, rng.randint(2, 6))
        if rng.random() < 0.3:
            lat = rescale(lat, -1)
        rows = [[rng.randint(-2, 2) for _ in range(lat.rank)]
                for _ in range(rng.randint(1, lat.rank))]
        want = _outcome(make_lattice_half_unimodular, lat, rows)
        assert _outcome(catalog._half_unimodular, lat, rows) == want
        seen.add(want if type(want) is str else want[0])
    # non-integral halves, even and odd halves, and dependent rows
    assert seen == {"half-Gram not integral", True, False, LatticeError}
