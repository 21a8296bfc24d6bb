"""Hard-coded constructions of every lattice and isometry in the suite,
plus the reproduction harness that certifies each claim.

The rank-16 lattice L is glued from four copies of A4(-2) by the orbit of
two half-integral vectors under the order-5 isometry, then certified to be
even, rootless, of discriminant (Z/5)^4, and spanned by two E8(-2) copies
exchanged up to sign by a dihedral group of order 10.

The harness is three tables: CLAIMS lists every claim with the named
inputs it reads, BUILDERS maps each named input (L, the Nikulin lattice,
each k3 family case, ...) to its builder, and FAULTS maps each
negative-control id to the builders it swaps in.
"""

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import k3fam, shortvec
from .cyclo import Cyc5
from .isometry import (
    _invariant_rows, acts_as_minus_one, disc_action_trivial, group_closure,
    make_isometry, order,
)
from .lattice import (
    GlueError, LatticeError, _rows_in, direct_sum, invariant_factors,
    make_lattice, orthogonal_complement, overlattice, rescale, saturation, span_index,
    sublattice,
)
from .ratmat import (
    MatrixError, block_diag, clear_denominators, det, divide_exact, identity, mat_mul,
    mat_vec, scaled_inverse, transpose, vec_dot,
)


class CatalogError(LatticeError):
    pass


@dataclass(frozen=True)
class ClaimResult:
    id: str
    locator: str
    expected: object
    computed: object
    millis: float

    @property
    def passed(self):
        return self.expected == self.computed

    def as_dict(self):
        return {
            "id": self.id,
            "locator": self.locator,
            "expected": str(self.expected),
            "computed": str(self.computed),
            "pass": self.passed,
            "millis": round(self.millis, 3),
        }


@dataclass(frozen=True)
class NamedConstruction:
    lattice: object
    base_lattice: object
    vectors: dict            # name -> coords in the lattice basis (ints)
    base_vectors: dict       # name -> coords in the base basis (Fractions)
    isometries: dict         # name -> Isometry on the lattice basis
    index: int = 1           # index of base_lattice in lattice


# --- standard Gram matrices ----------------------------------------------

_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def std_gram(family, n=None):
    """Cartan-convention lattices: A_n, E8, U (scale with lattice.rescale)."""
    if family == "A":
        if n is None or n < 1:
            raise CatalogError("A_n needs n >= 1")
        g = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
              for j in range(n)] for i in range(n)]
    elif family == "U":
        g = [[0, 1], [1, 0]]
    elif family == "E8":
        g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
        for a, b in _E8_EDGES:
            g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    else:
        raise CatalogError("unsupported family %r" % (family,))
    return make_lattice(g)


# --- the overlattice L ----------------------------------------------------

# A4(-2), the block of L's base lattice A4(-2)^4, built once on import
L_BLOCK = rescale(std_gram("A", 4), -2)


def _gamma4():
    # alpha_i -> alpha_{i+1}, alpha_4 -> alpha_5 = -(a1+a2+a3+a4);
    # columns are images of the basis vectors
    return [[0, 0, 0, -1],
            [1, 0, 0, -1],
            [0, 1, 0, -1],
            [0, 0, 1, -1]]


def _eta4():
    # the involution on one A4 copy: a1 -> -a1, a2 -> -a5, a3 -> -a4,
    # a4 -> -a3, with a5 = -(a1+a2+a3+a4); columns are images
    return [[-1, 1, 0, 0],
            [0, 1, 0, 0],
            [0, 1, 0, -1],
            [0, 1, -1, 0]]


MU_BASE = tuple(Fraction(x, 2) for x in
                (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0))
NU_BASE = tuple(Fraction(x, 2) for x in
                (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1))


def build_L(nu_override=None):
    """The rank-16 overlattice of A4(-2)^{+4} glued along the g-orbits of
    mu and nu, with the order-5 isometry g and the involution h.

    After the gluing everything runs on ints.  The basis of L is H / d in
    base coordinates, so P = d (H^T)^-1 maps base coordinates to those of
    L; P is integral because the base lies in L.  A base map m becomes
    P m H^T / d, and the named vectors are kept as ints V over the common
    denominator s of mu and nu (s = 2), with coordinates P V / s in L.
    """
    base = direct_sum([L_BLOCK] * 4)
    g_base = block_diag([_gamma4()] * 4)
    nu = nu_override if nu_override is not None else NU_BASE
    (mu, nu), s = clear_denominators([MU_BASE, nu])
    mus, nus = [mu], [nu]
    for _ in range(3):
        mus.append(mat_vec(g_base, mus[-1]))
        nus.append(mat_vec(g_base, nus[-1]))
    lat, index, basis = overlattice(base, [[Fraction(x, s) for x in v] for v in mus + nus])

    h_int, d = clear_denominators(basis)
    ht = transpose(h_int)
    inv, dh = scaled_inverse(ht)
    p = divide_exact([[d * x for x in row] for row in inv], dh)
    isometries = {}
    for name, m in (("g", g_base), ("h", block_diag([_eta4()] * 4))):
        rows = divide_exact(mat_mul(mat_mul(p, m), ht), d)
        if rows is None:
            raise CatalogError("%s does not extend integrally to the overlattice" % name)
        isometries[name] = make_isometry(lat, rows)

    base_vectors = {"mu": mu, "nu": nu}
    for i in range(1, 4):
        base_vectors["g%d(mu)" % i] = mus[i]
        base_vectors["g%d(nu)" % i] = nus[i]

    def unit(copy, *idx):
        v = [0] * 16
        for i in idx:
            v[4 * copy + i] = s
        return v

    def add(*vs):
        return [sum(x) for x in zip(*vs)]

    e = [mu, add(mus[2], mus[3]), nu,
         add(mu, mus[2], mus[3], [-x for x in nus[2]], [-x for x in nus[3]]),
         unit(0, 0), unit(0, 2, 3), unit(1, 0), unit(1, 2, 3)]
    for i, v in enumerate(e, 1):
        base_vectors["e%d" % i] = v
        base_vectors["f%d" % (i + 8)] = mat_vec(g_base, v)

    vectors = {}
    for name, v in base_vectors.items():
        y = mat_vec(p, v)
        if any(x % s for x in y):
            raise CatalogError("%s does not lie in the overlattice" % name)
        vectors[name] = tuple(x // s for x in y)

    return NamedConstruction(
        lattice=lat,
        base_lattice=base,
        vectors=vectors,
        base_vectors={name: tuple(Fraction(x, s) for x in v)
                      for name, v in base_vectors.items()},
        isometries=isometries,
        index=index,
    ), index


def reflection_in_span(lat, span_rows):
    """The map acting as -1 on the rows S and +1 on their orthogonal
    complement, I - 2 S^T (S G S^T)^-1 S G, as integer matrix rows: with
    (B, e) the scaled inverse of S G S^T, (e I - 2 S^T B S G) / e on ints.
    Non-integral reflection: CatalogError; non-integer, dependent or
    degenerate rows: LatticeError."""
    s = _rows_in(lat, span_rows)
    if not s:
        return identity(lat.rank)
    sg = mat_mul(s, lat.gram)
    try:
        b, e = scaled_inverse(mat_mul(sg, transpose(s)))
    except MatrixError:
        raise LatticeError("reflection span rows are dependent or degenerate") from None
    p = mat_mul(transpose(s), mat_mul(b, sg))
    m = divide_exact([[e * (i == j) - 2 * x for j, x in enumerate(row)]
                      for i, row in enumerate(p)], e)
    if m is None:
        raise CatalogError("reflection is not integral on the lattice")
    return m


def build_nikulin():
    """Index-2 overlattice of A1(-1)^{+8} glued by the all-halves vector;
    returns (lattice, index)."""
    base = direct_sum([rescale(std_gram("A", 1), -1)] * 8)
    lat, index, _ = overlattice(base, [[Fraction(1, 2)] * 8])
    return lat, index


def build_MD5(nikulin):
    """A4(-1)^{+2} + Nikulin direct sum (rank 16), from the lattice
    build_nikulin()[0]."""
    return direct_sum([rescale(std_gram("A", 4), -1)] * 2 + [nikulin])


def u2_cubed():
    u2 = rescale(std_gram("U"), 2)
    return direct_sum([u2, u2, u2])


# Glue rows for N + U(2)^3(-1), in halves: an N-part (coordinates in the
# basis of build_nikulin()) then a U-part.  Row k is generator k of
# discriminant_group(N) and its image under fqf_isomorphic's witness in
# discriminant_group(u2_cubed()).
NIK_U2_GLUE = tuple(tuple(Fraction(x, 2) for x in row) for row in (
    (0, -1, 1, 0, 0, 0, 0, 0,  0, 0, 0, 0, 1, 1),
    (0, -1, 0, 1, 0, 0, 0, 0,  0, 0, 1, 1, 0, 1),
    (0, -1, 0, 0, 1, 0, 0, 0,  0, 1, 1, 1, 1, 0),
    (0, -1, 0, 0, 0, 1, 0, 0,  1, 0, 1, 1, 1, 0),
    (0, -1, 0, 0, 0, 0, 1, 0,  1, 1, 0, 0, 1, 0),
    (0, -1, 0, 0, 0, 0, 0, 1,  1, 1, 0, 1, 0, 1),
))


def _glues_unimodular(a, b, glue):
    """Whether glue, rows (a-part, b-part) of rationals, glues a + b to an
    even lattice whose a-parts generate a*/a and whose b-parts generate
    b*/b.  Then the glue group G is the graph of a bijection a*/a -> b*/b
    that negates q (Nikulin 1979, Prop. 1.6.1): G is isotropic, so its
    order k has k^2 <= |det a| |det b|, and both projections are onto, so
    k = |det a| = |det b|, both are one to one, q_a(x) + q_b(y) = 0, and
    the glued lattice is unimodular."""
    try:
        overlattice(direct_sum([a, b]), glue)
    except GlueError:
        return False
    n = a.rank
    return (span_index([row[:n] for row in glue]) == abs(a.det)
            and span_index([row[n:] for row in glue]) == abs(b.det))


def primary_decomposition(invariant_factors):
    """Prime-power cyclic factors of the group, as a sorted tuple."""
    out = []
    for d in invariant_factors:
        rem = d
        p = 2
        while rem > 1:
            if rem % p == 0:
                q = 1
                while rem % p == 0:
                    rem //= p
                    q *= p
                out.append(q)
            p += 1
    return tuple(sorted(out))


# --- the four projective families with a D5 action -----------------------

# quartics in P3
QUARTIC = k3fam.MonomialFamily(4, (0, 3, 1, 2), (
    (3, 0, 1, 0), (2, 2, 0, 0), (1, 0, 0, 3), (1, 1, 1, 1), (0, 3, 0, 1), (0, 1, 3, 0),
    (0, 0, 2, 2)))
# quadric + cubic in P4
P4_QUADRIC = k3fam.MonomialFamily(5, (0, 1, 2, 3, 4), (
    (2, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 1, 1, 0)))
P4_CUBIC = k3fam.MonomialFamily(5, (0, 1, 2, 3, 4), (
    (3, 0, 0, 0, 0), (1, 1, 0, 0, 1), (1, 0, 1, 1, 0), (0, 2, 0, 1, 0), (0, 0, 1, 0, 2),
    (0, 1, 2, 0, 0), (0, 0, 0, 2, 1)))
# three quadrics in P5
P5_Q1 = k3fam.MonomialFamily(6, (0, 0, 1, 2, 3, 4), (
    (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 1, 0)))
P5_Q2 = k3fam.MonomialFamily(6, (0, 0, 1, 2, 3, 4), (
    (0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 2, 0)))
P5_Q3 = k3fam.MonomialFamily(6, (0, 0, 1, 2, 3, 4), (
    (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0), (0, 0, 0, 2, 0, 0)))
# the branch sextic of a double cover of P2
SEXTIC = k3fam.MonomialFamily(3, (0, 1, 4), (
    (6, 0, 0), (1, 5, 0), (1, 0, 5), (4, 1, 1), (2, 2, 2), (0, 3, 3)))


@dataclass(frozen=True)
class FamilyCase:
    """One family case of the k3 claims: sigma and iota generate the D5
    action in PGL, commutant_of is the diagonal map whose commutant acts
    on the parameters, forms are sample members of the families, and
    param_counts and redundancy feed k3fam.moduli_count.  base_iota is the
    involution of P2 that a double cover's iota lifts."""
    sigma: object
    iota: object
    commutant_of: object
    forms: tuple
    param_counts: tuple
    redundancy: int = 0
    base_iota: object = None


def _diagonal(*powers):
    return k3fam.diagonal_map([Cyc5.omega(k) for k in powers])


def quartic_p3():
    sigma = _diagonal(0, 3, 1, 2)
    return FamilyCase(sigma=sigma, iota=k3fam.permutation_map([1, 0, 3, 2]), commutant_of=sigma,
                      forms=(QUARTIC.polynomial([1] * 7),), param_counts=(7,))


def ci_p4():
    sigma = _diagonal(0, 1, 2, 3, 4)
    return FamilyCase(sigma=sigma, iota=k3fam.permutation_map([0, 4, 3, 2, 1]),
                      commutant_of=sigma,
                      forms=(P4_QUADRIC.polynomial([1] * 3), P4_CUBIC.polynomial([1] * 7)),
                      param_counts=(3, 7), redundancy=1)


def ci_p5():
    sigma = _diagonal(0, 0, 1, 2, 3, 4)
    return FamilyCase(sigma=sigma, iota=k3fam.permutation_map([0, 1, 5, 4, 3, 2]),
                      commutant_of=sigma,
                      # the sample q1 has b = e = 0, d = 1
                      forms=(P5_Q1.polynomial([1, 0, 1, 1, 0]), P5_Q2.polynomial([1] * 3),
                             P5_Q3.polynomial([1] * 3)),
                      param_counts=(5, 4, 4))


def double_cover_p2():
    # sigma and iota lift the action on P2 to the cover, coordinates (u, x0, x1, x2)
    return FamilyCase(sigma=_diagonal(0, 0, 1, 4),
                      iota=k3fam.permutation_map([0, 1, 3, 2], signs=[-1, 1, 1, 1]),
                      commutant_of=_diagonal(0, 1, 4), forms=(SEXTIC.polynomial([1] * 6),),
                      param_counts=(6,), base_iota=k3fam.permutation_map([0, 2, 1]))


def _dihedral(case):
    return k3fam.dihedral_in_pgl(case.sigma, case.iota)


def _moduli(case):
    return k3fam.moduli_count(case.param_counts, k3fam.commutant_dim(case.commutant_of),
                              case.redundancy)


def _fixed_points(case):
    return k3fam.fixed_point_count(case.forms, case.iota)


def _p5_swap(case):
    q1, q2, q3 = case.forms
    return (k3fam.swap_check(case.iota, q2, q3)
            and k3fam.swap_check(case.iota, q3, q2)
            and k3fam.swap_check(case.iota, q1, q1))


def _p5_plus_restrictions_coincide(case):
    # the swapped quadrics restrict to proportional forms on the fixed
    # space, so no zero-dimensional count is available there
    q1, q2, q3 = case.forms
    plus = next(basis for sign, basis in k3fam.fixed_locus(case.iota) if sign == 1)
    return k3fam.proportional(k3fam.restrict_to_subspace(q2, plus),
                              k3fam.restrict_to_subspace(q3, plus))


# --- the reproduction suite ----------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One certified fact: fn(*inputs) computes a value that passes when it
    equals `expected`, where inputs are the named inputs listed in needs."""
    id: str
    locator: str
    expected: object
    fn: object
    needs: tuple = ()


# The glue rows of L over A4(-2)^4, in build_L's order: the g-orbits of
# mu and nu.
L_GLUE = ("mu", "g1(mu)", "g2(mu)", "g3(mu)", "nu", "g1(nu)", "g2(nu)", "g3(nu)")


def _glue_counts_L(c, names=L_GLUE):
    """shortvec.glue_counts of L at bound 3, from its four A4(-2) blocks
    and the glue rows `names` of c.base_vectors."""
    return shortvec.glue_counts(c.lattice, [L_BLOCK] * 4,
                                [c.base_vectors[name] for name in names], 3)


def _minus_one_as(c, name):
    n = c.lattice.rank
    minus = make_isometry(c.lattice, [[-int(i == j) for j in range(n)] for i in range(n)])
    return replace(c, isometries={**c.isometries, name: minus})


# The named inputs; a builder gets the others through get(name).
# Functions are looked up when a builder runs, not bound at import, so
# that patching a module function (as tests and tracers do) takes effect.
BUILDERS = {
    "L": lambda get: build_L()[0],
    "nikulin": lambda get: build_nikulin(),
    "md5": lambda get: build_MD5(get("nikulin")[0]),
    "u2^3": lambda get: u2_cubed(),
    "factors:L": lambda get: invariant_factors(get("L").lattice),
    "factors:md5": lambda get: invariant_factors(get("md5")),
    "factors:nikulin": lambda get: invariant_factors(get("nikulin")[0]),
    # L's counts up to norm 3 certify both L/rootless and L/minimum
    "sv:L": lambda get: _glue_counts_L(get("L")),
    "ef-spans": lambda get: _ef_spans(get("L")),
    "k3:quartic-p3": lambda get: quartic_p3(),
    "k3:ci-p4": lambda get: ci_p4(),
    "k3:ci-p5": lambda get: ci_p5(),
    "k3:double-cover-p2": lambda get: double_cover_p2(),
}


# Negative controls: each fault id maps to the builders that replace those
# of BUILDERS, so that one construction is corrupted.
FAULTS = {
    # nu gets a coordinate 1/3, so the gluing of L fails
    "nu-coord": {"L": lambda get: build_L(
        nu_override=NU_BASE[:4] + (Fraction(1, 3),) + NU_BASE[5:])[0]},
    # nu of norm -6: L still glues, with 40 pairs of roots and odd E8(-2) halves
    "nu-roots": {"L": lambda get: build_L(nu_override=tuple(
        Fraction(x, 2) for x in (1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1)))[0]},
    # U(2)^3 becomes <-2>^6, whose q values 3/2 no longer match the Nikulin form
    "u2-diagonal": {"u2^3": lambda get: direct_sum([rescale(std_gram("A", 1), -1)] * 6)},
    # h becomes -I, which breaks the dihedral relation and fixes nothing
    "h-minus-one": {"L": lambda get: _minus_one_as(build_L()[0], "h")},
    # g becomes -I, of order 2, acting as -1 on L*/L = (Z/5)^4
    "g-minus-one": {"L": lambda get: _minus_one_as(build_L()[0], "g")},
    # M_D5 on A1(-1)^8, not the Nikulin lattice: disc group (Z/2)^8 + (Z/5)^2
    "md5-unglued": {"md5": lambda get: build_MD5(
        direct_sum([rescale(std_gram("A", 1), -1)] * 8))},
    # the quartic's commutant_of is diag(1, 1, w, w^2): commutant 6, moduli count 1
    "k3-commutant": {"k3:quartic-p3": lambda get: replace(
        quartic_p3(), commutant_of=_diagonal(0, 0, 1, 2))},
    # the quartic's iota swaps x2 and x3 alone: with weights (0, 3, 1, 2),
    # a_i + a_pi(i) takes the values 0, 1 and 3, so iota does not invert sigma
    "k3-dihedral": {"k3:quartic-p3": lambda get: replace(
        quartic_p3(), iota=k3fam.permutation_map([0, 1, 3, 2]))},
    # ci-p4's iota also negates x0: still dihedral with sigma, but its
    # eigenspaces become a line that keeps both forms and a plane
    "k3-p4-iota": {"k3:ci-p4": lambda get: replace(
        ci_p4(), iota=k3fam.permutation_map([0, 4, 3, 2, 1], signs=[-1, 1, 1, 1, 1]))},
    # g3(nu) dropped from L's glue rows: 128 glue classes, which the det
    # check of sv:L refuses
    "sv-glue": {"sv:L": lambda get: _glue_counts_L(get("L"), L_GLUE[:-1])},
}
FAULT_IDS = tuple(FAULTS)


class _Lazy:
    """get(name) builds a named input once, on first use.  A build that
    raises is not retried: every later get(name) raises its error again.
    The instance is its own get, so unlike a closure that calls itself it
    is in no reference cycle, and what a run built is freed when the run
    ends, not at the next garbage collection."""

    def __init__(self, builders):
        self.builders, self.built = builders, {}

    def __call__(self, name):
        if name not in self.built:
            try:
                self.built[name] = self.builders[name](self), None
            except Exception as exc:
                self.built[name] = None, exc
        value, exc = self.built[name]
        if exc is not None:
            raise exc
        return value


def _e_rows(c):
    return [c.vectors["e%d" % i] for i in range(1, 9)]


def _f_rows(c):
    return [c.vectors["f%d" % i] for i in range(9, 17)]


def _minimum_from(lat, counts, bound):
    """shortvec.minimum(lat), read off counts, the counts_by_norm of
    short_vectors(lat, bound), where they settle it.  They count every
    vector of norm <= bound, so the least listed norm is the minimum.  No
    count leaves no norm below m = min |G_ii| (the norm of a basis vector)
    when m <= bound + 1, so the minimum is m; otherwise search."""
    if counts:
        return counts[0][0]
    m = min((abs(row[i]) for i, row in enumerate(lat.gram)), default=None)
    if m is not None and m <= bound + 1:
        return m
    return shortvec.minimum(lat)


def _half_unimodular(sub):
    """Halving the Gram matrix divides its det by 2^rank, keeps the signature."""
    half = divide_exact(sub.gram, 2)
    if half is None:
        return "half-Gram not integral"
    return (all(row[i] % 2 == 0 for i, row in enumerate(half)),
            abs(sub.det) // 2 ** sub.rank, sub.signature)


def _ef_spans(c):
    """The spans of L's e rows and of its f rows: one lattice, eliminated
    once, when their Gram matrices agree (both are E8(-2))."""
    e, f = sublattice(c.lattice, _e_rows(c)), _rows_in(c.lattice, _f_rows(c))
    same = tuple(map(tuple, mat_mul(mat_mul(f, c.lattice.gram), transpose(f)))) == e.gram
    return e, e if same else sublattice(c.lattice, f)


def _h_invariant_matches(c):
    inv_rows = _invariant_rows(c.lattice, [c.isometries["h"]])
    return inv_rows == orthogonal_complement(c.lattice, _e_rows(c))[1] and len(inv_rows) == 8


def _dihedral_relation(c):
    """h g h^-1 g = 1 as g h g = h, which needs no inverse."""
    g, h = c.isometries["g"], c.isometries["h"]
    return (g * h * g).matrix == h.matrix


def _norm(lat, v):
    """v G v^T for a rational v, on ints over the square of v's denominator."""
    (w,), d = clear_denominators([v])
    return Fraction(vec_dot(w, mat_vec(lat.gram, w)), d * d)


def _g2h_minus_on_f(c):
    g, h = c.isometries["g"], c.isometries["h"]
    return acts_as_minus_one(g * g * h, _f_rows(c))


CLAIMS = (
    # -- the overlattice L
    Claim("L/index", "L/gluing", 2 ** 8, lambda L: L.index, ("L",)),
    Claim("L/even", "L/gluing", True, lambda L: L.lattice.is_even, ("L",)),
    Claim("L/signature", "L/gluing", (0, 16), lambda L: L.lattice.signature, ("L",)),
    Claim("L/disc-group", "L/discriminant", (5, 5, 5, 5),
          lambda factors: factors, ("factors:L",)),
    Claim("L/mu-self", "L/glue-vectors", -4,
          lambda L: _norm(L.base_lattice, L.base_vectors["mu"]), ("L",)),
    Claim("L/nu-self", "L/glue-vectors", -4,
          lambda L: _norm(L.base_lattice, L.base_vectors["nu"]), ("L",)),
    Claim("L/rootless", "L/short-vectors", 0,
          lambda sv: sum(pairs for _, pairs in sv), ("sv:L",)),
    Claim("L/minimum", "L/short-vectors", 4,
          lambda L, sv: _minimum_from(L.lattice, sv, 3), ("L", "sv:L")),
    Claim("L/mu-primitive", "L/saturation", 1,
          lambda L: saturation(L.lattice, [L.vectors["mu"]])[1], ("L",)),
    # -- the order-5 isometry g
    Claim("g/order", "isometry-g", 5, lambda L: order(L.isometries["g"]), ("L",)),
    Claim("g/disc-trivial", "isometry-g", True,
          lambda L: disc_action_trivial(L.lattice, L.isometries["g"]), ("L",)),
    Claim("g/no-invariants", "isometry-g", 0,
          lambda L: len(_invariant_rows(L.lattice, [L.isometries["g"]])), ("L",)),
    # -- the dihedral group <g, h>
    Claim("dih10/h-order", "involution-h", 2,
          lambda L: order(L.isometries["h"]), ("L",)),
    Claim("dih10/group-order", "dihedral-group", 10,
          lambda L: group_closure([L.isometries["g"], L.isometries["h"]]).order,
          ("L",)),
    Claim("dih10/relation", "dihedral-group", True, _dihedral_relation, ("L",)),
    Claim("dih10/h-minus-on-e", "involution-h", True,
          lambda L: acts_as_minus_one(L.isometries["h"], _e_rows(L)), ("L",)),
    Claim("dih10/g2h-minus-on-f", "involution-h", True, _g2h_minus_on_f, ("L",)),
    Claim("dih10/h-reflection-match", "involution-h", True,
          lambda L: (tuple(map(tuple, reflection_in_span(L.lattice, _e_rows(L))))
                     == L.isometries["h"].matrix),
          ("L",)),
    Claim("dih10/h-invariant-is-e-complement", "involution-h", True,
          _h_invariant_matches, ("L",)),
    # -- the two E8(-2) copies and their spanning of L
    Claim("e8/e-half-unimodular", "L/e-span", (True, 1, (0, 8)),
          lambda spans: _half_unimodular(spans[0]), ("ef-spans",)),
    Claim("e8/f-half-unimodular", "L/f-span", (True, 1, (0, 8)),
          lambda spans: _half_unimodular(spans[1]), ("ef-spans",)),
    Claim("e8/ef-det", "L/ef-span", 5 ** 4,
          lambda L: abs(sublattice(L.lattice, _e_rows(L) + _f_rows(L)).det), ("L",)),
    Claim("e8/ef-index", "L/ef-span", 1,
          lambda L: abs(det(_e_rows(L) + _f_rows(L))), ("L",)),
    # -- the Nikulin lattice
    Claim("nikulin/index", "nikulin/gluing", 2, lambda nik: nik[1], ("nikulin",)),
    Claim("nikulin/disc-group", "nikulin/discriminant", (2,) * 6,
          lambda factors: factors, ("factors:nikulin",)),
    # q_N = q_U(2)^3: N + U(2)^3(-1) glues to a unimodular lattice
    Claim("nikulin/disc-form-matches-U2-cubed", "nikulin/discriminant", True,
          lambda nik, u2: _glues_unimodular(nik[0], rescale(u2, -1), NIK_U2_GLUE),
          ("nikulin", "u2^3")),
    # -- M_D5
    Claim("md5/rank", "md5", 16, lambda md5: md5.rank, ("md5",)),
    Claim("md5/disc-primary", "md5/discriminant", tuple(sorted([2] * 6 + [5, 5])),
          primary_decomposition, ("factors:md5",)),
    Claim("md5/disc-chain", "md5/discriminant", (2, 2, 2, 2, 10, 10),
          lambda factors: factors, ("factors:md5",)),
    # -- the four projective families (k3fam); the monomial families are
    # module constants and each case is the named input "k3:<case>"
    Claim("k3/quartic-p3/invariant-quartic", "k3/quartic-p3/family", (True, 1),
          lambda: k3fam.is_invariant_family(QUARTIC)),
    Claim("k3/quartic-p3/dihedral", "k3/quartic-p3/pgl", True, _dihedral, ("k3:quartic-p3",)),
    Claim("k3/quartic-p3/moduli", "k3/quartic-p3/moduli", 3, _moduli, ("k3:quartic-p3",)),
    Claim("k3/quartic-p3/fixed-points", "k3/quartic-p3/family", 8, _fixed_points,
          ("k3:quartic-p3",)),
    Claim("k3/quartic-p3/conjugation-scalar", "k3/quartic-p3/family", True,
          lambda case: k3fam.pgl_equal(case.iota * case.sigma * case.iota.inverse(),
                                       case.sigma.inverse()),
          ("k3:quartic-p3",)),
    Claim("k3/ci-p4/invariant-quadric", "k3/ci-p4/family", (True, 0),
          lambda: k3fam.is_invariant_family(P4_QUADRIC)),
    Claim("k3/ci-p4/invariant-cubic", "k3/ci-p4/family", (True, 0),
          lambda: k3fam.is_invariant_family(P4_CUBIC)),
    Claim("k3/ci-p4/dihedral", "k3/ci-p4/pgl", True, _dihedral, ("k3:ci-p4",)),
    Claim("k3/ci-p4/moduli", "k3/ci-p4/moduli", 3, _moduli, ("k3:ci-p4",)),
    Claim("k3/ci-p4/fixed-points", "k3/ci-p4/family", 8, _fixed_points, ("k3:ci-p4",)),
    Claim("k3/ci-p5/invariant-q1", "k3/ci-p5/family", (True, 0),
          lambda: k3fam.is_invariant_family(P5_Q1)),
    Claim("k3/ci-p5/invariant-q2", "k3/ci-p5/family", (True, 1),
          lambda: k3fam.is_invariant_family(P5_Q2)),
    Claim("k3/ci-p5/invariant-q3", "k3/ci-p5/family", (True, 4),
          lambda: k3fam.is_invariant_family(P5_Q3)),
    Claim("k3/ci-p5/dihedral", "k3/ci-p5/pgl", True, _dihedral, ("k3:ci-p5",)),
    Claim("k3/ci-p5/moduli", "k3/ci-p5/moduli", 3, _moduli, ("k3:ci-p5",)),
    Claim("k3/ci-p5/swaps-quadrics", "k3/ci-p5/family", True, _p5_swap, ("k3:ci-p5",)),
    Claim("k3/ci-p5/plus-space-restrictions-coincide", "k3/ci-p5/family", True,
          _p5_plus_restrictions_coincide, ("k3:ci-p5",)),
    Claim("k3/double-cover-p2/invariant-sextic", "k3/double-cover-p2/family", (True, 0),
          lambda: k3fam.is_invariant_family(SEXTIC)),
    Claim("k3/double-cover-p2/dihedral", "k3/double-cover-p2/pgl", True, _dihedral,
          ("k3:double-cover-p2",)),
    Claim("k3/double-cover-p2/moduli", "k3/double-cover-p2/moduli", 3, _moduli,
          ("k3:double-cover-p2",)),
    Claim("k3/double-cover-p2/sextic-symmetric", "k3/double-cover-p2/family", True,
          lambda case: k3fam.swap_check(case.base_iota, case.forms[0], case.forms[0]),
          ("k3:double-cover-p2",)),
    Claim("k3/double-cover-p2/cover-relation", "k3/double-cover-p2/family", True,
          lambda case: k3fam.pgl_equal(case.iota * case.sigma,
                                       case.sigma.inverse() * case.iota),
          ("k3:double-cover-p2",)),
)


def repro_all(filter_tag=None, inject_fault=None):
    """Run every claim; returns an ordered list of ClaimResults.

    The claims read their inputs from the builders of BUILDERS, each built
    at most once; filter_tag restricts to claims whose id starts with the
    tag, and an input that no selected claim needs is never built.
    inject_fault, an id of FAULTS, swaps in that fault's builders, which
    corrupt a construction so the harness can be seen to fail (negative
    control).  An Exception raised by a claim, or by the build of one of
    its inputs, fails that claim with computed value "error: ...".
    """
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError("unknown fault id %r (known: %s)"
                         % (inject_fault, ", ".join(FAULT_IDS)))
    get = _Lazy({**BUILDERS, **FAULTS.get(inject_fault, {})})
    results = []
    for claim in CLAIMS:
        if filter_tag and not claim.id.startswith(filter_tag):
            continue
        t0 = time.perf_counter()
        try:
            computed = claim.fn(*[get(name) for name in claim.needs])
        except Exception as exc:
            computed = "error: %s" % exc
        results.append(ClaimResult(claim.id, claim.locator, claim.expected,
                                   computed, (time.perf_counter() - t0) * 1000))
    return results
