"""Exact checks for the projective family constructions: diagonal
root-of-unity actions, invariance of defining polynomials, dihedral
relations in PGL, fixed loci and fixed-point counts, moduli arithmetic.

Polynomials are dicts {exponent tuple: Cyc5 coefficient}; projective maps
are square matrices over Q(w), stored as their nonzero entries row by row;
a monomial map inverts from its entries, and fixed loci solve by cyclo.rref.
"""

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import cyclo
from .cyclo import Cyc5
from .lattice import CapExceeded

# Cofactor terms one resultant determinant may expand before CapExceeded;
# the largest in repro (5 x 5) expands 19.
DET_TERM_BUDGET = 10_000


class FamilyError(ValueError):
    pass


# --- polynomials over Q(w) ------------------------------------------------

def _accumulate(p, key, c):
    """p[key] += c, dropping the key when the sum is zero."""
    acc = p[key] + c if key in p else c
    if acc:
        p[key] = acc
    else:
        p.pop(key, None)


def poly_from_terms(terms):
    """terms: iterable of (exponent tuple, coefficient)."""
    p = {}
    for exps, c in terms:
        _accumulate(p, _exponents(exps), _entry(c, "polynomial coefficient"))
    return p


def _exponents(exps):
    """exps as a tuple of nonnegative ints, or FamilyError."""
    exps = tuple(exps)
    if not all(type(e) is int and e >= 0 for e in exps):
        raise FamilyError("exponents %r are not nonnegative ints" % (exps,))
    return exps


def poly_add(p, q):
    out = dict(p)
    for k, c in q.items():
        _accumulate(out, k, c)
    return out


def poly_scale(p, s):
    s = _entry(s, "polynomial scale factor")
    if not s:
        return {}
    return {k: c * s for k, c in p.items()}


def poly_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            _accumulate(out, tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
    return out


def poly_pow(p, n):
    out = {tuple([0] * _nvars_of(p)): Cyc5.one()} if p else {}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def _nvars_of(p):
    return len(next(iter(p))) if p else 0


def poly_substitute(p, linear_forms):
    """Substitute variable i by linear_forms[i], a poly in the new variables."""
    out, cache = {}, {}
    for exps, c in p.items():
        term = None
        for i, e in enumerate(exps):
            if not e:
                continue
            key = (i, e)
            if key not in cache:
                cache[key] = poly_pow(linear_forms[i], e)
            f = cache[key]
            term = f if term is None else poly_mul(term, f)
        if term is None:
            nv = _nvars_of(linear_forms[0]) if linear_forms else 0
            term = {tuple([0] * nv): Cyc5.one()}
        out = poly_add(out, poly_scale(term, c))
    return out


def _linear_forms(rows):
    """Row i as the linear form sum_j rows[i][j] y_j."""
    return [poly_from_terms(((tuple(int(k == j) for k in range(len(row))), x)
                             for j, x in enumerate(row) if x)) for row in rows]


def poly_apply_map(p, matrix):
    """Compose p with the linear map x -> M x (substitute x_i by row i of M)."""
    return poly_substitute(p, _linear_forms(matrix))


def poly_total_degree(p):
    return max(sum(k) for k in p) if p else -1


# --- monomial families ----------------------------------------------------

@dataclass(frozen=True)
class MonomialFamily:
    num_vars: int
    weights: tuple            # exponent of w per variable, mod 5
    monomials: tuple          # exponent tuples, all of one total degree

    def __post_init__(self):
        for m in self.monomials:
            if len(_exponents(m)) != self.num_vars:
                raise FamilyError("monomial %s has wrong arity" % (m,))
        degs = {sum(m) for m in self.monomials}
        if len(degs) > 1:
            raise FamilyError("monomials have mixed total degrees %s" % degs)

    def polynomial(self, coefficients):
        if len(coefficients) != len(self.monomials):
            raise FamilyError("need %d coefficients" % len(self.monomials))
        return poly_from_terms(zip(self.monomials, coefficients))


def sigma_weight(monomial, weights):
    """Sum of exponent * weight mod 5: the w-power picked up by the
    monomial under x_i -> w^{weights[i]} x_i."""
    if len(monomial) != len(weights):
        raise FamilyError("monomial/weights length mismatch")
    return sum(m * w for m, w in zip(monomial, weights)) % 5


def is_invariant_family(family):
    """(True, common weight) iff all monomials carry one w-weight mod 5,
    so the hypersurface (defined up to scalar) is preserved."""
    ws = {sigma_weight(m, family.weights) for m in family.monomials}
    return (True, ws.pop()) if len(ws) == 1 else (False, None)


# --- projective maps ------------------------------------------------------

@dataclass(frozen=True)
class ProjectiveMap:
    # per row, the (j, x) pairs of its nonzero entries in column order
    nonzeros: tuple

    def __init__(self, rows):
        if not isinstance(rows, Iterable):
            raise FamilyError("projective map rows %r are not iterable" % (rows,))
        mat = []
        for i, r in enumerate(rows):
            if not isinstance(r, Iterable):
                raise FamilyError("projective map row %d, %r, is not iterable" % (i, r))
            mat.append(tuple(map(_entry, r)))
        if not mat or any(len(r) != len(mat) for r in mat):
            raise FamilyError("projective map rows of lengths %s are not a nonempty square"
                              % [len(r) for r in mat])
        _set_map(self, tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in mat))

    @cached_property
    def matrix(self):
        """The dense rows, a tuple of tuples of Cyc5, built on first read."""
        return tuple(tuple(row.get(j, _ZERO) for j in range(self.size))
                     for row in map(dict, self.nonzeros))

    def __repr__(self):
        return "ProjectiveMap(matrix=%r)" % (self.matrix,)

    @property
    def size(self):
        return len(self.nonzeros)

    def __mul__(self, other):
        """Matrix product over Q(w), row by row: row i of AB is the sum over
        the nonzeros a_ik of a_ik times row k of B, so a diagonal or
        permutation factor costs n products; the sums are added up by
        column, dropped where they cancel and sorted by column."""
        if other.size != self.size:
            raise FamilyError("projective maps of sizes %d and %d" % (self.size, other.size))
        b, nzs = other.nonzeros, []
        for nz in self.nonzeros:
            row = {}
            for k, x in nz:
                for j, y in b[k]:
                    row[j] = row[j] + x * y if j in row else x * y
            nzs.append(tuple([(j, row[j]) for j in sorted(row) if row[j]]))
        return _set_map(object.__new__(ProjectiveMap), tuple(nzs))

    def inverse(self):
        """The inverse of a monomial map, read off its nonzeros with no solve:
        row i, one nonzero c in column j, gives row j of the inverse, c^-1 in
        column i.  An empty row or a repeated column raises FamilyError as
        singular, and a row of two or more nonzeros raises it naming the map."""
        rows = [None] * self.size
        for i, nz in enumerate(self.nonzeros):
            if len(nz) > 1:
                raise FamilyError("inverse takes a monomial map, not %r" % (self,))
            if not nz or rows[nz[0][0]]:
                raise FamilyError("projective map is singular")
            rows[nz[0][0]] = ((i, nz[0][1].inv()),)
        return _set_map(object.__new__(ProjectiveMap), tuple(rows))

    def is_scalar(self):
        first = self.nonzeros[0]
        return len(first) == 1 and all(nz == ((i, first[0][1]),)
                                       for i, nz in enumerate(self.nonzeros))

    def power(self, k):
        """self^k (k >= 0) as k - 1 products, the identity map at k = 0."""
        if k < 0:
            raise FamilyError("negative power %d of a projective map" % k)
        out = self if k else diagonal_map([Cyc5.one()] * self.size)
        for _ in range(k - 1):
            out = out * self
        return out


_ZERO = Cyc5.zero()
_FIFTH_ROOTS = tuple(Cyc5.omega(k) for k in range(5))


def _set_map(m, nonzeros):
    object.__setattr__(m, "nonzeros", nonzeros)
    return m


def _entry(x, what="projective map entry"):
    """x as a Cyc5; ints and Fractions coerce as summands, with no Cyc5
    product, and anything else raises FamilyError naming it as what."""
    if isinstance(x, Cyc5):
        return x
    if isinstance(x, (int, Fraction)):
        return _ZERO + x
    raise FamilyError("%s %r is not in Q(w)" % (what, x))


def _monomial_map(cols, entries):
    """The map with entries[i] at (i, cols[i]) and zeros elsewhere, written
    from its n entries, each coerced once, as n rows of at most one nonzero."""
    if not cols:
        raise FamilyError("projective map rows of lengths [] are not a nonempty square")
    nzs = []
    for j, x in zip(cols, entries):
        x = _entry(x)
        nzs.append(((j, x),) if x else ())
    return _set_map(object.__new__(ProjectiveMap), tuple(nzs))


def diagonal_map(entries):
    return _monomial_map(range(len(entries)), entries)


def permutation_map(images, signs=None):
    """Map sending coordinate i to +-coordinate images[i]: images a
    permutation of range(n), and signs n nonzero entries (default all 1)."""
    n = len(images)
    if sorted(i for i in images if isinstance(i, int)) != list(range(n)):
        raise FamilyError("permutation_map images %r are not a permutation of range(%d)"
                          % (images, n))
    signs = [Cyc5.one()] * n if signs is None else signs  # Cyc5 entries need no coercion
    if len(signs) != n:
        raise FamilyError("permutation_map takes %d signs, not %d" % (n, len(signs)))
    m = _monomial_map(images, signs)
    if not all(m.nonzeros):
        raise FamilyError("permutation_map signs %r include a zero" % (signs,))
    return m


def _scalar_multiple(pairs):
    """True iff x = lambda * y over all pairs (x, y), for one nonzero lambda.
    Each pair is compared with the first nonzero pair (x0, y0) as
    x * y0 == x0 * y, so no element of Q(w) is inverted."""
    first = None
    for x, y in pairs:
        if bool(x) != bool(y):
            return False
        if y:
            if first is None:
                first = (x, y)
            elif x * first[1] != first[0] * y:
                return False
    return first is not None


def pgl_equal(a, b):
    """True iff A = lambda * B for some nonzero lambda in Q(w): the two maps
    have their nonzeros in the same columns, row by row, and the pairs of
    nonzeros alone are compared by _scalar_multiple."""
    if a.size != b.size or _columns(a) != _columns(b):
        return False
    return _scalar_multiple((x, y) for ra, rb in zip(a.nonzeros, b.nonzeros)
                            for (_, x), (_, y) in zip(ra, rb))


def _columns(m):
    return [[j for j, _ in nz] for nz in m.nonzeros]


def dihedral_in_pgl(sigma, iota):
    """True iff sigma and iota generate the dihedral group of order 10 in
    PGL: iota^2 and sigma^5 scalar, sigma not scalar, and conjugation by
    iota inverts sigma.  The nonzero scalars iota^2 and sigma^5 make both
    maps invertible, so iota sigma iota^-1 ~ sigma^-1 is tested as the
    equivalent sigma iota sigma ~ iota: two products and no inverse.

    When each row of sigma is one nonzero s_i on the diagonal and each row
    of iota one nonzero c_i in column pi(i), the four tests are read off
    those entries with no map product: iota^2 is scalar iff
    pi(pi(i)) = i and c_i c_pi(i) is one value; sigma is not scalar iff the
    s_i differ; sigma^5 is scalar iff (s_i / s_0)^5 = 1, that is
    s_i = w^k s_0 (Q(w) holds the five 5th roots of unity); and
    sigma iota sigma ~ iota iff s_i s_pi(i) is one value.  Any other pair,
    such as a dense map from a family file, takes the products."""
    if iota.size != sigma.size:
        return False
    if all(len(nz) == 1 for nz in iota.nonzeros) and \
            all(len(nz) == 1 and nz[0][0] == i for i, nz in enumerate(sigma.nonzeros)):
        s = [nz[0][1] for nz in sigma.nonzeros]
        pi, c = zip(*(nz[0] for nz in iota.nonzeros))
        return (all(pi[p] == i for i, p in enumerate(pi))
                and len({c[i] * c[p] for i, p in enumerate(pi)}) == 1
                and len(values := set(s)) > 1
                and values <= {x * s[0] for x in _FIFTH_ROOTS}
                and len({s[i] * s[p] for i, p in enumerate(pi)}) == 1)
    if not iota.power(2).is_scalar():
        return False
    if sigma.is_scalar() or not sigma.power(5).is_scalar():
        return False
    return pgl_equal(sigma * iota * sigma, iota)


def fixed_locus(iota):
    """Eigenspaces of an involution normalised to iota^2 = I, as
    (eigenvalue sign, basis rows over Q(w))."""
    n = iota.size
    if iota.power(2) != diagonal_map([1] * n):
        raise FamilyError("fixed_locus takes an involution with iota^2 = I")
    spaces = []
    for sign in (1, -1):
        e = _entry(sign)
        rows = [[x - e if i == j else x for j, x in enumerate(r)]
                for i, r in enumerate(iota.matrix)]
        red, pivots = cyclo.rref(rows, n)
        basis = []
        for f in sorted(set(range(n)) - set(pivots)):
            v = [Cyc5.zero()] * n
            v[f] = Cyc5.one()
            for row, c in zip(red, pivots):
                v[c] = -row[f]
            basis.append(tuple(v))
        if basis:
            spaces.append((sign, basis))
    return spaces


def restrict_to_subspace(poly, basis_rows):
    """Restrict a polynomial to the subspace spanned by basis_rows,
    yielding a polynomial in len(basis_rows) parameters."""
    return poly_substitute(poly, _linear_forms(list(zip(*basis_rows))))


def restrict_and_count(poly, line_rows):
    """Zeros, with multiplicity, of poly on a line (2-parameter subspace):
    a nonzero binary form of degree d has d roots in P^1, and None when
    poly vanishes on the whole line."""
    if len(line_rows) != 2:
        raise FamilyError("restrict_and_count needs a 2-parameter line")
    r = restrict_to_subspace(poly, line_rows)
    return poly_total_degree(r) if r else None


def sylvester_resultant(p, q, var):
    """Resultant of p and q w.r.t. variable var; coefficients are
    polynomials in the remaining variables."""
    def coeffs_in(poly):
        by_deg = {}
        for exps, c in poly.items():
            _accumulate(by_deg.setdefault(exps[var], {}), exps[:var] + exps[var + 1:], c)
        return by_deg

    cp, cq = coeffs_in(p), coeffs_in(q)
    dp, dq = max(cp), max(cq)
    # the Sylvester matrix: dq shifted rows of p's coefficients, then dp of q's
    rows = [[c.get(d - j + i, {}) if 0 <= j - i <= d else {} for j in range(dp + dq)]
            for c, d, shifts in ((cp, dp, dq), (cq, dq, dp)) for i in range(shifts)]
    return _poly_det(rows, {tuple([0] * (len(next(iter(p))) - 1)): Cyc5.one()})


def _poly_det(rows, one, terms=None):
    """Cofactor expansion along the first row.  An n x n matrix can expand
    into n! terms, so past DET_TERM_BUDGET terms (counted in terms[0]
    across the recursion) it raises CapExceeded."""
    terms = terms or [0]
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    out = {}
    for j in range(n):
        if not rows[0][j]:
            continue
        terms[0] += 1
        if terms[0] > DET_TERM_BUDGET:
            raise CapExceeded("resultant determinant past %d terms" % DET_TERM_BUDGET)
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = poly_mul(rows[0][j], _poly_det(minor, one, terms))
        out = poly_add(out, term) if j % 2 == 0 else poly_add(out, poly_scale(term, -1))
    return out


# The (k, m) of the unimodular parameter bases (1, k, m), (0, 1, 0), (0, 0, 1)
# that plane_fixed_count may take, identity first; each puts (1 : k : m) at (1 : 0 : 0).
_SHEARS = sorted(product(range(-2, 3), repeat=2), key=lambda km: abs(km[0]) + abs(km[1]))


def plane_fixed_count(polys, plane_rows):
    """Count, with multiplicity, common zeros of two curves on a plane
    (3-parameter subspace) by the degree of their resultant in parameter 0,
    or None when it vanishes (the curves share a component).  That resultant
    drops a common zero at (1 : 0 : 0), so the plane is first re-parametrised
    by the first of _SHEARS that puts there a point off one curve: a curve of
    degree d misses (1 : 0 : 0) iff it has a term s0^d."""
    if len(polys) != 2 or len(plane_rows) != 3:
        raise FamilyError("plane_fixed_count takes two polynomials and a plane")
    curves = [restrict_to_subspace(p, plane_rows) for p in polys]
    if not all(curves):
        return None
    for k, m in _SHEARS:
        sheared = [restrict_to_subspace(c, [(1, k, m), (0, 1, 0), (0, 0, 1)])
                   for c in curves] if k or m else curves
        if any((poly_total_degree(c), 0, 0) in c for c in sheared):
            res = sylvester_resultant(*sheared, 0)
            return poly_total_degree(res) if res else None
    raise FamilyError("plane_fixed_count: both curves hold every (1 : k : m), |k|, |m| <= 2")


def fixed_point_count(forms, iota):
    """Fixed points, with multiplicity, of the involution iota on
    X = {forms = 0}, read off iota's eigenspaces (fixed_locus).  The forms
    that vanish on an eigenspace are dropped; a line with one form left
    counts by restrict_and_count, a plane with two by plane_fixed_count, and
    any other eigenspace, or two curves with a common component, raises
    FamilyError naming it."""
    total = 0
    for sign, basis in fixed_locus(iota):
        left = [f for f in forms if restrict_to_subspace(f, basis)]
        shape = (len(basis), len(left))
        count = (restrict_and_count(left[0], basis) if shape == (2, 1) else
                 plane_fixed_count(left, basis) if shape == (3, 2) else None)
        if count is None:
            raise FamilyError("no fixed-point count on the (%+d) eigenspace: dimension %d, "
                              "%d form(s) left" % (sign, *shape))
        total += count
    return total


def commutant_dim(sigma):
    """Dimension over Q(w) of {X : X sigma = sigma X} for a diagonal
    sigma = diag(s_i): X commutes with it iff X_ij (s_j - s_i) = 0, so the
    dimension is #{(i, j) : s_i = s_j}, the sum of the squared counts of
    its equal entries, with no product or solve.  Any other map raises
    FamilyError."""
    if any(j != i for i, nz in enumerate(sigma.nonzeros) for j, _ in nz):
        raise FamilyError("commutant_dim takes a diagonal map, not %r" % (sigma,))
    return sum(c * c for c in Counter(nz[0][1] if nz else _ZERO
                                      for nz in sigma.nonzeros).values())


def moduli_count(params, commutant, redundancy=0):
    """Moduli of a family of invariant complete intersections.

    params: the coefficient counts, one per defining form.  Each form loses
    one dimension to scaling; the commutant of the diagonal action acts
    with a 1-dimensional ineffective scalar; redundancy removes extra
    coefficient directions that give the same intersection.
    """
    return sum(p - 1 for p in params) - (commutant - 1) - redundancy


def proportional(p, q):
    """True iff p is a nonzero scalar multiple of q, or both are zero."""
    if not p or not q:
        return not p and not q
    return _scalar_multiple((p.get(k, _ZERO), q.get(k, _ZERO)) for k in set(p) | set(q))


def swap_check(iota, p, q):
    """True iff p composed with iota^-1 is a nonzero scalar multiple of q,
    for iota with iota^2 = lambda I (else FamilyError): p is homogeneous,
    so p composed with iota = lambda iota^-1 is tested, with no inverse."""
    if not iota.power(2).is_scalar():
        raise FamilyError("swap_check takes an involution, not %r" % (iota,))
    return proportional(poly_apply_map(p, iota.matrix), q)
