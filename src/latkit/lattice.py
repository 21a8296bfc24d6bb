"""Integral lattices: Gram matrices, overlattice gluing, duals,
discriminant finite quadratic forms, saturation and orthogonal complements.

Vectors are rows of coordinates in the lattice basis.  All arithmetic is
exact (ints and Fractions); every object is immutable after construction.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from . import ratmat
from .ratmat import (
    block_diag, clear_denominators, divide_exact, hnf_int, identity, int_kernel,
    inverse, mat_mul, mat_vec, snf, symmetric_elimination, to_int, transpose,
    vec_dot,
)


class LatticeError(ValueError):
    pass


class GlueError(LatticeError):
    pass


class CapExceeded(RuntimeError):
    """An order, group closure, short-vector search or discriminant-form
    isomorphism search ran past its cap."""


# Candidate images fqf_isomorphic's backtracking may try before it raises
# CapExceeded.
NODE_BUDGET = 50_000


@dataclass(frozen=True)
class IntegralLattice:
    gram: tuple  # tuple of tuples of ints

    @cached_property
    def elimination(self):
        """symmetric_elimination(gram) as tuples, computed on first read:
        the one check of the Gram matrix, whose faults it names in a
        LatticeError."""
        try:
            rows, pivots = symmetric_elimination(self.gram)
        except ratmat.MatrixError:
            g = self.gram
            raise LatticeError("Gram matrix " + (
                "must be square" if any(len(row) != len(g) for row in g) else
                "must be symmetric" if tuple(zip(*g)) != g else "is degenerate")) from None
        return tuple(map(tuple, rows)), tuple(pivots)

    @property
    def det(self):
        """det of the Gram matrix: the last pivot of the elimination, 1 at rank 0."""
        pivots = self.elimination[1]
        return pivots[-1] if pivots else 1

    @cached_property
    def smith(self):
        """snf(gram) as (U, D, V), tuples of int tuples, computed on first read."""
        return tuple(tuple(map(tuple, m)) for m in snf(self.gram))

    @property
    def rank(self):
        return len(self.gram)

    @property
    def signature(self):
        return ratmat._sylvester(self.elimination[1])

    @property
    def is_even(self):
        return all(row[i] % 2 == 0 for i, row in enumerate(self.gram))

    def pairing(self, u, v):
        return ratmat.vec_dot(mat_vec(self.gram, list(v)), list(u))


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Discriminant group L*/L with its torsion quadratic form.

    invariant_factors: d_1 | d_2 | ... (each > 1)
    generator_lifts:   dual vectors in base coordinates; lift i has order d_i
    q_values:          q(lift_i) in Q/2Z, normalised into [0, 2)
    b_matrix:          b(lift_i, lift_j) in Q/Z, normalised into [0, 1)
    """
    invariant_factors: tuple
    generator_lifts: tuple
    q_values: tuple
    b_matrix: tuple

    @property
    def order(self):
        return prod(self.invariant_factors)


def make_lattice(gram):
    """Validate and build an integral lattice from a Gram matrix: convert
    the entries to ints, then read the elimination, which checks the
    shape, symmetry and nondegeneracy at once."""
    try:
        lat = IntegralLattice(tuple(tuple(map(to_int, row)) for row in gram))
    except ratmat.MatrixError as e:
        raise LatticeError("Gram matrix must be integral: %s" % e)
    lat.elimination
    return lat


def direct_sum(lattices):
    """The orthogonal sum, on the block-diagonal Gram matrix."""
    return IntegralLattice(tuple(map(tuple, block_diag([lat.gram for lat in lattices]))))


def rescale(lat, s):
    """L(s), the Gram matrix times the integer s."""
    try:
        s = to_int(s)
    except ratmat.MatrixError:
        raise LatticeError("rescale by non-integer %s" % (s,)) from None
    if s == 0:
        raise LatticeError("rescale by 0")
    return IntegralLattice(tuple(tuple(x * s for x in row) for row in lat.gram))


def invariant_factors(lat):
    """The invariant factors d_1 | d_2 | ... (each > 1) of L*/L = Z^n / G Z^n:
    the diagonal entries above 1 of the lattice's Smith form."""
    d = lat.smith[1]
    return tuple(row[i] for i, row in enumerate(d) if row[i] > 1)


def discriminant_group(lat):
    """Discriminant group L*/L as a finite quadratic form.

    Generator lifts come from the Smith normal form of the Gram matrix:
    with U G V = D, the class of column i of U^-1 generates a cyclic
    factor of order d_i in Z^n / G Z^n = L*/L, and its dual-vector lift
    in base coordinates is G^-1 applied to that column.

    The invariant factors are canonical; the generators are not.  They
    follow from the U that snf returns, so the lifts, q_values and
    b_matrix are fixed only up to isomorphism of the form (compare forms
    with fqf_isomorphic).  q is the diagonal of the lifts' pairings mod 2,
    well defined only on an even lattice, so an odd one is refused.
    """
    if not lat.is_even:
        raise LatticeError("discriminant form of an odd lattice: q mod 2 depends on the lift")
    n = lat.rank
    g = lat.gram
    u, d, v = snf(g)
    ginv = inverse(g)
    uinv = inverse(u)
    factors = []
    lifts = []
    for i in range(n):
        di = d[i][i]
        if di <= 1:
            continue
        col = [uinv[r][i] for r in range(n)]
        lift = mat_vec(ginv, col)
        factors.append(di)
        lifts.append(tuple(lift))
    pairs = [[lat.pairing(x, y) for y in lifts] for x in lifts]
    qs = tuple(row[i] % 2 for i, row in enumerate(pairs))
    bm = tuple(tuple(p % 1 for p in row) for row in pairs)
    return FiniteQuadraticForm(tuple(factors), tuple(lifts), qs, bm)


def overlattice(lat, glue):
    """Adjoin glue vectors to an even lattice; returns (L', index, B).

    Glue rows are rows of rationals in lat's coordinates.
    B is the change of basis: its rows express the basis of L' in the
    coordinates of the input lattice.  Everything runs on ints: with d the
    common denominator of the glue and W = d * glue, the glue must have
    G W divisible by d, each W_k G W_k by 2 d^2 and each W_a G W_b by d^2;
    B = H / d for the Hermite form H of [d I ; W], and L' is built as is
    on H G H^T / d^2.  The index [L' : L] = [H Z^n : d Z^n] = d^n / det H,
    H triangular, positive pivots.
    """
    n = lat.rank
    gram = lat.gram
    ws, d = clear_denominators(_rational_rows(glue, GlueError, "glue vector"))
    gws = []
    for k, w in enumerate(ws):
        if len(w) != n:
            raise GlueError("glue vector %d has wrong length" % k)
        gw = mat_vec(gram, w)
        for i, p in enumerate(gw):
            if p % d:
                raise GlueError(
                    "glue vector %d pairs non-integrally with basis vector %d "
                    "(value %s)" % (k, i, Fraction(p, d)))
        self_pair = vec_dot(w, gw)
        if self_pair % (2 * d * d):
            raise GlueError("glue vector %d has self-pairing %s not in 2Z"
                            % (k, Fraction(self_pair, d * d)))
        gws.append(gw)
    for a in range(len(ws)):
        for b in range(a + 1, len(ws)):
            p = vec_dot(ws[a], gws[b])
            if p % (d * d):
                raise GlueError(
                    "glue vectors %d and %d pair non-integrally (value %s)"
                    % (a, b, Fraction(p, d * d)))
    h, index = _glue_hermite(ws, d, n)
    # exact: the checks above make every pairing of L' integral
    new_gram = divide_exact(mat_mul(mat_mul(h, gram), transpose(h)), d * d)
    return (IntegralLattice(tuple(map(tuple, new_gram))), index,
            [[Fraction(x, d) for x in row] for row in h])


def _glue_hermite(ws, d, n):
    """(H, index): the Hermite form H of [d I_n ; ws], whose rows / d span
    Z^n + span(ws / d), and that lattice's index d^n / det H over Z^n."""
    h = hnf_int([[d * x for x in row] for row in identity(n)] + ws)
    return h, d ** n // prod(map(_pivot, h))


def span_index(rows):
    """[Z^n + span(rows) : Z^n] for rows of n rationals; 1 for no rows."""
    if not rows:
        return 1
    rows = _rational_rows(rows, LatticeError, "row")
    for k, r in enumerate(rows):
        if len(r) != len(rows[0]):
            raise LatticeError("row %d has length %d, not %d as row 0"
                               % (k, len(r), len(rows[0])))
    ws, d = clear_denominators(rows)
    return _glue_hermite(ws, d, len(ws[0]))[1]


def _rational_rows(rows, error, what):
    """rows as lists of ints and Fractions, else error naming the entry."""
    rows = [list(r) for r in rows]
    for k, r in enumerate(rows):
        for x in r:
            if not isinstance(x, (int, Fraction)):
                raise error("%s %d has entry %r, not an int or Fraction" % (what, k, x))
    return rows


def _rows_in(lat, rows):
    """rows as int lists, each of length lat.rank, else LatticeError."""
    rows = [list(r) for r in rows]
    for k, r in enumerate(rows):
        if len(r) != lat.rank:
            raise LatticeError("row %d has length %d, not the rank %d"
                               % (k, len(r), lat.rank))
    try:
        return [[to_int(x) for x in r] for r in rows]
    except ratmat.MatrixError as e:
        raise LatticeError("rows must be integral: %s" % e) from None


def sublattice(lat, rows):
    """Lattice on integer rows in lat's basis; its elimination rejects dependent rows."""
    rows = _rows_in(lat, rows)
    try:
        return make_lattice(mat_mul(mat_mul(rows, lat.gram), transpose(rows)))
    except LatticeError as e:
        raise LatticeError("sublattice rows are dependent or degenerate: %s" % e) from None


def saturation(lat, rows):
    """Primitive closure of the span of integer rows inside the lattice.

    Returns (basis_rows, index) where index is the index of the input
    Z-span inside its saturation.  The saturation is the kernel of the
    kernel of the rows, int_kernel(int_kernel(rows)), in Hermite normal
    form.  The Hermite basis H of the rows and that of the saturation
    have the same pivot columns, so the index is the product of H's
    pivots over the product of the saturation's.
    """
    rows = _rows_in(lat, rows)
    n = lat.rank
    k = len(rows)
    if not rows:
        return [], 1
    h = hnf_int(rows)
    if len(h) < k:
        raise LatticeError("saturation input rows are dependent")
    sat = int_kernel(int_kernel(rows)) if k < n else identity(n)
    return sat, prod(map(_pivot, h)) // prod(map(_pivot, sat))


def _pivot(row):
    return next(x for x in row if x)


def orthogonal_complement(lat, rows):
    """Saturated orthogonal complement of the span of integer rows.

    Returns (lattice, basis_rows) with basis_rows in lat coordinates.
    The lattice has rank 0 when rows span everything.
    """
    rows = _rows_in(lat, rows)
    n = lat.rank
    pair = [mat_vec(lat.gram, r) for r in rows]
    basis = int_kernel(pair) if pair else identity(n)
    # the Gram matrix is nondegenerate, so the rows are independent
    # exactly when their pairings leave a kernel of rank n - k
    if len(basis) != n - len(rows):
        raise LatticeError("orthogonal_complement input rows are dependent")
    return make_lattice(mat_mul(mat_mul(basis, lat.gram), transpose(basis))), basis


def _fqf_table(f, den):
    """Every element of f as (coeffs, order, Q, row), the coefficient
    tuples in itertools.product order over range(d_i), d_i the invariant
    factors: Q = den q(x) mod 2 den and row[j] = den b(x, gen_j) mod den,
    on ints.  den must clear the denominators of f's q and b values.  The
    table is built one generator at a time: adding c gen_i to a prefix x
    adds c^2 Q_i + 2 c row_x[i] to Q, the expansion of q(x + c gen_i)."""
    two_den = 2 * den
    table = [((), 1, 0, (0,) * len(f.invariant_factors))]
    for i, d in enumerate(f.invariant_factors):
        qi = int(f.q_values[i] * den)
        brow = [int(x * den) for x in f.b_matrix[i]]
        longer = []
        for coeffs, o, q, row in table:
            for c in range(d):
                longer.append((coeffs + (c,), lcm(o, d // gcd(c, d)),
                               (q + c * c * qi + 2 * c * row[i]) % two_den,
                               tuple((r + c * b) % den for r, b in zip(row, brow))))
        table = longer
    return table


def fqf_isomorphic(f1, f2):
    """Search for an isomorphism of finite quadratic forms.

    Returns a witness (tuple of images of f1's generators, as coefficient
    tuples in f2) or None if no isomorphism exists.  Raises CapExceeded
    when the order exceeds NODE_BUDGET (before any table is built) or the
    backtracking tries more than NODE_BUDGET candidate images.

    The search runs on int tables (_fqf_table) over den, the lcm of the
    denominators of both forms' q and b values: the (element order, q)
    multisets must agree, and a candidate image x of generator i needs
    f1's order and q, then b(x, y) = sum_j row_x[j] y[j] mod den against
    each earlier image y and itself.  Candidates are scanned in
    _fqf_table's order, itertools.product order of the coefficient
    tuples, so witnesses and node counts are those of a Fraction search
    over the same elements.
    """
    if f1.order != f2.order:
        return None
    if sorted(f1.invariant_factors) != sorted(f2.invariant_factors):
        return None
    if f1.order > NODE_BUDGET:
        raise CapExceeded("isomorphism search on order %d past %d nodes"
                          % (f1.order, NODE_BUDGET))
    den = lcm(*(Fraction(x).denominator for f in (f1, f2)
                for x in f.q_values + tuple(v for row in f.b_matrix for v in row)))
    table1 = _fqf_table(f1, den)
    pool = _fqf_table(f2, den)
    # full-multiset prune on (element order, q value)
    if sorted(e[1:3] for e in table1) != sorted(e[1:3] for e in pool):
        return None

    k = len(f1.invariant_factors)
    q1 = [int(x * den) % (2 * den) for x in f1.q_values]
    b1 = [[int(x * den) % den for x in row] for row in f1.b_matrix]
    mods = f2.invariant_factors
    assigned = []

    def generated_order(images):
        seen = {(0,) * k}
        frontier = list(seen)
        while frontier:
            new = []
            for x in frontier:
                for img in images:
                    y = tuple((a + b) % d for a, b, d in zip(x, img, mods))
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return len(seen)

    nodes = 0

    def backtrack(i):
        nonlocal nodes
        if i == k:
            return generated_order(assigned) == f2.order
        want_order, want_q, want_b = f1.invariant_factors[i], q1[i], b1[i]
        for cand, o, q, row in pool:
            nodes += 1
            if nodes > NODE_BUDGET:
                raise CapExceeded("isomorphism search past %d nodes" % NODE_BUDGET)
            if o != want_order or q != want_q:
                continue
            if any(sum(map(mul, row, prev)) % den != want_b[j]
                   for j, prev in enumerate(assigned)):
                continue
            if sum(map(mul, row, cand)) % den != want_b[i]:
                continue
            assigned.append(cand)
            if backtrack(i + 1):
                return True
            assigned.pop()
        return False

    if backtrack(0):
        return tuple(assigned)
    return None
