"""Isometries of integral lattices: validation, order, discriminant action,
finite group closure and invariant sublattices.

Matrices act on column coordinate vectors in the lattice basis, so for a
row vector v the image has coordinates M . v^T.
"""

from dataclasses import dataclass

from .ratmat import MatrixError, identity, int_kernel, mat_mul, mat_vec, to_int, transpose
from .lattice import CapExceeded, LatticeError, sublattice


class IsometryError(LatticeError):
    pass


# Elements group_closure (and so order) keeps before CapExceeded.
CLOSURE_BUDGET = 10_000


@dataclass(frozen=True)
class Isometry:
    lattice: object
    matrix: tuple  # tuple of tuples of ints

    def __mul__(self, other):
        if other.lattice != self.lattice:
            raise IsometryError("isometries live on different lattices")
        return Isometry(self.lattice, tuple(map(tuple, mat_mul(self.matrix, other.matrix))))


def make_isometry(lat, matrix):
    """Validate M^T G M = G; on failure the error carries the Gram defect.
    That gives det(M)^2 = 1 when det G != 0, so a degenerate G is refused."""
    try:
        rows = [[to_int(x) for x in r] for r in matrix]
    except MatrixError as e:
        raise IsometryError("isometry matrix must be integral: %s" % e) from None
    n = lat.rank
    if len(rows) != n or any(len(r) != n for r in rows):
        raise IsometryError("isometry matrix must be %d x %d" % (n, n))
    if lat.det == 0:
        raise IsometryError("degenerate lattice: M^T G M = G does not make M unimodular")
    g = lat.gram
    lhs = mat_mul(mat_mul(transpose(rows), g), rows)
    defect = [[lhs[i][j] - g[i][j] for j in range(lat.rank)] for i in range(lat.rank)]
    if any(any(row) for row in defect):
        raise IsometryError("matrix does not preserve the Gram form; defect %s" % (defect,))
    return Isometry(lat, tuple(tuple(r) for r in rows))


def order(iso):
    """Least k >= 1 with M^k = I: the size of the cyclic group it generates,
    so past CLOSURE_BUDGET it raises group_closure's CapExceeded."""
    return group_closure([iso]).order


def _check_lattice(lat, isos):
    for k, iso in enumerate(isos):
        if iso.lattice != lat:
            raise IsometryError("isometry %d lives on another lattice" % k)


def disc_action_trivial(lat, iso):
    """True iff the isometry fixes every class of L*/L, i.e. (M - I) L* is
    in L.  With U G V = D the lattice's Smith form, G^-1 = V D^-1 U and U
    is unimodular, so the columns v_i / d_i of V D^-1 generate L*, and the
    test is (M - I) v_i = 0 mod d_i for each d_i > 1.  No inverse is taken.
    An isometry of another lattice: IsometryError."""
    _check_lattice(lat, [iso])
    _, d, v = lat.smith
    factors = [(i, row[i]) for i, row in enumerate(d) if row[i] > 1]
    cols = [[row[i] for i, _ in factors] for row in v]
    moved = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(iso.matrix)]
    return not any(x % di for row in mat_mul(moved, cols) for x, (_, di) in zip(row, factors))


@dataclass(frozen=True)
class GroupClosure:
    lattice: object
    elements: tuple  # sorted tuple of matrix tuples

    @property
    def order(self):
        return len(self.elements)


def group_closure(gens):
    """Breadth-first closure of the generated matrix group.

    Each new element is multiplied on the right by the generators only:
    in a finite group every inverse is a positive power, so the closure
    is the whole group, and an infinite group runs past CLOSURE_BUDGET (CapExceeded).
    """
    if not gens:
        raise IsometryError("need at least one generator")
    lat = gens[0].lattice
    _check_lattice(lat, gens)
    n = lat.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = tuple(map(tuple, mat_mul(m, g.matrix)))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > CLOSURE_BUDGET:
                        raise CapExceeded("group closure exceeded cap %d; infinite or "
                                          "large group" % CLOSURE_BUDGET)
                    new.append(prod)
        frontier = new
    return GroupClosure(lat, tuple(sorted(seen)))


def invariant_sublattice(lat, gens):
    """Saturated sublattice fixed by the group the isometries gens
    generate: a vector is fixed by the group iff it is fixed by every
    generator, so this is int_kernel of the stacked rows of g - I (in
    Hermite normal form).

    Returns (lattice, basis_rows), of rank 0 when nothing is fixed.  An
    isometry of another lattice: IsometryError.
    """
    _check_lattice(lat, gens)
    stacked = []
    for g in gens:
        for i, row in enumerate(g.matrix):
            moved = [x - (1 if i == j else 0) for j, x in enumerate(row)]
            if any(moved):
                stacked.append(moved)
    basis = int_kernel(stacked) if stacked else identity(lat.rank)
    return sublattice(lat, basis), basis


def acts_as_minus_one(iso, rows):
    """True iff the isometry sends every row vector to its negative."""
    n = iso.lattice.rank
    for k, r in enumerate(rows):
        if len(r) != n:
            raise IsometryError("row %d has length %d, not the rank %d" % (k, len(r), n))
        img = mat_vec(iso.matrix, list(r))
        if any(a != -b for a, b in zip(img, r)):
            return False
    return True
