"""Isometries of integral lattices: validation, order, discriminant action,
finite group closure and invariant sublattices.

Matrices act on column coordinate vectors in the lattice basis, so for a
row vector v the image has coordinates M . v^T.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .ratmat import det, identity, int_kernel, mat_mul, mat_vec, to_int, transpose
from .lattice import CapExceeded, LatticeError, sublattice


class IsometryError(LatticeError):
    pass


@dataclass(frozen=True)
class Isometry:
    lattice: object
    matrix: tuple  # tuple of tuples of ints

    @property
    def rows(self):
        return [list(r) for r in self.matrix]

    def __mul__(self, other):
        if other.lattice != self.lattice:
            raise IsometryError("isometries live on different lattices")
        return Isometry(self.lattice,
                        tuple(tuple(x) for x in mat_mul(self.rows, other.rows)))

    def inverse(self):
        inv = ratmat.inverse(self.rows)
        return Isometry(self.lattice, tuple(tuple(to_int(x) for x in r) for r in inv))

    def is_identity(self):
        n = self.lattice.rank
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


def make_isometry(lat, matrix):
    """Validate M^T G M = G; on failure the error carries the Gram defect."""
    rows = [[to_int(x) for x in r] for r in matrix]
    n = lat.rank
    if len(rows) != n or any(len(r) != n for r in rows):
        raise IsometryError("isometry matrix must be %d x %d" % (n, n))
    g = lat.gram_rows
    lhs = mat_mul(mat_mul(transpose(rows), g), rows)
    defect = [[lhs[i][j] - g[i][j] for j in range(lat.rank)] for i in range(lat.rank)]
    if any(any(row) for row in defect):
        raise IsometryError("matrix does not preserve the Gram form; defect %s" % (defect,))
    if abs(det(rows)) != 1:
        raise IsometryError("isometry matrix is not unimodular")
    return Isometry(lat, tuple(tuple(r) for r in rows))


def order(iso, cap=1000):
    """Least k >= 1 with M^k = I; raises CapExceeded rather than looping."""
    acc = iso
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * iso
    raise CapExceeded("order not found within cap %d" % cap)


def disc_action_trivial(lat, iso, fqf=None):
    """True iff the isometry fixes every class of the discriminant group,
    i.e. M x - x is integral for each generator lift x."""
    from .lattice import discriminant_group
    if fqf is None:
        fqf = discriminant_group(lat)
    for lift in fqf.generator_lifts:
        img = mat_vec(iso.rows, list(lift))
        if any(Fraction(a - b).denominator != 1 for a, b in zip(img, lift)):
            return False
    return True


@dataclass(frozen=True)
class GroupClosure:
    lattice: object
    elements: tuple  # sorted tuple of matrix tuples

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, iso):
        return iso.matrix in self.elements


def group_closure(gens, cap=10000):
    """Breadth-first closure of the generated matrix group."""
    if not gens:
        raise IsometryError("need at least one generator")
    lat = gens[0].lattice
    for g in gens:
        if g.lattice != lat:
            raise IsometryError("generators live on different lattices")
    gens = list(gens) + [g.inverse() for g in gens]
    n = lat.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            mi = Isometry(lat, m)
            for g in gens:
                prod = (mi * g).matrix
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise CapExceeded(
                            "group closure exceeded cap %d; infinite or large group" % cap)
                    new.append(prod)
        frontier = new
    return GroupClosure(lat, tuple(sorted(seen)))


def invariant_sublattice(lat, closure):
    """Saturated fixed sublattice of the group: kernel of stacked (M - I).

    Returns (lattice_or_rank0, basis_rows).
    """
    n = lat.rank
    stacked = []
    for m in closure.elements:
        for i in range(n):
            row = [m[i][j] - (1 if i == j else 0) for j in range(n)]
            if any(row):
                stacked.append(row)
    basis = int_kernel(stacked) if stacked else identity(n)
    if not basis:
        from .lattice import IntegralLattice
        return IntegralLattice(()), []
    return sublattice(lat, basis), basis


def acts_as_minus_one(iso, rows):
    """True iff the isometry sends every row vector to its negative."""
    for r in rows:
        img = mat_vec(iso.rows, list(r))
        if any(a != -b for a, b in zip(img, r)):
            return False
    return True
