"""Reference inverse and identity test for a latkit Isometry.  These were
Isometry methods before order moved onto group_closure and left them
without a caller in latkit; tests check relations such as h g h^-1 g = 1
and oracle closures over inverses with them."""

from latkit.isometry import Isometry
from latkit.ratmat import divide_exact, scaled_inverse


def inverse(iso):
    """The inverse isometry: the matrix is unimodular, so d = +-1 divides
    the scaled inverse d M^-1 exactly."""
    b, d = scaled_inverse(iso.matrix)
    return Isometry(iso.lattice, tuple(map(tuple, divide_exact(b, d))))


def is_identity(iso):
    n = iso.lattice.rank
    return all(iso.matrix[i][j] == (i == j) for i in range(n) for j in range(n))
