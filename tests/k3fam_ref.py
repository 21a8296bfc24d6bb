"""The dense ProjectiveMap product that k3fam's product over nonzero
entries replaced: entry (i, j) is the sum, over k in increasing order and
started from Cyc5.zero(), of the products a[i][k] b[k][j] whose factors
are both nonzero.  It forms all n^2 sums, whatever the zero pattern.
Tests compare ProjectiveMap.__mul__ against it entry by entry."""

from latkit.cyclo import Cyc5


def dense_product(a, b):
    """a b for square matrices of Cyc5, as a tuple of row tuples."""
    zero = Cyc5.zero()
    out = []
    for row in a:
        nz = [(k, x) for k, x in enumerate(row) if x]
        out.append(tuple(sum((x * b[k][j] for k, x in nz if b[k][j]), zero)
                         for j in range(len(b))))
    return tuple(out)

