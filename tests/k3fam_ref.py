"""The dense ProjectiveMap product that k3fam's product over nonzero
entries replaced: entry (i, j) is the sum, over k in increasing order and
started from Cyc5.zero(), of the products a[i][k] b[k][j] whose factors
are both nonzero.  It forms all n^2 sums, whatever the zero pattern.
Tests compare ProjectiveMap.__mul__ against it entry by entry.

The Horner evaluation of eigenvalue multiplicities in Q(w) that
k3fam.commutant_dim's int helper replaced is the oracle for that helper."""

from functools import reduce

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


def horner_multiplicities(matrix):
    """The eigenvalue multiplicities of a map with sigma^10 = I as
    k3fam.commutant_dim read them before its int helper: traces summed as
    Cyc5 from Cyc5.zero(), over dense powers, and, for each of the ten
    x = w^0 .. w^4, -w^0 .. -w^4 in turn, the multiplicity d of lambda = 1 / x
    as 10 d = sum_{j<10} tr(sigma^j) x^j by Horner's rule.  Returns the ten
    d as Fractions."""
    n = len(matrix)
    power = tuple(tuple(Cyc5.one() if i == j else Cyc5.zero() for j in range(n))
                  for i in range(n))
    traces = []
    for _ in range(10):
        traces.append(sum((power[i][i] for i in range(n)), Cyc5.zero()))
        power = dense_product(power, matrix)
    return [reduce(lambda acc, t: acc * x + t, traces[::-1]).rational_value() / 10
            for x in (Cyc5.omega(k) * s for s in (1, -1) for k in range(5))]
