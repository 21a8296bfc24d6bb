"""Reference arithmetic on a latkit FiniteQuadraticForm: the Fraction
q and b values of elements given by their coefficients on the generators,
element orders, and every element in itertools.product order.  These were
FiniteQuadraticForm methods before fqf_isomorphic moved to int tables;
tests check witnesses and seeded forms with them."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm


def q_of(f, coeffs):
    """q of the element sum(coeffs[i] * lift_i), in [0, 2)."""
    val = Fraction(0)
    k = len(f.invariant_factors)
    for i in range(k):
        val += coeffs[i] * coeffs[i] * f.q_values[i]
        for j in range(i + 1, k):
            val += 2 * coeffs[i] * coeffs[j] * f.b_matrix[i][j]
    return val % 2


def b_of(f, x, y):
    """b of the elements with coefficients x and y, in [0, 1)."""
    val = Fraction(0)
    k = len(f.invariant_factors)
    for i in range(k):
        for j in range(k):
            val += x[i] * y[j] * f.b_matrix[i][j]
    return val % 1


def element_order(f, coeffs):
    o = 1
    for a, d in zip(coeffs, f.invariant_factors):
        o = lcm(o, d // gcd(a, d))
    return o


def elements(f):
    """Every element's coefficient tuple, in itertools.product order."""
    return product(*(range(d) for d in f.invariant_factors))
