"""Exact arithmetic in Q(w), w a primitive 5th root of unity.

An element is four int numerators n on the power basis {1, w, w^2, w^3}
over one positive int denominator d, in lowest terms (zero is 0/1); w^4 is
eliminated through 1 + w + w^2 + w^3 + w^4 = 0, so == compares (n, d),
and so does hash except on a rational element, which hashes as the int or
Fraction it equals.  +, - and * run on ints and take a gcd only when d is
not 1.  Fractions appear only in the constructor from rationals, repr and
the hash of a rational that is not an int.  Values are immutable.  rref
solves over Q(w) with ratmat's fraction-free elimination on the int
power-basis expansion of the rows.
"""

from fractions import Fraction
from math import gcd, lcm

from . import ratmat


class CycloError(ArithmeticError):
    pass


def _make(n, d):
    """The element n / d (d > 0) in lowest terms."""
    if d != 1:
        g = gcd(*n, d)
        if g != 1:
            n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
            d //= g
    x = _alloc(Cyc5)
    _set_n(x, n)
    _set_d(x, d)
    return x


def _coerce(x):
    if isinstance(x, Cyc5):
        return x
    if isinstance(x, int):
        return _make((x, 0, 0, 0), 1)
    if isinstance(x, Fraction):
        return _make((x.numerator, 0, 0, 0), x.denominator)
    return NotImplemented


class Cyc5:
    __slots__ = ("n", "d")

    def __init__(self, coeffs=(0, 0, 0, 0)):
        """From four rationals; over the lcm of their reduced denominators
        the numerators are already in lowest terms."""
        if len(coeffs) != 4:
            raise CycloError("need 4 coefficients on the basis 1, w, w^2, w^3")
        q = [Fraction(x) for x in coeffs]
        d = lcm(*(x.denominator for x in q))
        _set_n(self, tuple(x.numerator * (d // x.denominator) for x in q))
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("Cyc5 is immutable")

    @staticmethod
    def zero():
        return _make((0, 0, 0, 0), 1)

    @staticmethod
    def one():
        return _make((1, 0, 0, 0), 1)

    @staticmethod
    def omega(k=1):
        """w^k reduced to the power basis."""
        return _make(_POWERS[k % 5], 1)

    def __bool__(self):
        return self.n != (0, 0, 0, 0)

    def __eq__(self, other):
        if not isinstance(other, Cyc5):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        n, d = self.n, self.d
        if n[1] or n[2] or n[3]:
            return hash((n, d))
        return hash(n[0] if d == 1 else Fraction(n[0], d))

    def __neg__(self):
        a = self.n
        return _make((-a[0], -a[1], -a[2], -a[3]), self.d)

    def __add__(self, other):
        if not isinstance(other, Cyc5):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, da, db = self.n, other.n, self.d, other.d
        if da == db:
            return _make((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]), da)
        return _make((a[0] * db + b[0] * da, a[1] * db + b[1] * da,
                      a[2] * db + b[2] * da, a[3] * db + b[3] * da), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """The product of the two cubics, with w^5 = 1, w^6 = w and the w^4
        coefficient p4 taken off the other four (w^4 = -1 - w - w^2 - w^3)."""
        if not isinstance(other, Cyc5):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        p4 = a1 * b3 + a2 * b2 + a3 * b1
        return _make((a0 * b0 + a2 * b3 + a3 * b2 - p4,
                      a0 * b1 + a1 * b0 + a3 * b3 - p4,
                      a0 * b2 + a1 * b1 + a2 * b0 - p4,
                      a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - p4), self.d * other.d)

    __rmul__ = __mul__

    def conj(self, k):
        """Galois conjugate w -> w^k (k coprime to 5); an automorphism of
        Z[w], so it keeps the numerators coprime to d."""
        if k % 5 == 0:
            raise CycloError("w -> w^0 is not a field automorphism")
        e = [0] * 5
        for i, x in enumerate(self.n):
            e[i * k % 5] += x
        t = e[4]
        return _make((e[0] - t, e[1] - t, e[2] - t, e[3] - t), self.d)

    def inv(self):
        """c / N(self), c the product of the three other conjugates and the
        norm N(self) = self * c = m / e, a positive rational (it is
        |s1(self)|^2 |s2(self)|^2 for two complex embeddings s1, s2)."""
        if not self:
            raise CycloError("inversion of zero in Q(w)")
        c = self.conj(2) * self.conj(3) * self.conj(4)
        norm = self * c
        return _make(tuple(x * norm.d for x in c.n), c.d * norm.n[0])

    def __repr__(self):
        terms = []
        for num, name in zip(self.n, ("", "w", "w^2", "w^3")):
            if num:
                coef = Fraction(num, self.d)
                term = (str(coef) if not name else name if coef == 1
                        else "-" + name if coef == -1 else "%s*%s" % (coef, name))
                terms.append(term if not terms or term[0] == "-" else "+" + term)
        return "".join(terms) or "0"


_alloc = object.__new__
_set_n = Cyc5.n.__set__
_set_d = Cyc5.d.__set__
_POWERS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1))


def rref(rows, ncols):
    """Reduced row echelon form over Q(w) of Cyc5 rows, as ratmat.rref.

    Row r is scaled to ints by the lcm of its denominators and expands,
    lazily (the elimination keeps only its own copy), into the rows w^k r
    (k = 0..3) in power-basis coordinates, with w (a, b, c, d) =
    (-d, a - d, b - d, c - d).  They Q-span the Q(w) row space, whose
    rational RREF has pivots at all 4 coordinates of each Q(w) pivot column
    j: its row with pivot 4j is the Q(w) row.  ratmat's fraction-free
    elimination leaves that row times its last pivot d, so each Q(w) entry
    is four ints over d, signs flipped first if d < 0."""
    def expanded():
        for row in rows:
            s = lcm(*(x.d for x in row))
            coords = [x.n if x.d == s else tuple(t * (s // x.d) for t in x.n) for x in row]
            for _ in range(4):
                yield [t for x in coords for t in x]
                coords = [(-d, a - d, b - d, c - d) for a, b, c, d in coords]
    red, pivots, d, _, _ = ratmat._fraction_free(expanded(), 4 * ncols)
    red = red[::4]
    if d < 0:
        red, d = [[-x for x in row] for row in red], -d
    return ([[_make((row[k], row[k + 1], row[k + 2], row[k + 3]), d)
              for k in range(0, len(row), 4)] for row in red],
            [c // 4 for c in pivots[::4]])
