"""Exact arithmetic in Q(w), w a primitive 5th root of unity.

Elements are stored on the power basis {1, w, w^2, w^3}; w^4 is always
eliminated through 1 + w + w^2 + w^3 + w^4 = 0, so representatives are
unique.  Values are immutable; rref solves over Q(w) through ratmat.rref.
"""

from fractions import Fraction

from . import ratmat


class CycloError(ArithmeticError):
    pass


def _coerce(x):
    if isinstance(x, Cyc5):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc5((Fraction(x), Fraction(0), Fraction(0), Fraction(0)))
    return NotImplemented


class Cyc5:
    __slots__ = ("c",)

    def __init__(self, coeffs=(0, 0, 0, 0)):
        if len(coeffs) != 4:
            raise CycloError("need 4 coefficients on the basis 1, w, w^2, w^3")
        object.__setattr__(self, "c", tuple(Fraction(x) for x in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Cyc5 is immutable")

    @staticmethod
    def zero():
        return Cyc5()

    @staticmethod
    def one():
        return Cyc5((1, 0, 0, 0))

    @staticmethod
    def omega(k=1):
        """w^k reduced to the power basis."""
        k %= 5
        if k < 4:
            coeffs = [0, 0, 0, 0]
            coeffs[k] = 1
            return Cyc5(coeffs)
        return Cyc5((-1, -1, -1, -1))

    @property
    def is_rational(self):
        return self.c[1] == self.c[2] == self.c[3] == 0

    def rational_value(self):
        if not self.is_rational:
            raise CycloError("%r is not rational" % (self,))
        return self.c[0]

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __neg__(self):
        return Cyc5(tuple(-x for x in self.c))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyc5(tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyc5(tuple(a - b for a, b in zip(self.c, other.c)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        prod = [Fraction(0)] * 7
        for i in range(4):
            if not a[i]:
                continue
            for j in range(4):
                if b[j]:
                    prod[i + j] += a[i] * b[j]
        # exponents 5, 6 wrap around; exponent 4 eliminated by Phi_5
        out = [prod[0] + prod[5], prod[1] + prod[6], prod[2], prod[3]]
        w4 = prod[4]
        if w4:
            out = [x - w4 for x in out]
        return Cyc5(out)

    __rmul__ = __mul__

    def conj(self, k):
        """Galois conjugate w -> w^k (k coprime to 5)."""
        if k % 5 == 0:
            raise CycloError("w -> w^0 is not a field automorphism")
        out = Cyc5((self.c[0], 0, 0, 0))
        for i in (1, 2, 3):
            if self.c[i]:
                out = out + Cyc5.omega(i * k) * self.c[i]
        return out

    def norm(self):
        """Field norm to Q (product over the four Galois conjugates)."""
        n = self
        for k in (2, 3, 4):
            n = n * self.conj(k)
        return n.rational_value()

    def inv(self):
        if not self:
            raise CycloError("inversion of zero in Q(w)")
        conj_prod = self.conj(2) * self.conj(3) * self.conj(4)
        n = (self * conj_prod).rational_value()
        return conj_prod * (Fraction(1) / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = Cyc5.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        names = ["", "w", "w^2", "w^3"]
        for coef, name in zip(self.c, names):
            if not coef:
                continue
            if name and coef == 1:
                term = name
            elif name and coef == -1:
                term = "-" + name
            elif name:
                term = "%s*%s" % (coef, name)
            else:
                term = str(coef)
            parts.append(term)
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s


def rref(rows, ncols):
    """Reduced row echelon form over Q(w) of Cyc5 rows, as ratmat.rref.

    Row r expands, lazily (ratmat keeps only its int copy), into the rows
    w^k r (k = 0..3) in power-basis coordinates, with w (a, b, c, d) =
    (-d, a - d, b - d, c - d).  They Q-span the Q(w) row space, whose
    rational RREF has pivots at all 4 coordinates of each Q(w) pivot column
    j: its row with pivot 4j is the Q(w) row."""
    def expanded():
        for row in rows:
            coords = [x.c for x in row]
            for _ in range(4):
                yield [t for x in coords for t in x]
                coords = [(-d, a - d, b - d, c - d) for a, b, c, d in coords]
    red, pivots = ratmat.rref(expanded(), 4 * ncols)
    return ([[Cyc5(row[k:k + 4]) for k in range(0, len(row), 4)] for row in red[::4]],
            [c // 4 for c in pivots[::4]])
