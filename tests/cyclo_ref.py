"""Reference arithmetic for Q(w), w a primitive 5th root of unity: the
Fraction implementation that latkit.cyclo.Cyc5 replaced (four Fractions on
the power basis 1, w, w^2, w^3, products by the 4 x 4 convolution, inverse
through the Galois conjugates), with division, the field norm and negative
powers, and a Gauss-Jordan elimination that scales each pivot row by the
pivot's inverse.  Tests compare latkit's int Cyc5 and cyclo.rref against these; no
code from latkit.cyclo runs here, only to_ref and from_ref read or build
its values."""

from fractions import Fraction

from latkit import cyclo


class RefError(ArithmeticError):
    pass


def _coerce(x):
    if isinstance(x, RefCyc5):
        return x
    if isinstance(x, (int, Fraction)):
        return RefCyc5((Fraction(x), Fraction(0), Fraction(0), Fraction(0)))
    return NotImplemented


class RefCyc5:
    __slots__ = ("c",)

    def __init__(self, coeffs=(0, 0, 0, 0)):
        if len(coeffs) != 4:
            raise RefError("need 4 coefficients on the basis 1, w, w^2, w^3")
        object.__setattr__(self, "c", tuple(Fraction(x) for x in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("RefCyc5 is immutable")

    @staticmethod
    def zero():
        return RefCyc5()

    @staticmethod
    def one():
        return RefCyc5((1, 0, 0, 0))

    @staticmethod
    def omega(k=1):
        """w^k reduced to the power basis."""
        k %= 5
        if k < 4:
            coeffs = [0, 0, 0, 0]
            coeffs[k] = 1
            return RefCyc5(coeffs)
        return RefCyc5((-1, -1, -1, -1))

    def rational_value(self):
        if any(self.c[1:]):
            raise RefError("%r is not rational" % (self,))
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
        return RefCyc5(tuple(-x for x in self.c))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RefCyc5(tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RefCyc5(tuple(a - b for a, b in zip(self.c, other.c)))

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
        return RefCyc5(out)

    __rmul__ = __mul__

    def conj(self, k):
        """Galois conjugate w -> w^k (k coprime to 5)."""
        if k % 5 == 0:
            raise RefError("w -> w^0 is not a field automorphism")
        out = RefCyc5((self.c[0], 0, 0, 0))
        for i in (1, 2, 3):
            if self.c[i]:
                out = out + RefCyc5.omega(i * k) * self.c[i]
        return out

    def norm(self):
        """Field norm to Q (product over the four Galois conjugates)."""
        n = self
        for k in (2, 3, 4):
            n = n * self.conj(k)
        return n.rational_value()

    def inv(self):
        if not self:
            raise RefError("inversion of zero in Q(w)")
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
        out = RefCyc5.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return "RefCyc5(%s)" % ", ".join(str(x) for x in self.c)


def to_ref(x):
    """A latkit Cyc5, int or Fraction as a RefCyc5 (a RefCyc5 as itself)."""
    if isinstance(x, cyclo.Cyc5):
        return RefCyc5([Fraction(t, x.d) for t in x.n])
    return _coerce(x)


def from_ref(x):
    return cyclo.Cyc5(x.c)


def ref_matrix(rows):
    return [[to_ref(x) for x in row] for row in rows]


def from_ref_matrix(rows):
    return [[from_ref(x) for x in row] for row in rows]


def ref_rref(rows, ncols):
    """Reduced row echelon form over Q(w) by Gauss-Jordan with division by
    each pivot; Cyc5, int and Fraction entries are taken to RefCyc5 first.
    Returns (R, pivots)."""
    a = ref_matrix(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        # one inversion per pivot: each `/` would redo the three conjugates
        inv = a[r][c].inv()
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def ref_kernel(rows, ncols):
    """Basis (as rows of RefCyc5) of the right kernel {x : A x = 0}."""
    red, pivots = ref_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [RefCyc5.zero()] * ncols
        v[f] = RefCyc5.one()
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis
