import math
import random
from fractions import Fraction

import pytest

from cyclo_ref import RefCyc5, from_ref, ref_rref, to_ref
from latkit import cyclo, ratmat
from latkit.cyclo import Cyc5, CycloError


def rand_elt(rng):
    return Cyc5(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(4)))


def test_omega_relations():
    w = Cyc5.omega
    assert w(0) == Cyc5.one()
    assert w(1) * w(1) * w(1) * w(1) * w(1) == Cyc5.one()
    total = Cyc5.zero()
    for k in range(5):
        total = total + w(k)
    assert not total
    assert w(4) == Cyc5((-1, -1, -1, -1))
    assert w(7) == w(2)


def test_field_axioms_random():
    rng = random.Random(55)
    for _ in range(200):
        a, b, c = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Cyc5.zero() == a
        assert a * Cyc5.one() == a
        assert a - a == Cyc5.zero()
        if a:
            assert a * a.inv() == Cyc5.one()


def test_inverse_and_division():
    w = Cyc5.omega(1)
    assert w.inv() == Cyc5.omega(4)
    with pytest.raises(CycloError):
        Cyc5.zero().inv()
    # division lives only in the reference
    rw = RefCyc5.omega(1)
    assert (RefCyc5.one() + rw) / (RefCyc5.one() + rw) == RefCyc5.one()
    assert 1 / rw == RefCyc5.omega(4)


def test_norm_is_rational_and_multiplicative():
    rng = random.Random(56)
    for _ in range(50):
        a, b = to_ref(rand_elt(rng)), to_ref(rand_elt(rng))
        if not a or not b:
            continue
        assert (a * b).norm() == a.norm() * b.norm()
    # norm of 1 - w is Phi_5(1) = 5
    assert (RefCyc5.one() - RefCyc5.omega(1)).norm() == 5


def test_conj_is_automorphism():
    rng = random.Random(57)
    for _ in range(50):
        a, b = rand_elt(rng), rand_elt(rng)
        for k in (2, 3, 4):
            assert (a * b).conj(k) == a.conj(k) * b.conj(k)
            assert (a + b).conj(k) == a.conj(k) + b.conj(k)
    with pytest.raises(CycloError):
        Cyc5.one().conj(5)


def test_int_coercion_and_repr():
    assert Cyc5.one() * 3 == Cyc5((3, 0, 0, 0))
    assert 2 + Cyc5.omega(1) == Cyc5((2, 1, 0, 0))
    assert repr(Cyc5.zero()) == "0"
    assert repr(Cyc5((1, -1, 0, 0))) == "1-w"


def test_immutability_and_hash():
    a = Cyc5.one()
    with pytest.raises(AttributeError):
        a.n = (2, 0, 0, 0)
    with pytest.raises(AttributeError):
        a.d = 2
    assert hash(Cyc5((1, 0, 0, 0))) == hash(Cyc5.one())


def test_rationals_hash_as_the_number_they_equal():
    # == holds across int, Fraction and Cyc5, and hash agrees with it, so
    # dict and set lookups mix the three
    rng = random.Random(163)
    for _ in range(200):
        r = Fraction(rng.randint(-50, 50), rng.choice((1, 1, 2, 3, 7, 12)))
        c = Cyc5((r, 0, 0, 0))
        assert c == r and hash(c) == hash(r)
        if r.denominator == 1:
            assert c == int(r) and hash(c) == hash(int(r))
    assert {1: "a"}[Cyc5.one()] == "a" and {Cyc5.one(): "a"}[1] == "a"
    assert len({1, Cyc5.one(), Fraction(1)}) == 1
    half = Cyc5((Fraction(1, 2), 0, 0, 0))
    assert {Fraction(1, 2): "h"}[half] == "h" and len({half, Fraction(2, 4)}) == 1
    assert {0: "z"}[Cyc5.zero()] == "z" and Cyc5.omega(1) not in {1: "a"}
    # equal non-rational elements still hash equal
    for _ in range(100):
        a = rand_elt(rng)
        b = Cyc5(tuple(Fraction(x * 3, 3) for x in a.n)) * Fraction(1, a.d)
        assert a == b and hash(a) == hash(b)


def test_canonical_form():
    half = Cyc5((Fraction(1, 2), 0, 0, 0))
    assert Cyc5((Fraction(2, 4), 0, 0, 0)) == half
    assert half != Cyc5((Fraction(1, 3), 0, 0, 0)) and half != 1
    assert hash(Cyc5((Fraction(2, 4), 0, 0, 0))) == hash(half)
    quarter = Cyc5((Fraction(1, 4), 0, 0, 0))
    assert quarter + quarter == half and hash(quarter + quarter) == hash(half)
    assert (quarter + quarter).d == 2
    assert half * 2 == Cyc5.one() and (half * 2).d == 1
    sevenths = Cyc5((Fraction(1, 7), Fraction(-2, 7), 0, Fraction(3, 7)))
    zero = sevenths - sevenths
    assert zero == Cyc5.zero() and hash(zero) == hash(Cyc5.zero())
    assert zero.n == (0, 0, 0, 0) and zero.d == 1 and not zero
    assert (sevenths + (-sevenths)) == 0
    # the numerators share a factor with the denominator only jointly
    mixed = Cyc5((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 0))
    assert (mixed.n, mixed.d) == ((1, 2, 3, 0), 6)
    assert mixed + mixed + mixed == Cyc5((Fraction(1, 2), 1, Fraction(3, 2), 0))
    assert (mixed * 6).d == 1 and (mixed * 6).n == (1, 2, 3, 0)


def test_matches_reference_with_denominators():
    """Elements with denominators 1-12 against the Fraction reference:
    +, -, *, ==, hash and inv, then cyclo.rref on random 3 x 5 matrices
    (some with a dependent row) against the division Gauss-Jordan."""
    rng = random.Random(71)

    def rand_den(p_zero=0.2):
        if rng.random() < p_zero:
            return Cyc5.zero()
        d = rng.randint(1, 12)
        return Cyc5(tuple(Fraction(rng.randint(-9, 9), d) if rng.random() < 0.8 else 0
                          for _ in range(4)))

    for _ in range(300):
        a, b = rand_den(), rand_den()
        ra, rb = to_ref(a), to_ref(b)
        for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                          (-a, -ra), (a * 3, ra * 3), (Fraction(5, 6) - a, Fraction(5, 6) - ra)):
            assert got == from_ref(want)
            assert to_ref(got) == want
            assert got.d > 0 and math.gcd(*got.n, got.d) == 1
        assert (a == b) == (ra == rb)
        assert a == from_ref(ra) and hash(a) == hash(from_ref(ra))
        if a:
            assert to_ref(a.inv()) == ra.inv()
            assert (a * a.inv()).n == (1, 0, 0, 0)
    shapes = set()
    for case in range(60):
        m = [[rand_den(0.3) for _ in range(5)] for _ in range(3)]
        if case % 3 == 0:
            c = [rand_den(0) for _ in range(2)]
            m[2] = [c[0] * x + c[1] * y for x, y in zip(m[0], m[1])]
        red, pivots = cyclo.rref(m, 5)
        want_red, want_pivots = ref_rref(m, 5)
        assert pivots == want_pivots
        assert [[to_ref(x) for x in row] for row in red] == want_red
        shapes.add(len(pivots))
    assert shapes == {2, 3}


def test_rref_with_negative_last_pivot(monkeypatch):
    """The elimination may end on a negative pivot; rref must flip the
    signs before it reads the entries (denominators stay positive)."""
    seen = []
    kernel = ratmat._fraction_free

    def spy(rows, ncols, above=True):
        out = kernel(rows, ncols, above)
        seen.append(out[2])
        return out

    monkeypatch.setattr(ratmat, "_fraction_free", spy)
    w = Cyc5.omega(1)
    rows = [[w, Cyc5((1, 2, 0, 0)), Cyc5((Fraction(1, 3), 0, 0, 0))]]
    red, pivots = cyclo.rref(rows, 3)
    assert seen[-1] < 0
    want, want_pivots = ref_rref(rows, 3)
    assert pivots == want_pivots == [0]
    assert [[to_ref(x) for x in row] for row in red] == want
    assert all(x.d > 0 for row in red for x in row)


def test_int_arithmetic_builds_no_fraction(monkeypatch):
    """With every denominator 1, +, -, * (also by an int) and rref run on
    ints alone: no Fraction is constructed."""
    rng = random.Random(73)
    elts = [Cyc5(tuple(rng.randint(-5, 5) for _ in range(4))) for _ in range(20)]
    rows = [elts[i:i + 4] for i in range(0, 12, 4)]

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction constructed")

    monkeypatch.setattr(Fraction, "__new__", staticmethod(no_fraction))
    for a, b in zip(elts, elts[1:]):
        a + b, a - b, a * b, 2 * a, a - 1, -a, a == b
    cyclo.rref(rows, 4)
