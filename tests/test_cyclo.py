import random
from fractions import Fraction

import pytest

from latkit.cyclo import Cyc5, CycloError


def rand_elt(rng):
    return Cyc5(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(4)))


def test_omega_relations():
    w = Cyc5.omega
    assert w(0) == Cyc5.one()
    assert w(1) ** 5 == Cyc5.one()
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
    assert (Cyc5.one() + w) / (Cyc5.one() + w) == Cyc5.one()
    with pytest.raises(CycloError):
        Cyc5.zero().inv()


def test_norm_is_rational_and_multiplicative():
    rng = random.Random(56)
    for _ in range(50):
        a, b = rand_elt(rng), rand_elt(rng)
        if not a or not b:
            continue
        assert (a * b).norm() == a.norm() * b.norm()
    # norm of 1 - w is Phi_5(1) = 5
    assert (Cyc5.one() - Cyc5.omega(1)).norm() == 5


def test_conj_is_automorphism():
    rng = random.Random(57)
    for _ in range(50):
        a, b = rand_elt(rng), rand_elt(rng)
        for k in (2, 3, 4):
            assert (a * b).conj(k) == a.conj(k) * b.conj(k)
            assert (a + b).conj(k) == a.conj(k) + b.conj(k)
    with pytest.raises(CycloError):
        Cyc5.one().conj(5)


def test_pow_matches_repeated_product():
    a = Cyc5((1, 2, 0, -1))
    acc = Cyc5.one()
    for k in range(6):
        assert a ** k == acc
        acc = acc * a
    assert a ** -2 == (a.inv()) ** 2


def test_int_coercion_and_repr():
    assert Cyc5.one() * 3 == Cyc5((3, 0, 0, 0))
    assert 2 + Cyc5.omega(1) == Cyc5((2, 1, 0, 0))
    assert repr(Cyc5.zero()) == "0"
    assert repr(Cyc5((1, -1, 0, 0))) == "1-w"


def test_immutability_and_hash():
    a = Cyc5.one()
    with pytest.raises(AttributeError):
        a.c = ()
    assert hash(Cyc5((1, 0, 0, 0))) == hash(Cyc5.one())
