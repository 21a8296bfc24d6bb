import random
from itertools import product

import pytest

from latkit.catalog import std_gram
from latkit.lattice import LatticeError, make_lattice
from latkit.shortvec import minimum, short_vectors


def naive_pairs(gram, bound):
    """Box-enumeration oracle: all vectors with |x_i| <= box up to sign.

    The box is conservative: any vector of norm <= bound has coordinates
    bounded by bound * max entry of the inverse Gram, but for the small
    random lattices here a generous fixed box suffices and is verified by
    widening until stable.
    """
    n = len(gram)

    def norm(v):
        return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    def collect(box):
        out = set()
        for v in product(range(-box, box + 1), repeat=n):
            if any(v) and norm(v) <= bound:
                first = next(x for x in v if x)
                out.add(v if first > 0 else tuple(-x for x in v))
        return out

    box = bound + 1
    prev = collect(box)
    while True:
        box += 2
        cur = collect(box)
        if cur == prev:
            return sorted((v, norm(v)) for v in prev)
        prev = cur


def rand_pos_def(rng, n):
    # B^T B + I is positive definite for random integer B
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    g = [[sum(b[k][i] * b[k][j] for k in range(n)) + (1 if i == j else 0)
          for j in range(n)] for i in range(n)]
    return g


def test_oracle_equivalence_random():
    rng = random.Random(99)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        g = rand_pos_def(rng, n)
        from latkit.ratmat import det
        if det(g) == 0:
            continue
        lat = make_lattice(g)
        bound = rng.randint(1, 6)
        rep = short_vectors(lat, bound)
        assert list(rep.vectors) == naive_pairs(g, bound)
        done += 1


def test_a2_counts():
    rep = short_vectors(std_gram("A", 2), 2)
    # A2 has 6 roots, 3 up to sign
    assert rep.counts_by_norm == ((2, 3),)
    assert rep.total_pairs == 3
    assert not rep.negated


def test_e8_root_count():
    rep = short_vectors(std_gram("E8"), 2)
    assert rep.counts_by_norm == ((2, 120),)  # 240 roots up to sign


def test_negative_definite_convention():
    rep = short_vectors(std_gram("A", 2, -1), 2)
    assert rep.negated
    assert rep.counts_by_norm == ((2, 3),)


def test_sign_canonicalisation_and_order():
    rep = short_vectors(std_gram("A", 2), 2)
    for v, _ in rep.vectors:
        assert next(x for x in v if x) > 0
    assert list(rep.vectors) == sorted(rep.vectors)


def test_indefinite_rejected():
    with pytest.raises(LatticeError):
        short_vectors(std_gram("U"), 2)
    with pytest.raises(LatticeError):
        short_vectors(make_lattice([[-2, 1], [1, 2]]), 2)
    with pytest.raises(LatticeError):
        short_vectors(std_gram("U"), 0)


def test_empty_report():
    lat = make_lattice([[4]])
    rep = short_vectors(lat, 3)
    assert rep.vectors == ()
    assert short_vectors(lat, 0).vectors == ()


def test_minimum():
    assert minimum(std_gram("A", 2)) == 2
    assert minimum(make_lattice([[6]])) == 6
    assert minimum(std_gram("E8", scale=-2)) == 4
    with pytest.raises(LatticeError):
        minimum(make_lattice([]))
