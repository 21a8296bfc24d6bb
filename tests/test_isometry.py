import pytest

from isometry_ref import inverse, is_identity
from latkit import isometry
from latkit.catalog import std_gram
from latkit.isometry import (
    CapExceeded, IsometryError, acts_as_minus_one, disc_action_trivial,
    group_closure, invariant_sublattice, make_isometry, order,
)
from latkit.lattice import make_lattice
from latkit.ratmat import mat_vec


def a2_rotation():
    # alpha1 -> alpha2, alpha2 -> -(alpha1 + alpha2): order 3
    lat = std_gram("A", 2)
    return lat, make_isometry(lat, [[0, -1], [1, -1]])


def test_make_isometry_validation():
    lat = std_gram("A", 2)
    with pytest.raises(IsometryError, match="defect"):
        make_isometry(lat, [[1, 1], [0, 1]])
    make_isometry(lat, [[0, 1], [1, 0]])  # the diagram involution
    # only rank x rank matrices: a 1 x 2 matrix on a rank-1 lattice used
    # to pass, its Gram defect compared on one entry and its det taken as 1
    for bad in ([[1, 0]], [[1], [0]], []):
        with pytest.raises(IsometryError, match="1 x 1"):
            make_isometry(make_lattice([[2]]), bad)
    with pytest.raises(IsometryError, match="2 x 2"):
        make_isometry(lat, [[1, 0], [0]])


def test_order_and_inverse(monkeypatch):
    lat, rot = a2_rotation()
    assert order(rot) == 3
    assert is_identity(rot * inverse(rot)) and inverse(rot) == rot * rot
    assert order(make_isometry(lat, [[-1, 0], [0, -1]])) == 2
    # order is the size of the cyclic group: CLOSURE_BUDGET bounds it
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 3)
    assert order(rot) == 3
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 2)
    with pytest.raises(CapExceeded, match="cap 2"):
        order(rot)


def test_apply():
    lat, rot = a2_rotation()
    assert mat_vec(rot.matrix, [1, 0]) == [0, 1]
    assert mat_vec(rot.matrix, [0, 1]) == [-1, -1]


def test_group_closure_a2_weyl():
    lat, rot = a2_rotation()
    swap = make_isometry(lat, [[0, 1], [1, 0]])
    g = group_closure([rot, swap])
    # full automorphism group of A2 is dihedral of order 12
    assert g.order == 6
    minus = make_isometry(lat, [[-1, 0], [0, -1]])
    g2 = group_closure([rot, swap, minus])
    assert g2.order == 12
    assert rot.matrix in g.elements and minus.matrix in g2.elements


def test_group_closure_cap(monkeypatch):
    lat, rot = a2_rotation()
    swap = make_isometry(lat, [[0, 1], [1, 0]])
    monkeypatch.setattr(isometry, "CLOSURE_BUDGET", 3)
    with pytest.raises(CapExceeded):
        group_closure([rot, swap])
    with pytest.raises(IsometryError):
        group_closure([])


def test_invariant_sublattice():
    lat, rot = a2_rotation()
    inv, rows = invariant_sublattice(lat, [rot])
    assert rows == []  # order-3 rotation of A2 fixes nothing
    swap = make_isometry(lat, [[0, 1], [1, 0]])
    inv, rows = invariant_sublattice(lat, [swap])
    assert rows == [[1, 1]]
    assert inv.gram == ((2,),)


def test_disc_action():
    lat = std_gram("A", 2)
    swap = make_isometry(lat, [[0, 1], [1, 0]])
    minus = make_isometry(lat, [[-1, 0], [0, -1]])
    # disc(A2) = Z/3; -1 acts nontrivially, the composite -swap trivially?
    assert not disc_action_trivial(lat, minus)
    assert disc_action_trivial(lat, make_isometry(lat, [[0, -1], [-1, 0]]))
    assert not disc_action_trivial(lat, swap)


def test_acts_as_minus_one():
    lat, rot = a2_rotation()
    minus = make_isometry(lat, [[-1, 0], [0, -1]])
    assert acts_as_minus_one(minus, [[1, 0], [0, 1], [2, 3]])
    assert not acts_as_minus_one(rot, [[1, 0]])


def test_acts_as_minus_one_rejects_rows_of_the_wrong_length():
    # zip would pad or cut such a row; [[]] must not count as fixed by -1
    lat = std_gram("A", 3)
    minus = make_isometry(lat, [[-int(i == j) for j in range(3)] for i in range(3)])
    for rows, bad in (([[]], "row 0 has length 0"), ([[1, 2]], "row 0 has length 2"),
                      ([[1, 0, 0], [1, 0, 0, 7]], "row 1 has length 4")):
        with pytest.raises(IsometryError, match=bad + ", not the rank 3"):
            acts_as_minus_one(minus, rows)


def test_isometries_on_different_lattices_do_not_mix():
    lat, rot = a2_rotation()
    other = make_lattice([[2]])
    one = make_isometry(other, [[1]])
    with pytest.raises(IsometryError):
        rot * one


def test_an_isometry_of_another_lattice_of_the_same_rank_is_refused():
    # the A2 swap is no isometry of diag(2, 6) (make_isometry refuses it
    # there); on that lattice both routines used to answer about it anyway
    swap = make_isometry(std_gram("A", 2), [[0, 1], [1, 0]])
    lat = make_lattice([[2, 0], [0, 6]])
    with pytest.raises(IsometryError):
        make_isometry(lat, [[0, 1], [1, 0]])
    with pytest.raises(IsometryError, match="another lattice"):
        disc_action_trivial(lat, swap)
    with pytest.raises(IsometryError, match="another lattice"):
        invariant_sublattice(lat, [swap])


def test_an_isometry_of_another_rank_is_refused():
    # the A2 swap on E8 used to surface as ratmat's dimension mismatch in
    # disc_action_trivial
    swap = make_isometry(std_gram("A", 2), [[0, 1], [1, 0]])
    e8 = std_gram("E8")
    with pytest.raises(IsometryError, match="another lattice"):
        disc_action_trivial(e8, swap)
    one = make_isometry(e8, [[int(i == j) for j in range(8)] for i in range(8)])
    with pytest.raises(IsometryError, match="isometry 1 lives on another lattice"):
        invariant_sublattice(e8, [one, swap])
    # group_closure checks its generators against the first one's lattice
    with pytest.raises(IsometryError, match="isometry 1 lives on another lattice"):
        group_closure([one, swap])
    # and a product checks its right factor against the left one's lattice
    with pytest.raises(IsometryError, match="isometry 1 lives on another lattice"):
        one * swap


def test_bool_matrix_entries_become_ints():
    a2 = std_gram("A", 2)
    swap = make_isometry(a2, [[False, True], [True, False]])
    assert swap == make_isometry(a2, [[0, 1], [1, 0]])
    assert all(type(x) is int for row in swap.matrix for x in row)
