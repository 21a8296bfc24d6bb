"""Session-wide fixtures: L and its discriminant form are built once and
shared by every module that checks them."""

import pytest

from latkit.catalog import build_L
from latkit.lattice import discriminant_group


@pytest.fixture(scope="session")
def L():
    """build_L(): the construction and the overlattice index."""
    return build_L()


@pytest.fixture(scope="session")
def L_disc(L):
    return discriminant_group(L[0].lattice)
