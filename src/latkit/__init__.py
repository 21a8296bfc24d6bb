"""latkit: exact-arithmetic toolkit for even integral lattices.

Core pieces: exact rational/cyclotomic arithmetic, Smith and Hermite
normal forms, overlattice gluing with discriminant forms, certified
short-vector enumeration, isometry-group verification, and the claim
reproduction suite (`latkit repro`).
"""

from .cyclo import Cyc5
from .lattice import (
    CapExceeded, FiniteQuadraticForm, GlueError, IntegralLattice, LatticeError,
    direct_sum, discriminant_group, fqf_isomorphic, invariant_factors, make_lattice,
    orthogonal_complement, overlattice, rescale, saturation, sublattice,
)
from .isometry import (
    GroupClosure, Isometry, IsometryError, acts_as_minus_one,
    disc_action_trivial, group_closure, invariant_sublattice, make_isometry,
    order,
)
from .shortvec import ShortVectorReport, minimum, short_vectors
from .ratmat import snf

__all__ = [
    "Cyc5",
    "IntegralLattice", "FiniteQuadraticForm",
    "LatticeError", "GlueError",
    "make_lattice", "direct_sum", "rescale", "discriminant_group", "invariant_factors",
    "overlattice", "sublattice", "saturation", "orthogonal_complement",
    "fqf_isomorphic",
    "Isometry", "GroupClosure", "IsometryError", "CapExceeded",
    "make_isometry", "order", "disc_action_trivial", "group_closure",
    "invariant_sublattice", "acts_as_minus_one",
    "ShortVectorReport", "short_vectors", "minimum",
    "snf",
]

__version__ = "0.1.0"
