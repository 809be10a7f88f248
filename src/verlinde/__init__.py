"""Certified Verlinde dimension numbers for the classical groups.

Exact root-system arithmetic and integer weight-lattice arithmetic (marks
and root pairings), arbitrary-precision sine-product evaluation with
integer certification, and two independent computation paths for the
orthogonal groups.
"""

from .formula import (
    DYNKIN_INDEX,
    DynkinIndices,
    VerlindeResult,
    delta,
    n_so,
    n_sp,
    theta_dim,
    torus_order,
    torus_order_oracle_certified,
    verlinde_product_quotient,
    verlinde_quotient,
    verlinde_sc,
)
from .numeric import DEFAULT_PRECISION, IntegralityError
from .rootsys import GroupType, RootSystem, build_root_system, root_system
from .so_oracle import USet, enumerate_usets, n_so_oracle, uset_delta
from .suite import (
    SuiteReport,
    run_default_suite,
    run_so_identity,
    run_strange_duality_symmetry,
    run_unitarity,
)
from .weights import (
    CenterSpec,
    UCoordinates,
    enumerate_level_weights,
    orbit_decompose,
    u_coords,
)

__version__ = "0.1.0"

__all__ = [
    "CenterSpec",
    "DEFAULT_PRECISION",
    "DYNKIN_INDEX",
    "DynkinIndices",
    "GroupType",
    "IntegralityError",
    "RootSystem",
    "SuiteReport",
    "UCoordinates",
    "USet",
    "VerlindeResult",
    "build_root_system",
    "delta",
    "enumerate_level_weights",
    "enumerate_usets",
    "n_so",
    "n_so_oracle",
    "n_sp",
    "orbit_decompose",
    "root_system",
    "run_default_suite",
    "run_so_identity",
    "run_strange_duality_symmetry",
    "run_unitarity",
    "theta_dim",
    "torus_order",
    "torus_order_oracle_certified",
    "u_coords",
    "uset_delta",
    "verlinde_product_quotient",
    "verlinde_quotient",
    "verlinde_sc",
]
