"""Exact-arithmetic toolkit for a discrete integrable lattice hierarchy.

Everything algebraic runs over exact integer / rational arithmetic; the
numeric flow integrators are the only floating-point code path.
"""

__version__ = "0.1.0"

from dkp.torus import (
    SignFunction,
    build_kappa,
    build_rho,
    build_phi,
    build_zeta,
    euclid_parity,
)

__all__ = [
    "__version__",
    "SignFunction",
    "build_kappa",
    "build_rho",
    "build_phi",
    "build_zeta",
    "euclid_parity",
]
