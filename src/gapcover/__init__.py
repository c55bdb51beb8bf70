"""Covering symmetric convex lattice point sets by generalized arithmetic progressions.

Exact-arithmetic pipeline: enclosing ellipsoid, circumscribed parallelotope,
lattice basis reduction, and a certified covering progression, with brute-force
enumeration oracles for verification at desk scale.
"""

from .exactalg import Mat, UnimodularMat, det, inverse, unimodular_solve

__version__ = "0.1.0"

__all__ = [
    "Mat",
    "UnimodularMat",
    "det",
    "inverse",
    "unimodular_solve",
    "__version__",
]
