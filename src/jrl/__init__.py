"""Torus n-point trace functions of free-field mode algebras, their
reduction to special-function coefficients, and numerical verification
of the surrounding identities.

Position convention: a point x enters every formula through its phase
q_x = exp(2 pi i x); annulus domains are strips in Im x.
"""

import importlib

from .errors import (
    AdmissibilityViolation,
    BranchUnresolved,
    CapTooLarge,
    DegenerateInsertion,
    DomainViolation,
    FitIllConditioned,
    GridDegenerate,
    JrlError,
    NonIntegerWeight,
    NotOnLattice,
    PoleAtTrivialZ,
    PoleHit,
    UnsupportedInsertion,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the subpackages load on first use, so `jrl eval` pays for specfun only
    if name in ("reduction", "specfun", "voa"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
