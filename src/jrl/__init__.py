"""Torus n-point trace functions of free-field mode algebras, their
reduction to special-function coefficients, and numerical verification
of the surrounding identities.

Position convention: a point x enters every formula through its phase
q_x = exp(2 pi i x); annulus domains are strips in Im x.
"""

from . import reduction, specfun, voa
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
