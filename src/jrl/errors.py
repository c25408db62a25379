"""Exception types shared across the package.

Every error raised by the library derives from JrlError so callers can
catch the whole family with one clause.  The CLI maps JrlError to exit
code 2 (usage/domain error) and check failures to exit code 1.
"""


class JrlError(Exception):
    """Base class for all library errors."""


class DomainViolation(JrlError):
    """Evaluation point outside the region where the series converge."""


class PoleAtTrivialZ(JrlError):
    """Twisted Eisenstein sum requested at q_z = 1 where the k = 1 term
    has a pole."""


class PoleHit(JrlError):
    """A retained denominator 1 - theta^{-1} q^n (or 1 - q_z q^n) vanished
    within tolerance."""


class FitIllConditioned(JrlError):
    """Laurent circle fit has a degenerate sample set or an unusable
    normal system."""


class CapTooLarge(JrlError):
    """Requested basis enumeration exceeds the configured state budget."""


class BranchUnresolved(JrlError):
    """Flux parameter sits near the lattice-detection band without integral
    coordinates; refusing to guess the branch."""


class UnsupportedInsertion(JrlError):
    """Insertion state outside the families the evaluator handles."""


class DegenerateInsertion(JrlError):
    """A reduction stage produced a vanishing value although nonzero
    coefficients were present, so downstream ratios are meaningless."""


class AdmissibilityViolation(JrlError):
    """Main coboundary variant applied where v[l].v_k != 0 for some l >= 1."""


class NonIntegerWeight(JrlError):
    """Operation requires an integer-weight insertion."""


class NotOnLattice(JrlError):
    """Residue-sum identity requested at a flux that is not on the lattice."""


class GridDegenerate(JrlError):
    """Probe grid has repeated or invalid sample configurations."""
