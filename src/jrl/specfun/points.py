"""Evaluation points and truncation policy.

All positions live in the multiplicative picture: a position x enters
formulas only through its phase q_x = exp(2 pi i x).  The helper
``phase`` reduces the real part mod 1 before exponentiating, so shifting
an argument by 1 (w -> w + 1, tau -> tau + 1) reproduces bit-identical
phases and therefore bit-identical series values at matched truncation.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass

from ..errors import DomainViolation

TWO_PI_I = 2j * math.pi

DEFAULT_NQ = 12
DEFAULT_NMODE = 64
DEFAULT_TOL = 1e-9

# upper bounds on the truncation orders: a kernel call allocates about
# n_q log n_q double-sum terms and 2 n_mode + 1 mode-sum terms
MAX_NQ = 512
MAX_NMODE = 4096
# upper bound on a kernel order, Eisenstein index or Bernoulli index: the
# series divide by (order - 1)! as a float, which overflows past 170
MAX_ORDER = 128


def check_order(order: int, what: str) -> None:
    """Reject an order or index past MAX_ORDER, before any work is done."""
    if order > MAX_ORDER:
        raise DomainViolation(f"{what} {order} exceeds MAX_ORDER = {MAX_ORDER}")


def phase(x: complex) -> complex:
    """exp(2 pi i x), with Re(x) reduced mod 1 first.

    The reduction makes integer shifts of x exact: phase(x + 1) and
    phase(x) are the same float, not merely close.  An overflow raises
    DomainViolation.
    """
    x = complex(x)
    try:
        return cmath.exp(TWO_PI_I * complex(x.real % 1.0, x.imag))
    except OverflowError:
        raise DomainViolation(f"exp(2 pi i x) passes the float range at x = {x}") from None


@dataclass(frozen=True)
class ModularPoint:
    """Point tau in the upper half plane; nome q = exp(2 pi i tau)."""

    tau: complex

    def __post_init__(self):
        if not math.isfinite(self.tau.real):
            raise DomainViolation(f"tau needs a finite real part, got tau = {self.tau}")
        # 1 - |q| must not round to 0, and q must have finite inverse powers
        if not (self.tau.imag > 0.0 and sys.float_info.min <= self.q_abs < 1.0):
            raise DomainViolation(f"tau needs |q| a normal float below 1, got tau = {self.tau}")

    @property
    def q(self) -> complex:
        return phase(self.tau)

    @property
    def q_abs(self) -> float:
        return math.exp(-2.0 * math.pi * self.tau.imag)


@dataclass(frozen=True)
class AnnulusPoint:
    """Position w with |q| < |q_w| < 1, i.e. 0 < Im w < Im tau."""

    w: complex
    tau: ModularPoint

    def __post_init__(self):
        if not 0.0 < complex(self.w).imag < self.tau.tau.imag:
            raise DomainViolation(
                f"w must satisfy 0 < Im w < Im tau; got w={self.w}, tau={self.tau.tau}"
            )

    @property
    def q_w(self) -> complex:
        return phase(self.w)


@dataclass(frozen=True)
class TwistPair:
    """Deformation pair (theta, phi) with phi = exp(2 pi i lam), lam in [0, 1).

    theta is the flux eigenvalue of the distinguished insertion under the
    trace automorphism, phi the exponential of its conformal weight.
    """

    theta: complex
    phi: complex
    lam: float

    def __post_init__(self):
        if abs(abs(self.theta) - 1.0) > 1e-9:
            raise DomainViolation(f"theta must lie on the unit circle, got {self.theta}")
        if not 0.0 <= self.lam < 1.0:
            raise DomainViolation(f"lam must lie in [0, 1), got {self.lam}")
        if abs(self.phi - cmath.exp(TWO_PI_I * self.lam)) > 1e-9:
            raise DomainViolation(
                f"phi must equal exp(2 pi i lam); got phi={self.phi}, lam={self.lam}"
            )

    @classmethod
    def from_theta_phi(cls, theta: complex, phi: complex) -> "TwistPair":
        """Build the pair from (theta, phi), recovering lam from phi."""
        if abs(abs(phi) - 1.0) > 1e-9:
            raise DomainViolation(f"phi must lie on the unit circle, got {phi}")
        lam = (cmath.phase(phi) / (2.0 * math.pi)) % 1.0
        # collapse roundoff so phi = 1 gives lam = 0 exactly
        if min(lam, 1.0 - lam) < 1e-13:
            lam = 0.0
        return cls(theta=complex(theta), phi=cmath.exp(TWO_PI_I * lam), lam=lam)

    @property
    def is_trivial(self) -> bool:
        return abs(self.theta - 1.0) <= 1e-12 and abs(self.phi - 1.0) <= 1e-12


@dataclass(frozen=True)
class SL2Element:
    """Integer matrix [[a, b], [c, d]] with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise DomainViolation("SL2 element must have determinant 1")

    def act(self, tau: complex) -> complex:
        den = self.c * tau + self.d
        if den == 0:
            raise DomainViolation("c tau + d vanished")
        return (self.a * tau + self.b) / den


@dataclass(frozen=True)
class Truncation:
    """Series truncation policy.

    n_q    highest retained power of q (Lambert / double sums keep n*m <= n_q)
    n_mode half-width of mode sums over n
    tol    tolerance used for pole detection and identity checks
    """

    n_q: int = DEFAULT_NQ
    n_mode: int = DEFAULT_NMODE
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.n_q < 1 or self.n_mode < 1:
            raise DomainViolation("truncation orders must be positive")
        if self.n_q > MAX_NQ or self.n_mode > MAX_NMODE:
            raise DomainViolation(
                f"truncation orders are capped at n_q <= {MAX_NQ} and n_mode <= {MAX_NMODE}; "
                f"got n_q={self.n_q}, n_mode={self.n_mode}"
            )
        if not 0.0 < self.tol < 1.0:
            raise DomainViolation("tol must lie in (0, 1)")

    def error_scale(self, tau: ModularPoint) -> float:
        """Crude magnitude of the first dropped q-order."""
        a = tau.q_abs
        return a ** (self.n_q + 1) / (1.0 - a)


def default_truncation() -> Truncation:
    """Truncation built from JRL_DEFAULT_NQ / JRL_DEFAULT_TOL when set."""
    n_q = int(os.environ.get("JRL_DEFAULT_NQ", DEFAULT_NQ))
    tol = float(os.environ.get("JRL_DEFAULT_TOL", DEFAULT_TOL))
    return Truncation(n_q=n_q, n_mode=DEFAULT_NMODE, tol=tol)
