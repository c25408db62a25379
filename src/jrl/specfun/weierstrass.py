"""Elliptic kernel functions on the annulus 0 < Im w < Im tau.

All four kernels are one mode sum, the deformed kernel P_m[theta; phi] of
Mason-Tuite-Zuevsky (CMP 283 (2008) 305) with an integer index shift:

    ((-1)^m/(m-1)!) q_w^{-shift} sum'_{n in Z + lam} (n - shift)^{m-1} q_w^n / (1 - u q^n),

evaluated by ``_mode_sum``.  The public names pick its parameters:

    kernel              u           lam          shift   omitted n
    weier_p             1           0            0       0 (and -1/2 added at m = 1)
    weier_p_twisted     1           0            lam     0
    weier_p_tilde       q_z         0            0       none
    weier_p_deformed    theta^{-1}  twist.lam    0       0, only when (theta, phi) = (1, 1)

The twisted row is P_{m,lam} after n -> n - lam, so its denominators are
untwisted and q_w^{-lam} is its size.  The mode index j = n - lam runs
from -n_mode to n_mode, and the terms are summed exactly rounded
(`stable_sum`).  A term with n < 0 is rewritten through

    1/(1 - u q^n) = -r / (1 - r),        r = q^{-n} / u,

so every retained term decays geometrically; every retained denominator
is checked against tr.tol and raises PoleHit when it vanishes.

Function index convention: weier_p(m, ...) is P_m with

    P_1(w)  = -1/2 - sum_{n != 0} q_w^n / (1 - q^n)
    P_m     = ((-1)^m/(m-1)!) sum_{n != 0} n^{m-1} q_w^n / (1 - q^n),  m >= 2,

which matches P_{m+1} = ((-1)^m / m!) D_w^m P_1 with D_w = (2 pi i)^{-1} d/dw.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from ..errors import DomainViolation, PoleHit
from .points import TWO_PI_I, AnnulusPoint, Truncation, TwistPair, check_order, phase
from .series import stable_sum


def _mode_sum(
    m: int,
    p: AnnulusPoint,
    tr: Truncation,
    u: complex = 1.0,
    lam: float = 0.0,
    shift: int = 0,
    omit_zero: bool = True,
) -> complex:
    """((-1)^m/(m-1)!) q_w^{-shift} sum_{n in Z + lam} (n - shift)^{m-1} q_w^n / (1 - u q^n),
    without the term n = 0 when omit_zero."""
    if m < 1:
        raise DomainViolation(f"kernel order must be >= 1, got {m}")
    check_order(m, "kernel order")
    j = np.arange(-tr.n_mode, tr.n_mode + 1, dtype=float)
    n = j + lam
    # without a shift the weight vanishes at n = 0 for m >= 2: drop that term
    if omit_zero or (m > 1 and not shift):
        j, n = j[n != 0.0], n[n != 0.0]
    pos = n >= 0.0
    q = p.tau.q
    q_w = phase(p.w)
    # q ** x takes the principal branch, e(tau' x) with tau' = tau - k and
    # Re tau' in (-1/2, 1/2]; e(k x) restores e(tau x) for fractional x,
    # which n holds only for fractional lam
    k = round(p.tau.tau.real - cmath.phase(q) / (2.0 * math.pi)) if lam % 1 else 0
    q_n = q ** np.abs(n)
    q_lift = q**-lam  # finite: lam lies in [0, 1) and q is a normal float
    if k:
        q_n = q_n * np.exp(TWO_PI_I * ((k * np.abs(n)) % 1.0))
        q_lift *= phase(k * -lam)
    # 1/(1 - u q^n) = -r/(1 - r) with r = q^{-n}/u when n < 0
    den = 1.0 - q_n * np.where(pos, u, 1.0 / u)
    hit = np.abs(den) <= tr.tol
    if hit.any():
        raise PoleHit(f"1 - u q^{n[hit][0]:g} vanished within tolerance (u = {u})")
    # q_w^n (n >= 0) and -q_w^n r (n < 0) as e^{2 pi i lam w} times an
    # integer power of q_w or q/q_w, bases of modulus below 1; the powers
    # of q_w = phase(w) are exactly 1-periodic in w.  The one large factor
    # is the scalar q_w^{-shift}, the size of the twisted kernel
    base = np.where(pos, q_w, q / q_w) ** np.where(pos, j, -j)
    num = base * np.where(pos, 1.0, -q_lift / u)
    lift = cmath.exp(TWO_PI_I * lam * p.w) * phase(-shift * p.w)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (n - shift) ** (m - 1) * lift * num / den
    if not np.isfinite(terms).all():
        raise DomainViolation(f"kernel terms overflow at order {m} and n_mode {tr.n_mode}")
    return (-1.0) ** m / math.factorial(m - 1) * stable_sum(terms)


def weier_p(m: int, p: AnnulusPoint, tr: Truncation) -> complex:
    """P_m(w, tau) on the annulus."""
    out = _mode_sum(m, p, tr)
    return out - 0.5 if m == 1 else out


def weier_p_twisted(m: int, lam: int, p: AnnulusPoint, tr: Truncation) -> complex:
    """P_{m,lam}(w, tau) = ((-1)^m/(m-1)!) sum_{n != -lam} n^{m-1} q_w^n / (1 - q^{n+lam})."""
    if lam % 1:  # also true for an infinite or NaN lam
        raise DomainViolation("twisted kernel requires an integer lattice parameter")
    return _mode_sum(m, p, tr, shift=int(lam))


def weier_p_tilde(m: int, p: AnnulusPoint, z: complex, tr: Truncation) -> complex:
    """Ptilde_m(w, z, tau) = ((-1)^m/(m-1)!) sum_{n in Z} n^{m-1} q_w^n / (1 - q_z q^n)."""
    q_z = phase(z)
    if abs(q_z) < sys.float_info.min:
        raise DomainViolation(f"q_z = e(z) is zero or subnormal at z = {z}")
    return _mode_sum(m, p, tr, u=q_z, omit_zero=False)


def weier_p_deformed(k: int, twist: TwistPair, p: AnnulusPoint, tr: Truncation) -> complex:
    """P_k[theta; phi](w, tau), the two-parameter deformed kernel.

    P_k[theta;phi](w) = ((-1)^k/(k-1)!) sum'_{n in Z + lam} n^{k-1} q_w^n / (1 - theta^{-1} q^n),

    where the primed sum omits n = 0 exactly when (theta, phi) = (1, 1).
    """
    return _mode_sum(k, p, tr, u=1.0 / twist.theta, lam=twist.lam, omit_zero=twist.is_trivial)
