"""Elliptic kernel functions on the annulus 0 < Im w < Im tau.

All four kernels are one mode sum, the deformed kernel P_m[theta; phi] of
Mason-Tuite-Zuevsky (CMP 283 (2008) 305):

    ((-1)^m/(m-1)!) sum'_{n in Z + lam} n^{m-1} q_w^n / (1 - u q^{n+e}),

evaluated by ``_mode_sum``.  The public names pick its parameters:

    kernel              u           e     lam          omitted n
    weier_p             1           0     0            0 (and -1/2 added at m = 1)
    weier_p_twisted     1           lam   0            -lam
    weier_p_tilde       q_z         0     0            none
    weier_p_deformed    theta^{-1}  0     twist.lam    0, only when (theta, phi) = (1, 1)

The mode index j = n - lam runs 0, 1, -1, 2, -2, ..., n_mode, -n_mode,
and the terms are added in that order with compensated summation.  A
term whose q-exponent s = n + e is negative is rewritten through

    1/(1 - u q^s) = -r / (1 - r),        r = q^{-s} / u,

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

import numpy as np

from ..errors import DomainViolation, PoleHit
from .points import TWO_PI_I, AnnulusPoint, Truncation, TwistPair, check_order, phase
from .series import stable_sum


def _mode_sum(
    m: int,
    p: AnnulusPoint,
    tr: Truncation,
    u: complex = 1.0,
    e: int = 0,
    lam: float = 0.0,
    omit: float | None = None,
) -> complex:
    """((-1)^m/(m-1)!) sum_{n in Z + lam, n != omit} n^{m-1} q_w^n / (1 - u q^{n+e})."""
    if m < 1:
        raise DomainViolation(f"kernel order must be >= 1, got {m}")
    check_order(m, "kernel order")
    a = np.arange(1, tr.n_mode + 1, dtype=float)
    j = np.zeros(2 * tr.n_mode + 1)
    j[1::2] = a
    j[2::2] = -a
    n = j + lam
    # n^{m-1} vanishes at n = 0 for m >= 2: drop that term with the omitted one
    keep = (n != 0.0) | (m == 1)
    if omit is not None:
        keep &= n != omit
    j, n = j[keep], n[keep]
    s = n + e
    pos = s >= 0.0
    q = p.tau.q
    q_w = phase(p.w)
    # q ** x takes the principal branch, e(tau' x) with tau' = tau - k and
    # Re tau' in (-1/2, 1/2]; e(k x) restores e(tau x) for fractional x,
    # which s holds only for fractional lam
    k = round(p.tau.tau.real - cmath.phase(q) / (2.0 * math.pi)) if lam % 1 else 0
    q_s, q_lift = q ** np.abs(s), q ** (-lam - e)
    if k:
        q_s = q_s * np.exp(TWO_PI_I * ((k * np.abs(s)) % 1.0))
        q_lift *= phase(k * (-lam - e))
    # 1/(1 - u q^s) = -r/(1 - r) with r = q^{-s}/u when s < 0
    r = q_s * np.where(pos, u, 1.0 / u)
    den = 1.0 - r
    hit = np.abs(den) <= tr.tol
    if hit.any():
        raise PoleHit(f"1 - u q^{s[hit][0]:g} vanished within tolerance (u = {u})")
    # q_w^n (s >= 0) and -q_w^n r (s < 0) as e^{2 pi i lam w} times an
    # integer power of q_w or q/q_w, bases of modulus below 1, so nothing
    # overflows; the powers of q_w = phase(w) are exactly 1-periodic in w
    base = np.where(pos, q_w, q / q_w) ** np.where(pos, j, -j)
    num = base * np.where(pos, 1.0, -q_lift / u)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = n ** (m - 1) * cmath.exp(TWO_PI_I * lam * p.w) * num / den
    if not np.isfinite(terms).all():
        raise DomainViolation(f"kernel terms overflow at order {m} and n_mode {tr.n_mode}")
    sign = -1.0 if m % 2 else 1.0
    return sign / math.factorial(m - 1) * stable_sum(terms.tolist())


def weier_p(m: int, p: AnnulusPoint, tr: Truncation) -> complex:
    """P_m(w, tau) on the annulus."""
    out = _mode_sum(m, p, tr, omit=0.0)
    return out - 0.5 if m == 1 else out


def weier_p_twisted(m: int, lam: int, p: AnnulusPoint, tr: Truncation) -> complex:
    """P_{m,lam}(w, tau) = ((-1)^m/(m-1)!) sum_{n != -lam} n^{m-1} q_w^n / (1 - q^{n+lam})."""
    if lam != int(lam):
        raise DomainViolation("twisted kernel requires an integer lattice parameter")
    return _mode_sum(m, p, tr, e=int(lam), omit=-int(lam))


def weier_p_tilde(m: int, p: AnnulusPoint, z: complex, tr: Truncation) -> complex:
    """Ptilde_m(w, z, tau) = ((-1)^m/(m-1)!) sum_{n in Z} n^{m-1} q_w^n / (1 - q_z q^n)."""
    return _mode_sum(m, p, tr, u=phase(z))


def weier_p_deformed(k: int, twist: TwistPair, p: AnnulusPoint, tr: Truncation) -> complex:
    """P_k[theta; phi](w, tau), the two-parameter deformed kernel.

    P_k[theta;phi](w) = ((-1)^k/(k-1)!) sum'_{n in Z + lam} n^{k-1} q_w^n / (1 - theta^{-1} q^n),

    where the primed sum omits n = 0 exactly when (theta, phi) = (1, 1).
    """
    omit = 0.0 if twist.is_trivial else None
    return _mode_sum(k, p, tr, u=1.0 / twist.theta, lam=twist.lam, omit=omit)
