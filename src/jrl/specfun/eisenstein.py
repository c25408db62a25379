"""Eisenstein-type q-series.

Normalization: for even k >= 2

    E_k(tau) = -B_k/k! + (2/(k-1)!) sum_{n>=1} n^{k-1} q^n / (1 - q^n),

E_k = 0 for odd k, and E_0 = -1.  Lambert factors are expanded as
geometric series and truncated at total q-order n_q; the terms are summed
exactly rounded (`stable_sum`), so the result does not depend on their
order.  No factor of a term is formed on its own where it could overflow: n^{k-1} past the float
range stays an exact integer until it meets its q-power (`_times_int`),
and the flux enters through bases of modulus below 1.  A term or sum that
is itself not finite raises DomainViolation, and so does a term lam^j/j!
of the twisted sums that passes the float range, for a float or an
integer lam.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from ..errors import DomainViolation, PoleAtTrivialZ
from .points import ModularPoint, Truncation, check_order, phase
from .series import bernoulli, stable_sum


def _times_int(n: int, c: complex) -> complex:
    """n * c for an integer n past the float range: n is cut to its leading
    bits and the power of two put back with ldexp, so only a product that
    is itself not finite raises."""
    e = n.bit_length() - 1000
    x = float(n >> e) * c
    try:
        return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
    except OverflowError:
        raise DomainViolation("an Eisenstein series term overflows the float range") from None


def _lam_convolution(x: float, k: int, e: Callable[[int], complex]) -> complex:
    """sum_{j=0}^{k} (x^j / j!) e(k - j), or DomainViolation where a power
    passes the float range.  An integer x keeps its exact power, so each
    quotient x^j / j! is rounded once."""
    try:
        powers = [x**j / math.factorial(j) for j in range(k + 1)]
    except OverflowError:
        raise DomainViolation(f"lam^j overflows the float range at lam = {x}") from None
    return stable_sum(c * e(k - j) for j, c in enumerate(powers))


def _finite(value: complex, k: int, tr: Truncation) -> complex:
    """value, unless the series sum is not finite."""
    if not cmath.isfinite(value):
        raise DomainViolation(f"Eisenstein series overflows at index {k} and n_q {tr.n_q}")
    return value


def eisenstein(k: int, tau: ModularPoint, tr: Truncation) -> complex:
    """E_k(tau) truncated at q-order n_q.  Exact -1 at k = 0, exact 0 for odd k."""
    if k < 0:
        raise DomainViolation("Eisenstein index must be nonnegative")
    check_order(k, "Eisenstein index")
    if k == 0:
        return complex(-1.0)
    if k % 2 == 1:
        return complex(0.0)
    q = tau.q
    pref = 2.0 / math.factorial(k - 1)
    terms = []
    for n in range(1, tr.n_q + 1):
        qn = q**n
        try:
            nk = float(n) ** (k - 1)
        except OverflowError:
            nk = None
        for m in range(1, tr.n_q // n + 1):
            terms.append(nk * qn**m if nk is not None else _times_int(n ** (k - 1), qn**m))
    head = complex(-float(bernoulli(k)) / math.factorial(k))
    return _finite(head + pref * stable_sum(terms), k, tr)


def eisenstein_twisted(k: int, lam: float, tau: ModularPoint, tr: Truncation) -> complex:
    """E_{k,lam}(tau) = sum_{j=0}^{k} (lam^j / j!) E_{k-j}(tau)."""
    if k < 0:
        raise DomainViolation("index must be nonnegative")
    check_order(k, "Eisenstein index")
    return _lam_convolution(lam, k, lambda j: eisenstein(j, tau, tr))


def p1_twisted_series_coefficient(k: int, lam: float, tau: ModularPoint, tr: Truncation) -> complex:
    """Coefficient c_k with P_{1,lam}(w) = 1/(2 pi i w) - sum_{k>=1} c_k (2 pi i w)^{k-1}.

    The index shift identity P_{1,lam} = q_w^{-lam} (P_1 + 1/2) fixes these
    coefficients: expanding e^{-2 pi i lam w} against the series of
    P_1 + 1/2 gives

        c_k = sum_{j=0}^{k} ((-lam)^j / j!) Estar_{k-j},

    where Estar_k = E_k except Estar_1 = -1/2 (the constant shift).  Note
    the sign of lam and the k = 1 value differ from eisenstein_twisted;
    the latter is a plain generating-function average and is NOT the
    Laurent coefficient of P_{1,lam}.
    """
    if k < 1:
        raise DomainViolation("coefficient index starts at 1")
    check_order(k, "coefficient index")
    return _lam_convolution(-lam, k, lambda j: complex(-0.5) if j == 1 else eisenstein(j, tau, tr))


def eisenstein_tilde(k: int, z: complex, tau: ModularPoint, tr: Truncation) -> complex:
    """Flux-deformed E-series Etilde_k(z, tau); Etilde_0 = -1.

    Etilde_k = -[k=1] q_z/(q_z - 1) - B_k/k!
               + (1/(k-1)!) sum_{m,n>=1} n^{k-1} ((q^n q_z)^m + (-1)^k (q^n/q_z)^m).

    These are the expansion coefficients of the flux-deformed kernel:
    Ptilde_1(w, z) = 1/(2 pi i w) - sum_{k>=1} Etilde_k (2 pi i w)^{k-1}.
    Requires |Im z| < Im tau for the double series; the k = 1 term has a
    pole at q_z = 1.
    """
    if k < 0:
        raise DomainViolation("index must be nonnegative")
    check_order(k, "Eisenstein index")
    if k == 0:
        return complex(-1.0)
    if abs(complex(z).imag) >= tau.tau.imag:
        raise DomainViolation(f"need |Im z| < Im tau; got z={z}, tau={tau.tau}")
    q = tau.q
    q_z = phase(z)
    head = complex(-float(bernoulli(k)) / math.factorial(k))
    if k == 1:
        if abs(q_z - 1.0) <= tr.tol:
            raise PoleAtTrivialZ(f"Etilde_1 has a pole at q_z = 1; got q_z = {q_z}")
        head += -q_z / (q_z - 1.0)
    sign = -1.0 if k % 2 else 1.0
    pref = 1.0 / math.factorial(k - 1)
    terms = []
    for n in range(1, tr.n_q + 1):
        up, down = q**n * q_z, q**n / q_z
        try:
            nk = float(n) ** (k - 1)
        except OverflowError:
            nk = None
        for m in range(1, tr.n_q // n + 1):
            flux = up**m + sign * down**m
            terms.append(nk * flux if nk is not None else _times_int(n ** (k - 1), flux))
    return _finite(head + pref * stable_sum(terms), k, tr)

