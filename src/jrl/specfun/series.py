"""Exact Bernoulli numbers, exact powers of unit power series, and the
exactly rounded sum every series in `specfun` goes through."""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from typing import Iterable

import numpy as np

from ..errors import DomainViolation
from .points import check_order

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2.

    Convention: 1/(e^z - 1) = sum_k B_k / k! z^{k-1}.  Values are exact
    rationals, cached for all orders up to the largest request.  Reads of
    the cache are lock-free once populated; extension is single-writer.
    """
    if k < 0:
        raise DomainViolation("Bernoulli index must be nonnegative")
    check_order(k, "Bernoulli index")
    if k < len(_BERNOULLI_CACHE):
        return _BERNOULLI_CACHE[k]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI_CACHE) <= k:
            m = len(_BERNOULLI_CACHE) + 1
            # sum_{j=0}^{m-1} C(m, j) B_j = [m == 1]
            acc = Fraction(0)
            for j in range(m - 1):
                acc += math.comb(m, j) * _BERNOULLI_CACHE[j]
            _BERNOULLI_CACHE.append(-acc / m)
    return _BERNOULLI_CACHE[k]


def unit_power(a: list[Fraction], p: int) -> list[Fraction]:
    """The coefficients of (sum_k a_k z^k)^p up to z^(len(a) - 1), for a_0 = 1
    and any integer p, by J. C. P. Miller's recurrence

        n b_n = sum_{k=1}^n ((p + 1) k - n) a_k b_{n-k},  b_0 = 1.
    """
    b = [Fraction(1)]
    for n in range(1, len(a)):
        b.append(sum(((p + 1) * k - n) * a[k] * b[n - k] for k in range(1, n + 1)) / n)
    return b


def stable_sum(terms: Iterable[complex] | np.ndarray) -> complex:
    """The sum of complex terms, exactly rounded: math.fsum of the real and
    of the imaginary parts, so the result does not depend on the order of
    the terms.  A sum that is not a finite float (finite terms summing
    past the float range, an infinite or NaN term) raises DomainViolation."""
    z = np.asarray(terms if isinstance(terms, np.ndarray) else list(terms), dtype=complex)
    try:
        total = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        total = complex("nan")
    if not cmath.isfinite(total):
        raise DomainViolation(f"a sum of {z.size} series terms is not finite")
    return total
