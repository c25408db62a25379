"""Exact Bernoulli numbers, exact powers of unit power series, and
compensated summation."""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Iterable

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


def stable_sum(terms: Iterable[complex]) -> complex:
    """Neumaier-compensated sum of complex terms in the given order."""
    sr = 0.0
    si = 0.0
    cr = 0.0
    ci = 0.0
    for t in terms:
        t = complex(t)
        x = t.real
        u = sr + x
        if abs(sr) >= abs(x):
            cr += (sr - u) + x
        else:
            cr += (x - u) + sr
        sr = u
        y = t.imag
        v = si + y
        if abs(si) >= abs(y):
            ci += (si - v) + y
        else:
            ci += (y - v) + si
        si = v
    return complex(sr + cr, si + ci)
