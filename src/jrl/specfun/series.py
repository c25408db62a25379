"""Exact Bernoulli numbers, compensated summation, and truncated Laurent
series in one formal variable.

The series type backs the mode-conversion coefficients (round brackets to
square brackets) and the small power-series manipulations used by the
special functions.  Coefficients are complex floats; exponents are ints
bounded above by the truncation order n_q.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import DomainViolation
from .points import Truncation, check_order

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


def _trimmed(min_exponent: int, coeffs: Sequence[complex]) -> tuple[int, tuple[complex, ...]]:
    lo = 0
    hi = len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return 0, ()
    return min_exponent + lo, tuple(complex(c) for c in coeffs[lo:hi])


@dataclass(frozen=True)
class QLaurentSeries:
    """Truncated Laurent series sum_k c_k z^k with k <= truncation.n_q.

    Ring operations are closed under truncation: the result carries the
    smaller n_q of the operands and silently drops higher orders.
    """

    min_exponent: int
    coefficients: tuple[complex, ...]
    truncation: Truncation = field(default_factory=Truncation)

    def __post_init__(self):
        mn, cs = _trimmed(self.min_exponent, self.coefficients)
        keep = self.truncation.n_q - mn + 1
        if len(cs) > max(keep, 0):
            mn, cs = _trimmed(mn, cs[: max(keep, 0)])
        object.__setattr__(self, "min_exponent", mn)
        object.__setattr__(self, "coefficients", cs)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, tr: Truncation) -> "QLaurentSeries":
        return cls(0, (), tr)

    @classmethod
    def constant(cls, c: complex, tr: Truncation) -> "QLaurentSeries":
        return cls(0, (complex(c),), tr)

    @classmethod
    def monomial(cls, k: int, tr: Truncation, c: complex = 1.0) -> "QLaurentSeries":
        return cls(k, (complex(c),), tr)

    @classmethod
    def exp_series(cls, h: complex, tr: Truncation) -> "QLaurentSeries":
        """e^{h z} truncated at order n_q."""
        cs = []
        term = 1.0 + 0.0j
        for j in range(tr.n_q + 1):
            cs.append(term)
            term = term * h / (j + 1)
        return cls(0, tuple(cs), tr)

    @classmethod
    def em1_over_z(cls, tr: Truncation) -> "QLaurentSeries":
        """(e^z - 1)/z truncated at order n_q."""
        return cls(0, tuple(1.0 / math.factorial(j + 1) for j in range(tr.n_q + 1)), tr)

    # ---- access --------------------------------------------------------

    @property
    def max_exponent(self) -> int:
        return self.min_exponent + len(self.coefficients) - 1

    def coefficient(self, k: int) -> complex:
        i = k - self.min_exponent
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0.0 + 0.0j

    def is_zero(self) -> bool:
        return not self.coefficients

    # ---- ring operations ------------------------------------------------

    def _joint_truncation(self, other: "QLaurentSeries") -> Truncation:
        if other.truncation.n_q < self.truncation.n_q:
            return other.truncation
        return self.truncation

    def add(self, other: "QLaurentSeries") -> "QLaurentSeries":
        tr = self._joint_truncation(other)
        if self.is_zero():
            return QLaurentSeries(other.min_exponent, other.coefficients, tr)
        if other.is_zero():
            return QLaurentSeries(self.min_exponent, self.coefficients, tr)
        mn = min(self.min_exponent, other.min_exponent)
        mx = max(self.max_exponent, other.max_exponent)
        cs = [self.coefficient(k) + other.coefficient(k) for k in range(mn, mx + 1)]
        return QLaurentSeries(mn, tuple(cs), tr)

    def scale(self, c: complex) -> "QLaurentSeries":
        if c == 0:
            return QLaurentSeries.zero(self.truncation)
        return QLaurentSeries(
            self.min_exponent, tuple(c * x for x in self.coefficients), self.truncation
        )

    def sub(self, other: "QLaurentSeries") -> "QLaurentSeries":
        return self.add(other.scale(-1.0))

    def mul(self, other: "QLaurentSeries") -> "QLaurentSeries":
        tr = self._joint_truncation(other)
        if self.is_zero() or other.is_zero():
            return QLaurentSeries.zero(tr)
        mn = self.min_exponent + other.min_exponent
        width = tr.n_q - mn + 1
        if width <= 0:
            return QLaurentSeries.zero(tr)
        out = [0.0 + 0.0j] * min(width, len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            jmax = min(len(other.coefficients), len(out) - i)
            for j in range(jmax):
                out[i + j] += a * other.coefficients[j]
        return QLaurentSeries(mn, tuple(out), tr)

    def power(self, n: int) -> "QLaurentSeries":
        if n < 0:
            return self.invert_unit().power(-n)
        result = QLaurentSeries.constant(1.0, self.truncation)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return result

    def invert_unit(self) -> "QLaurentSeries":
        """Inverse of a series whose lowest coefficient is nonzero."""
        if self.is_zero():
            raise DomainViolation("cannot invert the zero series")
        c0 = self.coefficients[0]
        v = self.min_exponent
        # write self = c0 z^v (1 + u) with u of positive valuation
        u = QLaurentSeries(
            0, tuple(c / c0 for c in self.coefficients), self.truncation
        ).sub(QLaurentSeries.constant(1.0, self.truncation))
        inv = QLaurentSeries.constant(1.0, self.truncation)
        term = QLaurentSeries.constant(1.0, self.truncation)
        for _ in range(self.truncation.n_q + 1):
            term = term.mul(u).scale(-1.0)
            if term.is_zero():
                break
            inv = inv.add(term)
        return QLaurentSeries(
            inv.min_exponent - v, tuple(c / c0 for c in inv.coefficients), self.truncation
        )

    def substitute(self, g: "QLaurentSeries") -> "QLaurentSeries":
        """self(g(z)) for g of positive valuation; self must be a power series."""
        if self.min_exponent < 0:
            raise DomainViolation("substitution target must have no pole part")
        if not g.is_zero() and g.min_exponent < 1:
            raise DomainViolation("substituted series must vanish at the origin")
        tr = self._joint_truncation(g)
        acc = QLaurentSeries.zero(tr)
        # Horner from the top coefficient down
        for k in range(self.max_exponent, self.min_exponent - 1, -1):
            acc = acc.mul(g).add(QLaurentSeries.constant(self.coefficient(k), tr))
        if self.min_exponent > 0:
            acc = acc.mul(g.power(self.min_exponent))
        return acc

    def eval(self, x: complex) -> complex:
        """Evaluate at a nonzero point (Horner on the power part)."""
        if self.is_zero():
            return 0.0 + 0.0j
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc * x ** self.min_exponent
