"""Square-bracket modes.

For a state v of conformal weight h the cylinder modes are

    v[m] = sum_{j >= m} kappa(h, m, j) v(j),
    kappa(h, m, j) = [z^{j-m}] ((e^z - 1)/z)^{-j-1} e^{z h},

so v[m] = v(m) + (higher round modes).  v(j) = o_{j-h+1}(v) lowers the
level by j - h + 1, so on a fixed target the j-sum ends at `last_mode`,
the target's top level plus h - 1.

The lattice-shifted modes v[m]_lam = sum_{i >= 0} (lam^i / i!) v[m + i]
are the same sum over round modes with the coefficients
sum_{i <= j - m} (lam^i / i!) kappa(h, m + i, j); `square_bracket_image`
takes lam as its shift and applies each round mode once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..errors import UnsupportedInsertion
from ..specfun.series import unit_power
from .algebra import AlgebraElement, AlgebraSpec, ModuleSpace, state_level, zero_mode_operator


@lru_cache(maxsize=None)
def _kappa_cached(h2: int, m: int, j: int) -> float:
    # h passed as 2h to keep the cache key exact for half-integer weights;
    # the coefficient is an exact rational, rounded once
    order = j - m
    if order < 0:
        return 0.0
    s = unit_power([Fraction(1, math.factorial(k + 1)) for k in range(order + 1)], -j - 1)
    h = Fraction(h2, 2)
    return float(sum(s[n] * h ** (order - n) / math.factorial(order - n) for n in range(order + 1)))


def kappa(h: float, m: int, j: int) -> float:
    """Coefficient of v(j) in v[m] for a weight-h state."""
    h2 = round(2 * h)
    if abs(2 * h - h2) > 1e-12:
        raise UnsupportedInsertion("square-bracket weights must be half-integers")
    return _kappa_cached(h2, m, j)


def last_mode(spec: AlgebraSpec, h: float, x: AlgebraElement) -> int:
    """The last label j at which a weight-h state's round mode v(j), and so
    v[j], can be nonzero on x: v(j) lowers the level by j - h + 1, and no
    state lies below level 0."""
    top = max((state_level(spec, s) for s in x.terms), default=0.0)
    return math.floor(top + h - 1)


def square_bracket_image(
    module: ModuleSpace, v: AlgebraElement, m: int, target: AlgebraElement, shift: float = 0
) -> AlgebraElement:
    """v[m]_shift . target = sum_{i >= 0} (shift^i / i!) v[m + i] . target,
    which is v[m] . target at shift 0.

    Each round mode v(j) = o_{j-h+1}(v) of a component of v, h its weight,
    is applied once, with the coefficient sum_{i=0}^{j-m} w_i kappa(h, m + i, j).
    The weights w_i = shift^i / i! are a running product that stops at its
    first zero, and zero weights are skipped, so shift 0 reads one kappa
    per round mode."""
    weights = [1.0]
    out = AlgebraElement.zero()
    for state, cv in sorted(v.terms.items()):
        h = module.level(state)
        single = AlgebraElement.from_state(state)
        for j in range(m, last_mode(module.spec, h, target) + 1):
            while len(weights) <= j - m and weights[-1] != 0.0:
                weights.append(weights[-1] * shift / len(weights))
            c = sum(w * kappa(h, m + i, j) for i, w in enumerate(weights[: j - m + 1]) if w)
            if c != 0.0:
                term = zero_mode_operator(module, single, j - h + 1)(target)
                out = out.plus(term.scaled(cv * c))
    return out
