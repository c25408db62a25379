"""Square-bracket modes.

For a state v of conformal weight h the cylinder modes are

    v[m] = sum_{j >= m} kappa(h, m, j) v(j),
    kappa(h, m, j) = [z^{j-m}] ((e^z - 1)/z)^{-j-1} e^{z h},

so v[m] = v(m) + (higher round modes).  v(j) = o_{j-h+1}(v) lowers the
level by j - h + 1, so on a fixed target the j-sum ends at `last_mode`,
the target's top level plus h - 1.

The lattice-shifted variant regrades by a multiple of the charge; its
modes are v[n]_h = sum_{m >= 0} (lam^m / m!) v[n + m], again finite on
any fixed target.
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
    module: ModuleSpace, v: AlgebraElement, m: int, target: AlgebraElement
) -> AlgebraElement:
    """v[m] . target, summing kappa(h, m, j) v(j) . target over the
    components of v, h the weight of each, with v(j) = o_{j-h+1}(v)."""
    out = AlgebraElement.zero()
    for state, cv in sorted(v.terms.items()):
        h = module.level(state)
        single = AlgebraElement.from_state(state)
        for j in range(m, last_mode(module.spec, h, target) + 1):
            kc = kappa(h, m, j)
            if kc != 0.0:
                term = zero_mode_operator(module, single, j - h + 1)(target)
                out = out.plus(term.scaled(cv * kc))
    return out


def shifted_square_bracket_image(
    module: ModuleSpace,
    v: AlgebraElement,
    n: int,
    lam: float,
    target: AlgebraElement,
) -> AlgebraElement:
    """v[n]_h . target = sum_{m >= 0} (lam^m / m!) v[n + m] . target.

    The sum terminates where n + m passes `last_mode` of the heaviest
    component of v.
    """
    out = AlgebraElement.zero()
    h = max((module.level(s) for s in v.terms), default=0.0)
    coeff = 1.0
    for m in range(0, last_mode(module.spec, h, target) - n + 1):
        if coeff != 0.0:
            out = out.plus(square_bracket_image(module, v, n + m, target).scaled(coeff))
        coeff = coeff * lam / (m + 1)
    return out
