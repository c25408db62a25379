"""Square-bracket modes.

For a state v of conformal weight h the cylinder modes are

    v[m] = sum_{j >= m} kappa(h, m, j) v(j),
    kappa(h, m, j) = [z^{j-m}] ((e^z - 1)/z)^{-j-1} e^{z h},

so v[m] = v(m) + (higher round modes).  Applied to a fixed target the
j-sum terminates because round modes of large label annihilate it.

The lattice-shifted variant regrades by a multiple of the charge; its
modes are v[n]_h = sum_{m >= 0} (lam^m / m!) v[n + m], again finite on
any fixed target.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..errors import UnsupportedInsertion
from ..specfun.points import Truncation
from ..specfun.series import QLaurentSeries
from .algebra import (
    VACUUM,
    AlgebraElement,
    ModuleSpace,
    apply_mode,
    single_mode_of_state,
    state_level,
    zero_mode_operator,
)


@lru_cache(maxsize=None)
def _kappa_cached(h2: int, m: int, j: int) -> float:
    # h passed as 2h to keep the cache key exact for half-integer weights
    h = h2 / 2.0
    order = j - m
    if order < 0:
        return 0.0
    tr = Truncation(n_q=max(order, 1) + 1, n_mode=1, tol=1e-15)
    s = QLaurentSeries.em1_over_z(tr)
    series = s.power(-(j + 1)).mul(QLaurentSeries.exp_series(h, tr))
    return complex(series.coefficient(order)).real


def kappa(h: float, m: int, j: int) -> float:
    """Coefficient of v(j) in v[m] for a weight-h state."""
    h2 = round(2 * h)
    if abs(2 * h - h2) > 1e-12:
        raise UnsupportedInsertion("square-bracket weights must be half-integers")
    return _kappa_cached(h2, m, j)


def square_bracket_image(
    module: ModuleSpace, v: AlgebraElement, m: int, target: AlgebraElement
) -> AlgebraElement:
    """v[m] . target for v built from vacuum and single-oscillator states."""
    spec = module.spec
    out = AlgebraElement.zero()
    for state, cv in sorted(v.terms.items()):
        if state == VACUUM:
            # Y[1] = id: 1[m] = delta_{m,-1} id
            if m == -1:
                out = out.plus(target.scaled(cv))
            continue
        nosc = len(state.boson) + len(state.ferm_b) + len(state.ferm_c)
        if nosc == 2:
            # quadratic shapes with known round modes: v(j) = o_{j-h+1}(v)
            quad_boson = len(state.boson) == 2 and all(l == 1 for _, l in state.boson)
            quad_ferm = state.ferm_b == (1,) and state.ferm_c == (1,)
            if not (quad_boson or quad_ferm):
                raise UnsupportedInsertion(
                    "square-bracket modes support quadratic states only at level one"
                )
            h = state_level(spec, state)
            hi = round(h)
            single = AlgebraElement.from_state(state)
            jmax = int(math.ceil(module.cap + hi + 1))
            for j in range(m, jmax + 1):
                kc = kappa(h, m, j)
                if kc == 0.0:
                    continue
                op = zero_mode_operator(module, single, j - hi + 1)
                term = op(target)
                if not term.is_zero() or term.truncated:
                    out = out.plus(term.scaled(cv * kc))
            continue
        if nosc != 1:
            raise UnsupportedInsertion(
                "square-bracket modes are implemented for single-oscillator states"
            )
        if state.boson:
            species, flavor, j0 = "a", state.boson[0][0], state.boson[0][1]
        elif state.ferm_b:
            species, flavor, j0 = "b", 0, state.ferm_b[0]
        else:
            species, flavor, j0 = "c", 0, state.ferm_c[0]
        h = state_level(spec, state)
        # round modes (state)(j) kill the target once j outruns its level
        jmax = int(math.ceil(module.cap + j0 + 2))
        for j in range(m, jmax + 1):
            kc = kappa(h, m, j)
            if kc == 0.0:
                continue
            res = single_mode_of_state(spec, species, flavor, j0, j)
            if res is None:
                continue
            cmode, mode = res
            term = apply_mode(mode, target, module)
            if not term.is_zero() or term.truncated:
                out = out.plus(term.scaled(cv * kc * cmode))
    return out


def shifted_square_bracket_image(
    module: ModuleSpace,
    v: AlgebraElement,
    n: int,
    lam: float,
    target: AlgebraElement,
) -> AlgebraElement:
    """v[n]_h . target = sum_{m >= 0} (lam^m / m!) v[n + m] . target.

    The sum terminates: for fixed target, v[n + m] annihilates it once
    n + m exceeds the target level plus the weight of v.
    """
    out = AlgebraElement.zero()
    mcap = int(math.ceil(module.cap + 4))
    coeff = 1.0
    for m in range(0, mcap + 1):
        if coeff != 0.0:
            part = square_bracket_image(module, v, n + m, target)
            if not part.is_zero():
                out = out.plus(part.scaled(coeff))
        coeff = coeff * lam / (m + 1)
    return out
