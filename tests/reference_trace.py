"""Per-state loop forms of the direct traces, kept as the references that
the array engine in jrl.voa.trace is tested against.

Every basis state is pushed through the inner insertions with
`apply_field` on the dict representation, and the outermost operator is
contracted against the diagonal one state at a time.
"""

from jrl.errors import DomainViolation
from jrl.specfun.points import phase
from jrl.voa.algebra import (
    AlgebraElement,
    ModeOp,
    _general_binom,
    apply_mode,
    state_level,
    zero_mode_operator,
)
from jrl.voa.trace import _single_components, apply_field


def state_factor(module, tau, tw, state):
    """Trace weight of one basis state."""
    wt = module.weight(state) + tw.charge_weight_shift * module.charge(state)
    if tw.include_c_shift:
        wt -= module.spec.central_charge / 24.0
    expo = tau.tau * wt
    if tw.flux_z is not None:
        expo = expo + tw.flux_z * module.charge(state)
    f = phase(expo)
    if tw.supertrace and state.parity:
        f = -f
    return f


def field_diagonal(module, v, w, elem, target, target_level):
    """<target| Yd(v, w) |elem> without building the full image."""
    spec = module.spec
    scalar, comps = _single_components(spec, v)
    total = scalar * elem.terms.get(target, 0.0)
    for cv, species, flavor, j in comps:
        wt_x = spec.species_weight(species)
        for state2, c2 in elem.terms.items():
            # X(m) changes the level by wt_x - 1 - m; solve for m
            delta = target_level - state_level(spec, state2)
            m_f = (wt_x - 1.0) - delta
            m = round(m_f)
            if abs(m_f - m) > 1e-9:
                continue
            cc = (-1.0) ** (j - 1) * _general_binom(m + j - 1, j - 1)
            if cc == 0.0:
                continue
            img = apply_mode(ModeOp(species, m, flavor), AlgebraElement.from_state(state2), module)
            amp = img.terms.get(target)
            if not amp:
                continue
            total += cv * cc * phase(w * (wt_x - m - 1)) * c2 * amp
    return total


def npoint_trace_loop(module, insertions, tau, tw):
    """Direct Fock-space n-point trace, one basis state at a time."""
    ws = [complex(w) for _, w in insertions]
    ims = [w.imag for w in ws]
    if ims and not all(x < y for x, y in zip(ims, ims[1:])):
        raise DomainViolation("positions must have strictly increasing Im w")
    if ims and not (0.0 < ims[0] and ims[-1] < tau.tau.imag):
        raise DomainViolation("positions must satisfy 0 < Im w < Im tau")

    total = 0.0 + 0.0j
    n = len(insertions)
    for s in module.states:
        lvl = state_level(module.spec, s)
        if n == 0:
            amp = 1.0 + 0.0j
        else:
            elem = AlgebraElement.from_state(s)
            for v, w in reversed(insertions[1:]):
                elem = apply_field(module, v, w, elem)
                if elem.is_zero():
                    break
            if elem.is_zero():
                continue
            amp = field_diagonal(module, insertions[0][0], insertions[0][1], elem, s, lvl)
        if amp:
            total += state_factor(module, tau, tw, s) * amp
    return total


def zero_mode_trace_loop(module, v, lam, insertions, tau, tw):
    """Tr o_lam(v) Y(x_1, w_1) ... Y(x_n, w_n), one basis state at a time:
    the fields from the innermost out, then o_lam(v), then the diagonal."""
    zero_mode = zero_mode_operator(module, v, lam)
    total = 0.0 + 0.0j
    for s in module.states:
        elem = AlgebraElement.from_state(s)
        for u, w in reversed(insertions):
            elem = apply_field(module, u, w, elem)
        amp = zero_mode(elem).terms.get(s)
        if amp:
            total += state_factor(module, tau, tw, s) * amp
    return total
