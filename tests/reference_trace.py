"""Per-state references for the array Fock engine in jrl.voa.

`apply_mode` acts with one mode on the dict representation, a state at a
time, with its own fermion sign and boson multiplicity rules; it is the
reference that `mode_image` and the array `apply_terms` are tested
against.  `zero_mode_operator` applies the monomials of `zero_mode_terms`
with it.

The per-state loop forms of the direct traces push every basis state
through the inner insertions with `apply_field` on the dict
representation, and contract the outermost operator against the diagonal
one state at a time.  The fields here are the per-species mode loops over
vacuum and single-oscillator states, kept apart from the engine's
description of fields through `zero_mode_terms`, so that the two can be
checked against each other.

`perturbed_kz_residual` is the stage-sum residual of
`jrl.reduction.kz_residual` with its dominant stage contribution scaled,
which a genuine stage decomposition must fail visibly.
"""

import math

from jrl.errors import DomainViolation, UnsupportedInsertion
from jrl.reduction import reduce_full, reduction_family, stage_contributions
from jrl.specfun.points import phase
from jrl.voa.algebra import (
    VACUUM,
    AlgebraElement,
    BasisState,
    ModeOp,
    ModuleSpace,
    _check_mode,
    _general_binom,
    sector_weight,
    state_charge,
    state_level,
    zero_mode_terms,
)


def _fermion_insert(levels: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]] | None:
    """Insert creator label j into an ascending tuple; None if already present.
    Returns (sign exponent, new tuple)."""
    if j in levels:
        return None
    pos = sum(1 for x in levels if x < j)
    return pos, tuple(sorted(levels + (j,)))


def _fermion_remove(levels: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]] | None:
    """Remove creator label j; None if absent.  Returns (sign exponent, new tuple)."""
    if j not in levels:
        return None
    pos = sum(1 for x in levels if x < j)
    return pos, tuple(x for x in levels if x != j)


def apply_mode(op: ModeOp, x: AlgebraElement, module: ModuleSpace) -> AlgebraElement:
    """Left action of a single mode on an element; image states above
    module.cap are dropped."""
    spec = module.spec
    out = AlgebraElement()
    cap = module.cap

    _check_mode(op, spec)
    if op.species == "a":
        for state, coeff in x.terms.items():
            if op.n < 0:
                l = -op.n
                if state_level(spec, state) + l > cap:
                    continue
                out.add_term(
                    BasisState(boson=tuple(sorted(state.boson + ((op.flavor, l),)))), coeff
                )
            elif op.n == 0:
                out.add_term(state, coeff * module.sector[op.flavor])
            else:
                mult = sum(1 for p in state.boson if p == (op.flavor, op.n))
                if mult:
                    reduced = list(state.boson)
                    reduced.remove((op.flavor, op.n))
                    out.add_term(
                        BasisState(boson=tuple(reduced)), coeff * mult * op.n
                    )
        return out

    for state, coeff in x.terms.items():
        nb = len(state.ferm_b)
        if spec.kind == "real_fermion":
            if op.n <= -1:
                j = -op.n
                res = _fermion_insert(state.ferm_b, j)
                if res is None:
                    continue
                sgn, levels = res
                new = BasisState(ferm_b=levels)
                if state_level(spec, new) > cap:
                    continue
                out.add_term(new, coeff * (-1.0) ** sgn)
            else:
                res = _fermion_remove(state.ferm_b, op.n + 1)
                if res is None:
                    continue
                sgn, levels = res
                out.add_term(BasisState(ferm_b=levels), coeff * (-1.0) ** sgn)
            continue

        # complex fermion
        if op.species == "b":
            if op.n <= -1:
                res = _fermion_insert(state.ferm_b, -op.n)
                if res is None:
                    continue
                sgn, levels = res
                new = BasisState(ferm_b=levels, ferm_c=state.ferm_c)
                if state_level(spec, new) > cap:
                    continue
                out.add_term(new, coeff * (-1.0) ** sgn)
            else:
                res = _fermion_remove(state.ferm_c, op.n + 1)
                if res is None:
                    continue
                sgn, levels = res
                out.add_term(
                    BasisState(ferm_b=state.ferm_b, ferm_c=levels),
                    coeff * (-1.0) ** (nb + sgn),
                )
        else:
            if op.n <= -1:
                res = _fermion_insert(state.ferm_c, -op.n)
                if res is None:
                    continue
                sgn, levels = res
                new = BasisState(ferm_b=state.ferm_b, ferm_c=levels)
                if state_level(spec, new) > cap:
                    continue
                out.add_term(new, coeff * (-1.0) ** (nb + sgn))
            else:
                res = _fermion_remove(state.ferm_b, op.n + 1)
                if res is None:
                    continue
                sgn, levels = res
                out.add_term(
                    BasisState(ferm_b=levels, ferm_c=state.ferm_c),
                    coeff * (-1.0) ** sgn,
                )
    return out


def apply_terms(module, terms, x):
    """The sum of coeff * modes . x over mode monomials, modes[0] acting
    first, applied with apply_mode."""
    total = AlgebraElement.zero()
    for coeff, modes in terms:
        y = x
        for op in modes:
            y = apply_mode(op, y, module)
        total = total.plus(y.scaled(coeff))
    return total


def zero_mode_operator(module, v, lam=0):
    """o_lam(v): the monomials of zero_mode_terms applied with apply_mode."""
    terms = zero_mode_terms(module, v, lam)
    return lambda x: apply_terms(module, terms, x)


def _single_components(spec, v):
    """Split v into an identity multiple and single-oscillator components."""
    scalar = 0.0 + 0.0j
    comps = []
    for state, cv in sorted(v.terms.items()):
        if state == VACUUM:
            scalar += cv
            continue
        nosc = len(state.boson) + len(state.ferm_b) + len(state.ferm_c)
        if nosc != 1:
            raise UnsupportedInsertion(
                "field insertions must be vacuum or single-oscillator states"
            )
        if state.boson:
            comps.append((cv, "a", state.boson[0][0], state.boson[0][1]))
        elif state.ferm_b:
            comps.append((cv, "b", 0, state.ferm_b[0]))
        else:
            comps.append((cv, "c", 0, state.ferm_c[0]))
    return scalar, comps


def apply_field(module, v, w, x):
    """Dressed vertex operator of v at position w applied to x, one
    species mode X(m) at a time."""
    spec = module.spec
    scalar, comps = _single_components(spec, v)
    out = x.scaled(scalar)
    mmax = int(math.ceil(module.cap)) + 2
    for cv, species, flavor, j in comps:
        wt_x = spec.species_weight(species)
        for m in range(-mmax, mmax + 1):
            # (X(-j)vac)(n) = (-1)^{j-1} C(n, j-1) X(n-j+1) with n = m+j-1
            cc = (-1.0) ** (j - 1) * _general_binom(m + j - 1, j - 1)
            if cc == 0.0:
                continue
            term = apply_mode(ModeOp(species, m, flavor), x, module)
            if term.is_zero():
                continue
            dress = phase(w * (wt_x - m - 1))
            out = out.plus(term.scaled(cv * cc * dress))
    return out


def state_factor(module, tau, tw, state):
    """Trace weight of one basis state."""
    spec, sector = module.spec, module.sector
    charge = state_charge(spec, sector, state)
    wt = sector_weight(spec, sector) + state_level(spec, state) + tw.charge_weight_shift * charge
    if tw.include_c_shift:
        wt -= spec.central_charge / 24.0
    expo = tau.tau * wt
    if tw.flux_z is not None:
        expo = expo + tw.flux_z * charge
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


def perturbed_kz_residual(base_req, v_next, w_next, scale):
    """|reduce_full(extended) - rhs| / max(1, |reduce_full(extended)|), where
    rhs is the "simplest" stage sum over the reduction family of base_req
    with its largest contribution multiplied by scale."""
    extended = base_req.with_insertions(base_req.insertions + ((v_next, complex(w_next)),))
    lhs, _ = reduce_full(extended)
    vs, ws = zip(*extended.insertions)
    values = [c.value for c in stage_contributions(
        "simplest", base_req, reduction_family(base_req), vs, ws
    )]
    top = max(range(len(values)), key=lambda i: abs(values[i]))
    rhs = sum((x * (scale if i == top else 1.0) for i, x in enumerate(values)), 0.0 + 0.0j)
    return abs(lhs - rhs) / max(1.0, abs(lhs))
