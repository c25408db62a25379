"""Graded traces and direct Fock-space n-point functions.

Trace weights: a basis state s of weight wt, current charge ch, and
parity p contributes

    (-1)^{p * [supertrace]} * e(tau * (wt + cws * ch - c/24 * [c_shift]) + z * ch)

with e(x) = exp(2 pi i x), flux zeta = e(z), and cws an optional extra
weight per unit charge (used by the charge-regraded trace).  Keeping the
exponents additive avoids complex-power branch cuts entirely.  The weights
of all basis states are computed as one array.

Every operator in a trace is built from the zero modes o_lam(v) =
v(wt - 1 + lam) of `zero_mode_terms`, each a sum of mode monomials that
lowers the level by lam.  A zero-mode insertion is one o_lam(v); a field
insertion is the dressed vertex operator

    Y(v, w) = sum_{lam in wt + Z} e(-w lam) o_lam(v),

so it takes every state shape `zero_mode_terms` takes: the vacuum, single
oscillators, boson pairs and the b-c bilinear.  Operator order is left to
right in the argument list, so the last insertion acts first and must
carry the largest Im w:

    0 < Im w_1 < Im w_2 < ... < Im w_n < Im tau.

`graded_trace` sums over paths of one monomial per operator, applied
innermost first to every basis state at once.  A monomial changes the
level by the same amount on every state, so the outermost operator only
needs the monomials that bring the path back to its starting level; the
path then contributes where it ends on its own start state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DomainViolation, UnsupportedInsertion
from ..specfun.points import ModularPoint, phase
from .algebra import (
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModeOp,
    ModuleSpace,
    _round_modes,
    apply_terms,
    enumerate_basis,
    mode_image,
    sector_weight,
    zero_mode_terms,
)

DEFAULT_HEADROOM = 12


def current_state(spec: AlgebraSpec) -> AlgebraElement:
    """The distinguished weight-one current as a vacuum-module element."""
    if spec.kind == "heisenberg":
        out = AlgebraElement.zero()
        for f, beta in enumerate(spec.current_coefficients()):
            if beta:
                out.add_term(BasisState(boson=((f, 1),)), beta)
        return out
    if spec.kind == "complex_fermion":
        return AlgebraElement.from_state(BasisState(ferm_b=(1,), ferm_c=(1,)))
    raise UnsupportedInsertion("no distinguished current for this algebra")


def oscillator_state(species: str, j: int = 1, flavor: int = 0) -> AlgebraElement:
    """Single-creator state X(-j)vac."""
    if j < 1:
        raise DomainViolation("creator label must be >= 1")
    if species == "a":
        return AlgebraElement.from_state(BasisState(boson=((flavor, j),)))
    if species == "b":
        return AlgebraElement.from_state(BasisState(ferm_b=(j,)))
    if species == "c":
        return AlgebraElement.from_state(BasisState(ferm_c=(j,)))
    raise DomainViolation(f"unknown species {species!r}")


def apply_field(
    module: ModuleSpace, v: AlgebraElement, w: complex, x: AlgebraElement
) -> AlgebraElement:
    """Dressed vertex operator of v at position w applied to x."""
    return apply_terms(module, [(c, modes) for modes, c, _ in _field_terms(module, v, w)], x)


@dataclass(frozen=True)
class TraceWeights:
    """Flux and grading data entering the trace weight of each state."""

    flux_z: complex | None = None
    supertrace: bool = False
    include_c_shift: bool = False
    charge_weight_shift: float = 0.0


def _grading_factors(module: ModuleSpace, tau: ModularPoint, tw: TraceWeights) -> np.ndarray:
    """Trace weight of every basis state, in module order."""
    arr = module.arrays
    wt = sector_weight(module.spec, module.sector) + arr.level + tw.charge_weight_shift * arr.charge
    if tw.include_c_shift:
        wt -= module.spec.central_charge / 24.0
    # real and imaginary parts of tau * wt + z * charge
    re = tau.tau.real * wt
    im = tau.tau.imag * wt
    if tw.flux_z is not None:
        z = complex(tw.flux_z)
        re += z.real * arr.charge
        im += z.imag * arr.charge
    # phase() elementwise: Re reduced mod 1 before exponentiating
    f = np.empty(module.dim, dtype=complex)
    f.real = -2.0 * math.pi * im
    f.imag = 2.0 * math.pi * np.mod(re, 1.0)
    np.exp(f, out=f)
    if tw.supertrace:
        f[arr.parity == 1] *= -1.0
    return f


def partition_function(module: ModuleSpace, tau: ModularPoint, tw: TraceWeights) -> complex:
    """The zero-point trace: the sum of the trace weights."""
    return complex(_grading_factors(module, tau, tw).sum())


def _field_terms(
    module: ModuleSpace, v: AlgebraElement, w: complex
) -> list[tuple[tuple[ModeOp, ...], complex, float]]:
    """Y(v, w) = sum_lam e(-w lam) o_lam(v) as (modes, coefficient, level
    change) terms, () standing for the identity.

    A component of weight wt takes lam in wt + Z, its round mode
    n = wt - 1 + lam changing the level by -lam; o_lam(v) vanishes on the
    module unless |lam| <= cap, so lam stops at ceil(cap).  The monomials
    are those of zero_mode_terms, read from `_round_modes` once per
    component rather than once per lam.
    """
    top = math.ceil(module.cap)
    terms: dict[tuple[ModeOp, ...], list] = {}
    for state, cv in sorted(v.terms.items()):
        wt = module.level(state)
        modes_at = _round_modes(module, state, cv)
        for n in range(math.ceil(wt - 1 - top), math.floor(wt - 1 + top) + 1):
            shift = wt - 1 - n
            dress = phase(w * shift)
            for c, modes in modes_at(n):
                terms.setdefault(modes, [0.0, shift])[0] += c * dress
    return [(modes, c, shift) for modes, (c, shift) in terms.items()]


def graded_trace(
    module: ModuleSpace,
    insertions: Sequence[tuple[AlgebraElement, complex]],
    tau: ModularPoint,
    tw: TraceWeights,
    zero_mode: tuple[AlgebraElement, float] | None = None,
) -> complex:
    """Tr o_lam(v) Y(x_1, w_1) ... Y(x_n, w_n) against the graded weights,
    with zero_mode = (v, lam), or without o_lam(v) when it is None.

    insertions[0] is leftmost; their positions are not validated here.
    The path sum is depth first.  Each path is carried on all basis states
    at once as (start index, current index, amplitude) arrays, and drops
    the states its modes annihilate or push above the level cap.
    """
    weights = _grading_factors(module, tau, tw)
    zero = None if zero_mode is None else zero_mode_terms(module, *zero_mode)
    layers = [_field_terms(module, v, w) for v, w in insertions]
    if zero is not None:
        # every monomial of o_lam(v) lowers the level by lam
        layers.insert(0, [(modes, c, -float(zero_mode[1])) for c, modes in zero])
    if not layers:
        return complex(weights.sum())
    closing: dict[float, list[tuple[tuple[ModeOp, ...], complex]]] = {}
    for modes, coeff, shift in layers[0]:
        closing.setdefault(shift, []).append((modes, coeff))

    # With three or more layers, every layer but the innermost acts on
    # several branches of the path sum, so its mode images of the whole
    # module are kept for this call.  With two, each image is used once.
    every = np.arange(module.dim)
    innermost = len(layers) - 1
    kept: dict[ModeOp, tuple[np.ndarray, np.ndarray]] = {}

    def image(depth: int, modes: Sequence[ModeOp], cur: np.ndarray):
        """(target, coeff) of a mode monomial on the states cur; modes[0]
        acts first."""
        op, *rest = modes
        if innermost < 2 or depth == innermost:
            target, c = mode_image(op, module, cur)
        else:
            if op not in kept:
                kept[op] = mode_image(op, module, every)
            target, c = kept[op]
            target, c = target[cur], c[cur]
        if rest:
            hit = c.nonzero()[0]
            target[hit], c_rest = image(depth, rest, target[hit])
            c[hit] *= c_rest
        return target, c

    total = 0.0 + 0.0j

    def descend(depth: int, start: np.ndarray, cur: np.ndarray, amp: np.ndarray, level: float):
        nonlocal total
        if depth == 0:
            for modes, coeff in closing.get(-level, ()):
                if not modes:
                    total += coeff * amp[cur == start].sum()
                else:
                    target, c = image(0, modes, cur)
                    total += coeff * np.dot(np.where(target == start, c, 0.0), amp)
            return
        for modes, coeff, shift in layers[depth]:
            if not modes:
                descend(depth - 1, start, cur, coeff * amp, level)
                continue
            target, c = image(depth, modes, cur)
            keep = c.nonzero()[0]
            if keep.size:
                amp_next = amp[keep] * (coeff * c[keep])
                descend(depth - 1, start[keep], target[keep], amp_next, level + shift)

    descend(innermost, every, every, weights, 0.0)
    return complex(total)


def npoint_trace(
    module: ModuleSpace,
    insertions: Sequence[tuple[AlgebraElement, complex]],
    tau: ModularPoint,
    tw: TraceWeights,
) -> complex:
    """Direct Fock-space n-point trace.

    insertions[0] is leftmost; positions must be nested,
    0 < Im w_1 < ... < Im w_n < Im tau.
    """
    ims = [complex(w).imag for _, w in insertions]
    if ims and not all(x < y for x, y in zip(ims, ims[1:])):
        raise DomainViolation("positions must have strictly increasing Im w")
    if ims and not (0.0 < ims[0] and ims[-1] < tau.tau.imag):
        raise DomainViolation("positions must satisfy 0 < Im w < Im tau")
    return graded_trace(module, insertions, tau, tw)


def working_module(
    spec: AlgebraSpec,
    sector: tuple[float, ...],
    cap: float,
    headroom: int = DEFAULT_HEADROOM,
) -> ModuleSpace:
    """Module enlarged by `headroom` levels so that intermediate states in
    operator products are retained.  Contributions needing more headroom
    are suppressed by (|q_{w_inner}| / |q_{w_outer}|)^headroom."""
    return enumerate_basis(spec, sector, cap + headroom)
