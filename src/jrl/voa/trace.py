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

A trace is a sum over paths of one monomial per operator, applied
innermost first to every basis state at once.  A monomial changes the
level by the same amount on every state, so the outermost operator only
needs the monomials that bring the path back to its starting level; the
path then contributes where it ends on its own start state.  That walk,
`_closing_paths`, is written once and has two consumers:

- `graded_trace` starts it from the trace weights with dressed field
  coefficients and sums what closes: the direct trace of one tau, flux
  and set of positions, recomputed on every call;
- `trace_tensor` starts it from unit amplitudes with undressed
  coefficients and bins each closing path by the (level, charge, parity)
  class of its start state under its tuple of field level shifts.  The
  resulting `TraceTensor` is free of tau, the flux and the positions, and
  `TraceTensor.evaluate` brings them in with one contraction: the terms
  of Zhu's expansion of torus n-point functions (Y. Zhu, J. AMS 9 (1996)
  237), truncated at the module's level cap.  It carries a zero mode
  o_lam(v) as its outermost operator.
"""

from __future__ import annotations

import cmath
import math
import sys
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


# the largest x with a finite exp(x)
_LOG_MAX = math.log(sys.float_info.max)


def _phases(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """phase() elementwise of re + i im: re reduced mod 1 before exponentiating."""
    f = np.empty(len(re), dtype=complex)
    f.real = -2.0 * math.pi * im
    f.imag = 2.0 * math.pi * np.mod(re, 1.0)
    np.exp(f, out=f)
    return f


def _weights(spec: AlgebraSpec, sector, level, charge, parity, tau: ModularPoint, tw: TraceWeights):
    """Trace weight of states of the given level, charge and parity arrays.
    A weight past the float range raises DomainViolation."""
    wt = sector_weight(spec, sector) + level + tw.charge_weight_shift * charge
    if tw.include_c_shift:
        wt -= spec.central_charge / 24.0
    # real and imaginary parts of tau * wt + z * charge
    re = tau.tau.real * wt
    im = tau.tau.imag * wt
    if tw.flux_z is not None:
        z = complex(tw.flux_z)
        re += z.real * charge
        im += z.imag * charge
    if not -2.0 * math.pi * im.min(initial=math.inf) <= _LOG_MAX:
        raise DomainViolation(f"a trace weight overflows the float range at Im x = {im.min()}")
    f = _phases(re, im)
    if tw.supertrace:
        f[parity == 1] *= -1.0
    return f


def _grading_factors(module: ModuleSpace, tau: ModularPoint, tw: TraceWeights) -> np.ndarray:
    """Trace weight of every basis state, in module order."""
    arr = module.arrays
    return _weights(module.spec, module.sector, arr.level, arr.charge, arr.parity, tau, tw)


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


def _closing_paths(module: ModuleSpace, layers: list, amp: np.ndarray, close) -> None:
    """The path sum of operator layers over every basis state at once.

    layers[0] is the leftmost operator; a layer is a list of (modes,
    coeff, shift) terms, () standing for the identity and shift the level
    change of the monomial.  A path takes one monomial per layer, applied
    innermost first; it is carried on all basis states at once as (start
    index, current index, amplitude) arrays, starting from the amplitudes
    amp, and drops the states its modes annihilate or push above the
    level cap.  The outermost layer only needs the monomials that bring
    the path back to its start level.

    Calls close(shifts, coeff, start, diag, amp) for each such closing
    monomial of each path, in a fixed order: shifts the level shift of
    every layer along the path, coeff the closing monomial's coefficient,
    start and amp the start state and amplitude of each entry, and diag
    the monomial's diagonal on the entries: a boolean mask where the
    monomial is the identity, else its coefficient where it returns an
    entry to its start state and 0 elsewhere.
    """
    closing: dict[float, list[tuple[tuple[ModeOp, ...], complex]]] = {}
    for modes, coeff, shift in layers[0]:
        closing.setdefault(shift, []).append((modes, coeff))

    # With three or more layers, every layer but the innermost acts on
    # several branches of the path sum, so its mode images of the whole
    # module are kept for the walk.  With two, each image is used once.
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

    def descend(depth: int, start, cur, amp, level: float, shifts: tuple):
        if depth == 0:
            for modes, coeff in closing.get(-level, ()):
                if not modes:
                    diag = cur == start
                else:
                    target, c = image(0, modes, cur)
                    diag = np.where(target == start, c, 0.0)
                close((-level,) + shifts, coeff, start, diag, amp)
            return
        for modes, coeff, shift in layers[depth]:
            if not modes:
                descend(depth - 1, start, cur, coeff * amp, level, (shift,) + shifts)
                continue
            target, c = image(depth, modes, cur)
            keep = c.nonzero()[0]
            if keep.size:
                amp_next = amp[keep] * (coeff * c[keep])
                descend(
                    depth - 1, start[keep], target[keep], amp_next, level + shift, (shift,) + shifts
                )

    descend(innermost, every, every, amp, 0.0, ())


def _finite(total: complex) -> complex:
    """total, which must be finite: a path amplitude past the float range
    makes a sum inf or NaN even where the trace itself is a float."""
    if not cmath.isfinite(total):
        raise DomainViolation("trace sum is not finite: a path amplitude passes the float range")
    return total


def graded_trace(
    module: ModuleSpace,
    insertions: Sequence[tuple[AlgebraElement, complex]],
    tau: ModularPoint,
    tw: TraceWeights,
) -> complex:
    """Tr Y(x_1, w_1) ... Y(x_n, w_n) against the graded weights: the
    closing paths of the dressed fields, each contracted with the trace
    weights of its start states.  Nothing is cached between calls.

    insertions[0] is leftmost; their positions are not validated here.
    """
    weights = _grading_factors(module, tau, tw)
    if not insertions:
        return complex(weights.sum())
    total = 0.0 + 0.0j

    def close(shifts, coeff, start, diag, amp):
        nonlocal total
        total += coeff * (amp[diag].sum() if diag.dtype == bool else np.dot(diag, amp))

    layers = [_field_terms(module, v, w) for v, w in insertions]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _finite
        _closing_paths(module, layers, weights, close)
    return _finite(complex(total))


class TraceTensor:
    """Tr o_lam(v) Y(x_1, w_1) ... Y(x_n, w_n) of one module and one tuple
    of elements, free of tau, the flux and the positions.

    A closing path with level shifts s = (s_1, ..., s_n) of its fields
    contributes e(w_1 s_1 + ... + w_n s_n) times the trace weight of its
    start state, and that weight depends only on the state's class
    b = (level, charge, parity).  So the trace is

        sum_{s, b} e(w . s) T[s, b] weight(b),

    where T[s, b] sums the undressed path coefficients of the paths with
    shifts s from the states of class b.  `shifts` holds the s, one row
    per row of `table` (T); `level`, `charge` and `parity` hold one
    representative state per class.
    """

    __slots__ = ("spec", "sector", "level", "charge", "parity", "shifts", "table")

    def __init__(self, module: ModuleSpace, shifts, table, level, charge, parity):
        self.spec, self.sector = module.spec, module.sector
        self.shifts, self.table = shifts, table
        self.level, self.charge, self.parity = level, charge, parity

    def evaluate(self, tau: ModularPoint, tw: TraceWeights, ws: Sequence[complex]) -> complex:
        """The trace at tau, the trace weights tw and the field positions ws."""
        ws = np.array([complex(w) for w in ws], dtype=complex)
        if len(ws) != self.shifts.shape[1]:
            raise DomainViolation(f"tensor expects {self.shifts.shape[1]} positions, got {len(ws)}")
        weights = _weights(self.spec, self.sector, self.level, self.charge, self.parity, tau, tw)
        dress = _phases(self.shifts @ ws.real, self.shifts @ ws.imag)
        return _finite(complex(dress @ (self.table @ weights)))


def trace_tensor(
    module: ModuleSpace,
    elements: Sequence[AlgebraElement],
    zero_mode: tuple[AlgebraElement, float],
) -> TraceTensor:
    """The TraceTensor of Tr o_lam(v) Y(x_1, .) ... Y(x_n, .) on module,
    with elements = (x_1, ..., x_n) and zero_mode = (v, lam).

    The paths are those of `graded_trace`, walked once from unit
    amplitudes with undressed field coefficients, each closing path binned
    by the class of its start state under its field shifts.  A zero mode
    foreign to the module raises although no path reaches it.
    """
    v, lam = zero_mode
    # every monomial of o_lam(v) lowers the level by lam; at w = 0 every
    # field dress e(0) is exactly 1, so the field coefficients are undressed
    layers = [[(modes, c, -float(lam)) for c, modes in zero_mode_terms(module, v, lam)]]
    layers += [_field_terms(module, x, 0j) for x in elements]
    arr = module.arrays
    # class of each state: equal (level, charge, parity) runs after a sort
    order = np.lexsort((arr.parity, arr.charge, arr.level))
    grade = np.stack((arr.level, arr.charge, arr.parity))[:, order]
    new = np.concatenate(([True], (grade[:, 1:] != grade[:, :-1]).any(axis=0)))
    cls = np.empty(module.dim, dtype=np.intp)
    cls[order] = np.cumsum(new) - 1
    rep = order[new]
    rows: dict[tuple, np.ndarray] = {}

    def close(shifts, coeff, start, diag, amp):
        x, b = diag * amp, cls[start]
        binned = np.bincount(b, x.real, len(rep)) + 1j * np.bincount(b, x.imag, len(rep))
        row = rows.setdefault(shifts[1:], np.zeros(len(rep), dtype=complex))
        row += coeff * binned

    _closing_paths(module, layers, np.ones(module.dim), close)
    shifts = np.array(list(rows), dtype=float).reshape(len(rows), len(elements))
    table = np.array(list(rows.values()), dtype=complex).reshape(len(rows), len(rep))
    return TraceTensor(module, shifts, table, arr.level[rep], arr.charge[rep], arr.parity[rep])


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
