"""Residuals for the trace-function identities the reduction relies on.

Each function returns a normalised residual: zero (to tolerance) when the
identity holds.  All traces are truncated, so tolerances follow the
Truncation error scale rather than machine epsilon.
"""

from __future__ import annotations

from ..errors import NonIntegerWeight, NotOnLattice
from ..specfun.points import phase
from ..voa.algebra import AlgebraElement
from .coboundary import coboundary_apply, reduction_family
from .steps import bracket_images, reduce_full, with_slot, zero_mode_trace
from .types import NPointRequest, element_weight_charge, npoint_oracle, select_branch


def identity_v0_sum(req: NPointRequest, v: AlgebraElement) -> float:
    """Residual of sum_k (+-) Z((v[0].)_k insertions) = 0 for integer weight v."""
    wt, _, par = element_weight_charge(req.spec, v)
    if wt % 1:
        raise NonIntegerWeight(f"v[0]-sum needs integer weight, got {wt}")
    total, scale = _mode_sweep_sum(req, v, wt, par, 0.0)
    return abs(total) / max(1.0, scale)


def _mode_sweep_sum(
    req: NPointRequest, v: AlgebraElement, wt: float, par: int, beta: float
) -> tuple[complex, float]:
    """sum_k (+-) e(w_k beta) Z((v[0]_beta.)_k ...), with term scale.

    v[0]_beta = sum_m beta^m/m! v[m], so this is the mode sweep
    sum_k sum_m (+-) e(w_k beta) beta^m/m! Z((v[m].)_k ...) read from one
    image and one trace per slot; beta = 0 is the v[0] sum."""
    vs = tuple(u for u, _ in req.insertions)
    total = 0.0 + 0.0j
    scale = 0.0
    for k, _, img, sign in bracket_images(req.spec, v, wt, par, vs, last=0, shift=beta):
        w_k = req.insertions[k - 1][1]
        term = sign * phase(w_k * beta) * npoint_oracle(with_slot(req, k, img))
        total += term
        scale += abs(term)
    return total, scale


def identity_rec1(req: NPointRequest, v: AlgebraElement, beta: int) -> float:
    """Residual of the level-beta mode recursion.

    (1 - zeta^{-alpha} q^beta) Tr o_beta(v) Y(...) zeta^{J} q^{L}
      = sum_k sum_m e(w_k beta) beta^m/m! Z((v[m].)_k ...)
    """
    if beta % 1 != 0 or beta < 1:
        raise NotOnLattice("recursion index beta must be a positive integer")
    beta = int(beta)
    wt, ch, par = element_weight_charge(req.spec, v)
    factor = 1.0 - phase(-ch * complex(req.params.z) + beta * req.params.tau.tau)
    lhs = factor * zero_mode_trace(req, v, beta, req.insertions)
    rhs, _ = _mode_sweep_sum(req, v, wt, par, float(beta))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def identity_zero_res(req: NPointRequest, v: AlgebraElement) -> float:
    """Residual of the vanishing mode sum at a lattice flux.

    When alpha z = lambda tau + mu with integer lambda, mu the recursion
    prefactor 1 - zeta^{-alpha} q^lambda vanishes, so the mode sweep on the
    right-hand side must sum to zero on its own."""
    wt, ch, par = element_weight_charge(req.spec, v)
    branch = select_branch(ch, complex(req.params.z), req.params.tau)
    if branch.kind != "lattice":
        raise NotOnLattice(f"alpha z = {ch * complex(req.params.z)} is not on the lattice")
    total, scale = _mode_sweep_sum(req, v, wt, par, float(branch.lam))
    return abs(total) / max(1.0, scale)


def kz_residual(
    base_req: NPointRequest, v_next: AlgebraElement, w_next: complex, variant: str = "simplest"
) -> float:
    """Residual between the direct (n+1)-point reduction and its coboundary
    form: |reduce_full(extended) - (delta(v_next) reduction_family)(vs, ws)|
    / max(1, |reduce_full(extended)|), extended being base_req with
    (v_next, w_next) appended."""
    extended = base_req.with_insertions(base_req.insertions + ((v_next, complex(w_next)),))
    lhs, _ = reduce_full(extended)
    vs, ws = zip(*extended.insertions)
    rhs = coboundary_apply(variant, v_next, reduction_family(base_req), base_req).evaluate(vs, ws)
    return abs(lhs - rhs) / max(1.0, abs(lhs))
