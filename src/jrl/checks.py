"""The identity suite of `jrl verify`: each check maps a truncation to one
residual (specfun identities, partition functions against closed-form
products, reduction identities against direct traces)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .reduction import (
    JacobiParams,
    NPointRequest,
    chain_condition_residual,
    identity_rec1,
    identity_v0_sum,
    identity_zero_res,
    kz_residual,
    npoint_oracle,
    reduce_full,
    reduce_negative_mode,
    reduction_family,
    vacuum_module,
)
from .specfun import (
    AnnulusPoint,
    ModularPoint,
    SL2Element,
    Truncation,
    eisenstein,
    eisenstein_tilde,
    jacobi_slash,
    laurent_coeffs_p1,
    p1_twisted_series_coefficient,
    phase,
    weier_p,
    weier_p_tilde,
    weier_p_twisted,
)
from .voa import (
    AlgebraElement,
    AlgebraSpec,
    ModeOp,
    TraceWeights,
    current_state,
    enumerate_basis,
    kappa,
    oscillator_state,
    partition_function,
    square_bracket_image,
)
from .voa.algebra import apply_terms


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    tolerance: float
    fn: Callable[[Truncation], float]


def fd_derivative(f: Callable[[complex], complex], w: complex, order: int, h: float) -> complex:
    """order-fold composition of the 5-point central first-derivative stencil."""
    if order == 0:
        return f(w)
    g = lambda u: fd_derivative(f, u, order - 1, h)
    return (-g(w + 2 * h) + 8 * g(w + h) - 8 * g(w - h) + g(w - 2 * h)) / (12 * h)


def _truncated_product(factors, cap_units: int, q_unit: complex) -> complex:
    """Evaluate prod (1 + a_i q^{e_i}) keeping exponents <= cap_units."""
    poly = {0: 1.0 + 0.0j}
    for e, a in factors:
        if e > cap_units:
            continue
        for k in sorted(poly, reverse=True):
            ke = k + e
            if ke <= cap_units:
                poly[ke] = poly.get(ke, 0.0 + 0.0j) + poly[k] * a
    return sum(poly[k] * q_unit**k for k in sorted(poly))


def _chk_eisenstein_exact(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    r = abs(eisenstein(0, tau, tr) + 1.0)
    for k in (3, 5, 7, 9):
        r = max(r, abs(eisenstein(k, tau, tr)))
    return r


def _chk_twisted_shift(tr: Truncation) -> float:
    # P_{1,lam} against -sum_{n != -lam} q_w^n / (1 - q^{n+lam}) over |n| <= n_mode + |lam|,
    # term by term; where n + lam < 0 the term is rewritten in powers of modulus below 1
    tau = ModularPoint(0.5j)
    p = AnnulusPoint(0.1 + 0.08j, tau)
    q, q_w = tau.q, p.q_w
    r = 0.0
    for lam in (-2, -1, 0, 1, 2, 3):
        series = 0.0 + 0.0j
        for n in range(-tr.n_mode - abs(lam), tr.n_mode + abs(lam) + 1):
            if n + lam > 0:
                series -= q_w**n / (1.0 - q ** (n + lam))
            elif n + lam < 0:
                series += (q / q_w) ** -n * q**-lam / (1.0 - q ** -(n + lam))
        r = max(r, abs(weier_p_twisted(1, lam, p, tr) - series))
    return r


def _chk_twisted_expansion(tr: Truncation) -> float:
    # series coefficients of P_{1,lam} from the shift identity, via the
    # explicit Cauchy product of exp(-lam u) with 1/u + 1/2 - sum E_j u^{j-1}
    tau = ModularPoint(0.5j)
    es = [eisenstein(j, tau, tr) for j in range(0, 9)]
    r = 0.0
    for lam in (1, 2):
        for k in range(1, 9):
            conv = (-lam) ** k / math.factorial(k) + 0.5 * (-lam) ** (k - 1) / math.factorial(k - 1)
            for j in range(2, k + 1):
                conv -= es[j] * (-lam) ** (k - j) / math.factorial(k - j)
            r = max(r, abs(p1_twisted_series_coefficient(k, lam, tau, tr) + conv))
    return r


def _chk_twisted_laurent(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    fit = laurent_coeffs_p1("twisted", {"lam": 1}, tau, 6, tr)
    r = abs(fit.pole_coefficient - 1.0)
    for k in range(1, 7):
        r = max(r, abs(fit[k - 1] + p1_twisted_series_coefficient(k, 1, tau, tr)))
    return r


def _chk_tilde_laurent(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    z = 0.23 - 0.11j
    fit = laurent_coeffs_p1("tilde", {"z": z}, tau, 6, tr)
    r = abs(fit.pole_coefficient - 1.0)
    for k in range(1, 7):
        r = max(r, abs(fit[k - 1] + eisenstein_tilde(k, z, tau, tr)))
    return r


def _chk_e2_anomaly(tr: Truncation) -> float:
    tr60 = replace(tr, n_q=max(tr.n_q, 60))
    tau = 1.0j
    s = -1.0 / tau
    e2 = eisenstein(2, ModularPoint(tau), tr60)
    e2s = eisenstein(2, ModularPoint(s), tr60)
    return abs(e2s - tau * tau * e2 + tau / (2j * math.pi))


def _chk_e4_s_invariance(tr: Truncation) -> float:
    tr60 = replace(tr, n_q=max(tr.n_q, 60))
    tau = 0.2 + 0.9j
    s = -1.0 / tau
    return abs(eisenstein(4, ModularPoint(s), tr60) - tau**4 * eisenstein(4, ModularPoint(tau), tr60))


def _chk_slash_e4(tr: Truncation) -> float:
    tr60 = replace(tr, n_q=max(tr.n_q, 60))
    gamma = SL2Element(0, -1, 1, 0)
    f = lambda z, t: eisenstein(4, ModularPoint(t), tr60)
    tau = 0.1 + 1.1j
    got = jacobi_slash(f, 4, 0.0, gamma, (0.0, 0.0), 0.0, tau)
    return abs(got - eisenstein(4, ModularPoint(tau), tr60))


def _chk_p_derivative_chain(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    w0 = 0.31 + 0.07j
    h = 1e-3
    two_pi_i = 2j * math.pi
    r = 0.0
    fams = [
        (lambda u: weier_p(1, AnnulusPoint(u, tau), tr), lambda m, u: weier_p(m, AnnulusPoint(u, tau), tr)),
        (
            lambda u: weier_p_tilde(1, AnnulusPoint(u, tau), 0.23 - 0.11j, tr),
            lambda m, u: weier_p_tilde(m, AnnulusPoint(u, tau), 0.23 - 0.11j, tr),
        ),
    ]
    for f1, fm in fams:
        for m in range(1, 5):
            want = fm(m + 1, w0)
            got = (-1) ** m / math.factorial(m) * fd_derivative(f1, w0, m, h) / two_pi_i**m
            r = max(r, abs(got - want) / max(1.0, abs(want)))
    return r


def _chk_heisenberg_partition(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    alpha = 0.4
    cap = 12
    module = enumerate_basis(spec, (alpha,), cap)
    tau = ModularPoint(0.5j)
    z = 0.23 - 0.11j
    got = partition_function(module, tau, TraceWeights(flux_z=z))
    q = tau.q
    poly = [1.0 + 0.0j] + [0.0j] * cap
    for n in range(1, cap + 1):
        # multiply by 1/(1-q^n) = sum_j q^{jn}
        for k in range(n, cap + 1):
            poly[k] += poly[k - n]
    series = sum(poly[k] * q**k for k in range(cap + 1))
    want = phase(z * alpha + tau.tau * alpha * alpha / 2.0) * series
    return abs(got - want) / max(1.0, abs(want))


def _chk_real_fermion_partition(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="real_fermion", grading="natural")
    cap = 11.5
    module = enumerate_basis(spec, (), cap)
    tau = ModularPoint(0.5j)
    got = partition_function(module, tau, TraceWeights())
    qh = phase(tau.tau / 2.0)
    units = int(2 * cap)
    want = _truncated_product(
        [(2 * n - 1, 1.0 + 0.0j) for n in range(1, units + 2)], units, qh
    )
    sup = partition_function(module, tau, TraceWeights(supertrace=True))
    want_sup = _truncated_product(
        [(2 * n - 1, -1.0 + 0.0j) for n in range(1, units + 2)], units, qh
    )
    return max(abs(got - want), abs(sup - want_sup)) / max(1.0, abs(want))


def _chk_complex_fermion_flux(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    cap = 12
    module = enumerate_basis(spec, (), cap)
    tau = ModularPoint(0.5j)
    z = 0.23 - 0.11j
    zeta = phase(z)
    got = partition_function(module, tau, TraceWeights(flux_z=z))
    factors = [(n, zeta) for n in range(1, cap + 1)]
    factors += [(n - 1, 1.0 / zeta) for n in range(1, cap + 2)]
    want = _truncated_product(factors, cap, tau.q)
    return abs(got - want) / max(1.0, abs(want))


def _chk_kappa_reference(tr: Truncation) -> float:
    r = abs(kappa(1.0, -1, 1) + 1.0 / 12.0)
    r = max(r, abs(kappa(1.0, -1, 0) - 0.5))
    r = max(r, abs(kappa(1.0, 0, 1)))
    return r


def _chk_mode_commutator(tr: Truncation) -> float:
    # [a(2), a(-2)] - 2 as mode monomials, modes[0] acting first
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.3,), 6)
    up = ModeOp("a", -2)
    dn = ModeOp("a", 2)
    commutator = [(1.0, (up, dn)), (-1.0, (dn, up)), (-2.0, ())]
    r = 0.0
    for s in module.states:
        if module.level(s) > 4:
            continue  # keep a(-2) images inside the cap
        r = max(r, apply_terms(module, commutator, AlgebraElement.from_state(s)).norm1())
    return r


def _heis_request(tr: Truncation, n: int = 1) -> NPointRequest:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    params = JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j))
    ws = [0.12j, 0.31j][:n]
    ins = tuple((current_state(spec), w) for w in ws)
    return NPointRequest(
        spec=spec, sector=(0.6,), cap=8.0, insertions=ins, params=params, truncation=tr
    )


def _chk_current_match(tr: Truncation, n: int) -> float:
    # the reduction of n currents against the direct trace; at n = 2 it
    # evaluates P_2 at w_2 - w_1 = 0.19i as a mode sum cut at tr.n_mode:
    # the residual is 3.8e-10 at the default n_mode, 2.4e-4 at n_mode 8
    # and 0.12 at n_mode 2
    req = _heis_request(tr, n)
    value, _ = reduce_full(req)
    ref = npoint_oracle(req)
    return abs(value - ref) / max(1.0, abs(ref))


def _chk_v0_sum(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    params = JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j), supertrace=True)
    req = NPointRequest(
        spec=spec,
        sector=(),
        cap=8.0,
        insertions=(
            (oscillator_state("b", 1), 0.12j),
            (oscillator_state("c", 1), 0.31j),
        ),
        params=params,
        truncation=tr,
    )
    return identity_v0_sum(req, current_state(spec))


def _chk_rec1(tr: Truncation) -> float:
    return identity_rec1(_heis_request(tr), current_state(AlgebraSpec(kind="heisenberg", rank=1)), 1)


def _chk_zero_res(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    tau = ModularPoint(0.5j)
    params = JacobiParams(z=tau.tau, tau=tau, supertrace=True)
    req = NPointRequest(
        spec=spec,
        sector=(),
        cap=10.0,
        insertions=((oscillator_state("c", 1), 0.2j),),
        params=params,
        truncation=tr,
    )
    return identity_zero_res(req, oscillator_state("b", 1))


def _chk_chain(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=2)
    params = JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j))
    base = NPointRequest(
        spec=spec,
        sector=(0.7, 0.0),
        cap=6.0,
        insertions=((oscillator_state("a", 1, 0), 0.11j),),
        params=params,
        truncation=tr,
    )
    return chain_condition_residual(
        "simplest",
        oscillator_state("a", 1, 0),
        oscillator_state("a", 1, 1),
        reduction_family(base),
        base,
        n_samples=4,
    )


def _chk_two_current(tr: Truncation) -> float:
    # Z(J[-1]J) by the negative-mode rule, whose E_2 kernel is a q-series
    # cut at tr.n_q, against the direct trace of the state J[-1]J: at
    # tau = i/2 the residual is 1e-16 at n_q 12, 1.8e-6 at n_q 4, 4.6e-5 at 3
    req = _heis_request(tr)
    J = current_state(req.spec)
    value = reduce_negative_mode(req, J, 1)
    state = square_bracket_image(vacuum_module(req.spec), J, -1, J)
    ref = npoint_oracle(req.with_insertions(((state, req.insertions[0][1]),)))
    return abs(value - ref) / max(1.0, abs(ref))


def _chk_kz(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    base = _heis_request(tr)
    return kz_residual(base, current_state(spec), 0.31j)


CHECKS: tuple[Check, ...] = (
    Check("eisenstein_odd_and_zero_index", "specfun", 0.0, _chk_eisenstein_exact),
    Check("twisted_shift_identity", "specfun", 1e-12, _chk_twisted_shift),
    Check("twisted_series_expansion", "specfun", 1e-12, _chk_twisted_expansion),
    Check("twisted_laurent_fit", "specfun", 1e-8, _chk_twisted_laurent),
    Check("tilde_laurent_fit", "specfun", 1e-8, _chk_tilde_laurent),
    Check("e2_modular_anomaly", "specfun", 1e-10, _chk_e2_anomaly),
    Check("e4_s_invariance", "specfun", 1e-10, _chk_e4_s_invariance),
    Check("slash_action_e4", "specfun", 1e-10, _chk_slash_e4),
    Check("p_derivative_chain", "specfun", 1e-6, _chk_p_derivative_chain),
    Check("heisenberg_partition_product", "voa", 1e-10, _chk_heisenberg_partition),
    Check("real_fermion_partition_product", "voa", 1e-10, _chk_real_fermion_partition),
    Check("complex_fermion_flux_product", "voa", 1e-10, _chk_complex_fermion_flux),
    Check("kappa_reference_values", "voa", 1e-14, _chk_kappa_reference),
    Check("mode_commutator", "voa", 1e-12, _chk_mode_commutator),
    Check("one_point_current_match", "reduction", 1e-5, partial(_chk_current_match, n=1)),
    Check("two_current_match", "reduction", 1e-8, partial(_chk_current_match, n=2)),
    Check("v0_sum_complex_fermion", "reduction", 1e-10, _chk_v0_sum),
    Check("rec1_beta_one", "reduction", 1e-6, _chk_rec1),
    Check("zero_res_lattice_flux", "reduction", 1e-8, _chk_zero_res),
    Check("chain_cross_flavor", "reduction", 1e-8, _chk_chain),
    Check("kz_self_consistency", "reduction", 1e-8, _chk_kz),
    Check("two_current_negative_mode", "reduction", 1e-5, _chk_two_current),
)
