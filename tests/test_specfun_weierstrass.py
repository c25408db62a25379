import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import oracles
from jrl.errors import DomainViolation, PoleHit
from jrl.specfun import (
    AnnulusPoint,
    ModularPoint,
    SL2Element,
    Truncation,
    TwistPair,
    eisenstein,
    eisenstein_tilde,
    eisenstein_twisted,
    jacobi_slash,
    laurent_coeffs_p1,
    p1_twisted_series_coefficient,
    weier_p,
    weier_p_deformed,
    weier_p_tilde,
    weier_p_twisted,
)
from jrl.specfun.laurent import _neumaier_columns
from jrl.specfun.points import MAX_NMODE, MAX_NQ, MAX_ORDER
from jrl.specfun.series import bernoulli, stable_sum

TR = Truncation(n_q=48, n_mode=96, tol=1e-14)
HALF_I = ModularPoint(0.5j)
W0 = 0.1 + 0.08j
Z0 = 0.23 - 0.11j


def pt(w, tau=HALF_I):
    return AnnulusPoint(w, tau)


def test_p_family_against_theta_derivatives():
    assert abs(weier_p(1, pt(W0), TR) - oracles.P1_THETA) < 1e-13
    assert abs(weier_p(2, pt(W0), TR) - oracles.P2_THETA) < 1e-13
    assert abs(weier_p(3, pt(W0), TR) - oracles.P3_THETA) < 1e-13
    assert abs(weier_p(4, pt(W0), TR) - oracles.P4_THETA) < 1e-13


def test_p_tilde_against_theta_quotient():
    got = weier_p_tilde(1, pt(W0), Z0, TR)
    assert abs(got - oracles.P1_TILDE_THETA) < 1e-13


def test_p_periodicity_in_w():
    for m in (1, 2, 3):
        a = weier_p(m, pt(W0), TR)
        b = weier_p(m, pt(W0 + 1.0), TR)
        assert abs(a - b) < 1e-12


def test_annulus_domain_enforced():
    # evaluation points live strictly between the two torus boundaries
    with pytest.raises(DomainViolation):
        AnnulusPoint(W0 + 0.5j, HALF_I)
    with pytest.raises(DomainViolation):
        AnnulusPoint(0.0 + 0.0j, HALF_I)


def test_p_tilde_flux_periodic():
    a = weier_p_tilde(1, pt(W0), Z0, TR)
    b = weier_p_tilde(1, pt(W0), Z0 + 1.0, TR)
    assert abs(a - b) < 1e-12


def test_p_twisted_at_zero_matches_plain_plus_half():
    # the twisted family drops the constant -1/2 carried by plain P_1
    a = weier_p_twisted(1, 0, pt(W0), TR)
    b = weier_p(1, pt(W0), TR)
    assert abs(a - (b + 0.5)) < 1e-12
    for m in (2, 3):
        assert abs(weier_p_twisted(m, 0, pt(W0), TR) - weier_p(m, pt(W0), TR)) < 1e-12


def test_p_deformed_trivial_twist_matches_twisted():
    tw = TwistPair(theta=1.0 + 0.0j, phi=1.0 + 0.0j, lam=0)
    for k in (1, 2):
        a = weier_p_deformed(k, tw, pt(W0), TR)
        b = weier_p_twisted(k, 0, pt(W0), TR)
        assert abs(a - b) < 1e-12


DEFORMED_PAIRS = [
    (theta, phi)
    for theta in (cmath.exp(0.3j), -1.0 + 0.0j)
    for phi in (-1.0 + 0.0j, cmath.exp(0.7j), 1.0 + 0.0j)
]


@pytest.mark.parametrize("theta, phi", DEFORMED_PAIRS)
def test_p_deformed_shift_identities(theta, phi):
    # n = j + lam turns the deformed sum into the tilde sum at
    # q_z = theta^{-1} q^lam, i.e. z = lam tau - log(theta)/(2 pi i)
    tw = TwistPair.from_theta_phi(theta, phi)
    lam = tw.lam
    z = lam * HALF_I.tau - cmath.log(tw.theta) / (2j * math.pi)
    q_w_lam = cmath.exp(2j * math.pi * lam * W0)
    p1 = weier_p_tilde(1, pt(W0), z, TR)
    p2 = weier_p_tilde(2, pt(W0), z, TR)
    assert abs(weier_p_deformed(1, tw, pt(W0), TR) - q_w_lam * p1) < 1e-12
    assert abs(weier_p_deformed(2, tw, pt(W0), TR) - q_w_lam * (p2 - lam * p1)) < 1e-12


def reference_mode_sum(m, p, tr, u=1.0, e=0, lam=0.0, omit=None):
    """The truncated sum ((-1)^m/(m-1)!) sum_{|n - lam| <= n_mode, n != omit}
    n^{m-1} q_w^n / (1 - u q^{n+e}), term by term in mpmath at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.mpc(p.tau.q)
        total = mpmath.mpc(0)
        for j in range(-tr.n_mode, tr.n_mode + 1):
            n = j + mpmath.mpf(lam)
            if n == omit or (n == 0 and m > 1):
                continue
            q_w_n = mpmath.exp(2j * mpmath.pi * n * p.w)
            total += n ** (m - 1) * q_w_n / (1 - u * mpmath.power(q, n + e))
        return complex((-1) ** m / mpmath.factorial(m - 1) * total)


TW = TwistPair.from_theta_phi(cmath.exp(0.3j), cmath.exp(0.7j))
TAU_G = ModularPoint(0.2 + 0.7j)
# w close to the upper boundary at n_mode 96: q^n and q_w^n underflow
EDGE = (AnnulusPoint(0.3 + 1.4j, ModularPoint(1.5j)), Truncation(n_mode=96))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("point, tr", [(pt(W0), TR), (AnnulusPoint(-0.4 + 0.3j, TAU_G), TR), EDGE])
def test_kernels_match_reference_mode_sum(m, point, tr):
    cases = [
        (weier_p(m, point, tr) + (0.5 if m == 1 else 0.0), dict(omit=0)),
        (weier_p_twisted(m, 2, point, tr), dict(e=2, omit=-2)),
        (weier_p_twisted(m, -1, point, tr), dict(e=-1, omit=1)),
        (weier_p_tilde(m, point, Z0, tr), dict(u=mpmath.exp(2j * mpmath.pi * Z0))),
        (weier_p_deformed(m, TW, point, tr), dict(u=1 / TW.theta, lam=TW.lam)),
    ]
    for got, kw in cases:
        want = reference_mode_sum(m, point, tr, **kw)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), kw


def test_truncation_orders_are_capped():
    Truncation(n_q=MAX_NQ, n_mode=MAX_NMODE)
    with pytest.raises(DomainViolation):
        Truncation(n_mode=MAX_NMODE + 1)
    with pytest.raises(DomainViolation):
        Truncation(n_q=MAX_NQ + 1)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda k: bernoulli(k),
        lambda k: eisenstein(k, HALF_I, TR),
        lambda k: eisenstein_twisted(k, 0.5, HALF_I, TR),
        lambda k: eisenstein_tilde(k, Z0, HALF_I, TR),
        lambda k: p1_twisted_series_coefficient(k, 1, HALF_I, TR),
        lambda k: weier_p(k, pt(W0), TR),
        lambda k: weier_p_twisted(k, 1, pt(W0), TR),
        lambda k: weier_p_tilde(k, pt(W0), Z0, TR),
        lambda k: weier_p_deformed(k, TwistPair.from_theta_phi(1j, -1.0), pt(W0), TR),
    ],
    ids=["bernoulli", "E", "Etwist", "Etilde", "P1twist_coefficient", "P", "Ptwist", "Ptilde", "Pdef"],
)
def test_orders_are_capped(evaluate):
    with pytest.raises(DomainViolation, match="MAX_ORDER"):
        evaluate(MAX_ORDER + 1)


def test_column_sums_match_stable_sum():
    rng = np.random.default_rng(3)
    terms = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-12, 12, size=(40, 5))
    terms = terms + 1j * terms[::-1]
    got = _neumaier_columns(terms)
    for s in range(terms.shape[1]):
        assert got[s] == stable_sum(terms[:, s].tolist())


def test_p_tilde_pole_at_lattice_flux():
    with pytest.raises(PoleHit):
        weier_p_tilde(1, pt(W0), 0.5j, TR)  # z = tau sits on the flux lattice


def test_e_tilde_pole_at_trivial_flux():
    from jrl.errors import PoleAtTrivialZ

    with pytest.raises(PoleAtTrivialZ):
        eisenstein_tilde(1, 0.0, HALF_I, TR)


def test_laurent_fit_twisted_recovers_coefficients():
    lam = 2
    fit = laurent_coeffs_p1("twisted", {"lam": lam}, HALF_I, 6, TR)
    assert fit.kind == "twisted"
    assert abs(fit.pole_coefficient - 1.0) < 1e-8
    for k in range(1, 7):
        want = -p1_twisted_series_coefficient(k, float(lam), HALF_I, TR)
        assert abs(fit.coefficients[k - 1] - want) < 1e-8


def test_laurent_fit_tilde_recovers_coefficients():
    fit = laurent_coeffs_p1("tilde", {"z": Z0}, HALF_I, 6, TR)
    assert abs(fit.pole_coefficient - 1.0) < 1e-8
    for k in range(1, 7):
        want = -eisenstein_tilde(k, Z0, HALF_I, TR)
        assert abs(fit.coefficients[k - 1] - want) < 1e-8


def test_laurent_fit_tilde_stays_finite_at_the_largest_truncation():
    # at n_q 512 the factor q_z^{-m} alone overflows and q^{nm} alone
    # underflows.  The tail past n_q 48 is below |q/q_z|^49 ~ 1e-27 at
    # z = 0.3i, so the two fits solve the same samples up to rounding;
    # 1e-12 leaves that rounding, amplified by the solve, a wide margin.
    z = 0.3j
    big = laurent_coeffs_p1("tilde", {"z": z}, HALF_I, 6, replace(TR, n_q=MAX_NQ))
    small = laurent_coeffs_p1("tilde", {"z": z}, HALF_I, 6, TR)
    assert all(cmath.isfinite(c) for c in (big.pole_coefficient, *big))
    assert abs(big.pole_coefficient - small.pole_coefficient) < 1e-12
    assert max(abs(a - b) for a, b in zip(big, small)) < 1e-12


def test_laurent_fit_tilde_rejects_flux_off_the_strip():
    with pytest.raises(DomainViolation):
        laurent_coeffs_p1("tilde", {"z": 0.5j}, HALF_I, 4, TR)


def test_laurent_fit_rejects_unknown_kind():
    with pytest.raises(DomainViolation):
        laurent_coeffs_p1("nope", {}, HALF_I, 4, TR)


def test_slash_weight_4_s_invariance():
    gamma = SL2Element(0, -1, 1, 0)
    tau = 0.1 + 1.1j

    def f(z, t):
        return eisenstein(4, ModularPoint(t), TR)

    got = jacobi_slash(f, 4, 0.0, gamma, (0.0, 0.0), 0.0, tau)
    want = eisenstein(4, ModularPoint(tau), TR)
    assert abs(got - want) < 1e-10


def test_slash_composition():
    # slash by S twice equals slash by S^2 = -1 which acts trivially
    gamma = SL2Element(0, -1, 1, 0)
    tau = 0.2 + 0.9j

    def f(z, t):
        return eisenstein(4, ModularPoint(t), TR) * (1.0 + 0.5 * z)

    once = lambda z, t: jacobi_slash(f, 4, 0.0, gamma, (0.0, 0.0), z, t)
    twice = jacobi_slash(once, 4, 0.0, gamma, (0.0, 0.0), 0.13, tau)
    direct = f(-0.13, tau)
    assert abs(twice - direct) < 1e-9


def test_e2_anomaly_shape():
    # E_2 fails weight-2 S-covariance by exactly tau/(2 pi i)
    tau = 1j
    s_tau = -1.0 / tau
    lhs = eisenstein(2, ModularPoint(s_tau), TR)
    rhs = tau**2 * eisenstein(2, ModularPoint(tau), TR) - tau / (2j * math.pi)
    assert abs(lhs - rhs) < 1e-12
