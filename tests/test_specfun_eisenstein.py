import math
from dataclasses import replace

import mpmath
import pytest

import oracles
from jrl.errors import DomainViolation
from jrl.specfun import (
    ModularPoint,
    Truncation,
    eisenstein,
    eisenstein_tilde,
    eisenstein_tilde_series_coefficient,
    eisenstein_twisted,
    p1_twisted_series_coefficient,
    phase,
)
from jrl.specfun.points import MAX_NQ, MAX_ORDER

TR = Truncation(n_q=48, n_mode=96, tol=1e-14)
HALF_I = ModularPoint(0.5j)
GENERIC = ModularPoint(0.3 + 0.4j)


def test_odd_vanish_and_zero_index_is_minus_one():
    for k in (1, 3, 5, 7):
        assert eisenstein(k, HALF_I, TR) == 0.0
    # E_0 = -B_0/0! with no positive-power tail
    assert eisenstein(0, HALF_I, TR) == -1.0


def test_values_against_closed_forms():
    i_pt = ModularPoint(1j)
    assert abs(eisenstein(2, i_pt, TR) - oracles.E2_AT_I) < 1e-15
    assert abs(eisenstein(4, i_pt, TR) - oracles.E4_AT_I) < 1e-15
    assert abs(eisenstein(6, i_pt, TR)) < 1e-15
    rho = ModularPoint(complex(-0.5, math.sqrt(3) / 2))
    assert abs(eisenstein(4, rho, TR)) < 1e-15


def test_values_against_high_precision_series():
    assert abs(eisenstein(2, HALF_I, TR) - oracles.E2_AT_HALF_I) < 1e-15
    assert abs(eisenstein(4, HALF_I, TR) - oracles.E4_AT_HALF_I) < 1e-15
    assert abs(eisenstein(6, HALF_I, TR) - oracles.E6_AT_HALF_I) < 1e-15
    assert abs(eisenstein(8, HALF_I, TR) - oracles.E8_AT_HALF_I) < 1e-15
    assert abs(eisenstein(2, GENERIC, TR) - oracles.E2_AT_GENERIC) < 1e-15
    assert abs(eisenstein(4, GENERIC, TR) - oracles.E4_AT_GENERIC) < 1e-15


def test_twisted_reduces_to_plain_at_zero():
    for k in (1, 2, 3, 4, 6):
        got = eisenstein_twisted(k, 0.0, HALF_I, TR)
        want = eisenstein(k, HALF_I, TR)
        assert abs(got - want) < 1e-15


def test_twisted_finite_sum_definition():
    # E_{k,lam} = sum_{j<=k} lam^j/j! E_{k-j}, with E_0 = 0 dropped
    lam = 1.7
    for k in range(1, 9):
        want = sum(
            lam**j / math.factorial(j) * eisenstein(k - j, HALF_I, TR)
            for j in range(k + 1)
        )
        got = eisenstein_twisted(k, lam, HALF_I, TR)
        assert abs(got - want) < 1e-12


def test_twisted_small_cases():
    # only the j = 1 term survives at k = 1: E_{1,lam} = lam E_0 = -lam
    assert eisenstein_twisted(1, 2.0, HALF_I, TR) == -2.0
    # k = 2 picks up E_2 plus the j = 2 term lam^2/2 E_0
    got = eisenstein_twisted(2, 3.0, HALF_I, TR)
    assert abs(got - (eisenstein(2, HALF_I, TR) - 4.5)) < 1e-15


def test_twisted_shift_identity():
    # shifting lam by one multiplies the defining generating kernel by e^u,
    # realized on coefficients as E_{k,lam+1} = sum_{j<=k} E_{k-j,lam}/j!
    lam = -1.3
    for k in range(1, 7):
        want = sum(
            eisenstein_twisted(k - j, lam, HALF_I, TR) / math.factorial(j)
            for j in range(k + 1)
        )
        got = eisenstein_twisted(k, lam + 1.0, HALF_I, TR)
        assert abs(got - want) < 1e-12


def test_tilde_series_coefficients_flux_periodic():
    z = 0.23 - 0.11j
    for k in (1, 2, 3):
        a = eisenstein_tilde(k, z, HALF_I, TR)
        b = eisenstein_tilde(k, z + 1.0, HALF_I, TR)
        assert abs(a - b) < 1e-12


def test_tilde_matches_series_coefficient_route():
    z = 0.23 - 0.11j
    for k in (1, 2, 3, 4):
        a = eisenstein_tilde(k, z, HALF_I, TR)
        b = eisenstein_tilde_series_coefficient(k, z, HALF_I, TR)
        assert abs(a - b) < 1e-12


def test_tilde_k1_constant_term():
    # q^0 term of E~_1 is -1/2 + 1/(1 - zeta) with zeta = e^{2 pi i z};
    # at strongly decaying q it dominates
    z = 0.23 - 0.11j
    tiny_q = ModularPoint(6.0j)
    zeta = phase(z)
    want = -0.5 + 1.0 / (1.0 - zeta)
    got = eisenstein_tilde(1, z, tiny_q, TR)
    assert abs(got - want) < 1e-12


def test_twisted_p1_coefficient_lam_zero():
    # the untwisted kernel has c_1 = -1/2 (this family omits the constant
    # -1/2 that plain P_1 carries in its u^0 term) and c_k = E_k beyond it
    c1 = p1_twisted_series_coefficient(1, 0.0, HALF_I, TR)
    assert abs(c1 + 0.5) < 1e-14
    for k in (2, 4, 6):
        ck = p1_twisted_series_coefficient(k, 0.0, HALF_I, TR)
        assert abs(ck - eisenstein(k, HALF_I, TR)) < 1e-13


def test_twisted_p1_coefficient_rejects_zero_index():
    with pytest.raises(DomainViolation):
        p1_twisted_series_coefficient(0, 1.0, HALF_I, TR)


def _series_reference(k, tau, n_q, flux=None):
    """The truncated double sum of eisenstein (flux None) or eisenstein_tilde
    at 40 digits, where no term overflows."""
    with mpmath.workdps(40):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        qz = None if flux is None else mpmath.exp(2j * mpmath.pi * mpmath.mpc(flux))
        total = mpmath.mpf(0)
        for n in range(1, n_q + 1):
            for m in range(1, n_q // n + 1):
                if flux is None:
                    total += 2 * mpmath.mpf(n) ** (k - 1) * q ** (n * m)
                else:
                    flux = qz**m + (-1) ** k * qz ** (-m)
                    total += mpmath.mpf(n) ** (k - 1) * flux * q ** (n * m)
        head = -mpmath.bernoulli(k) / mpmath.factorial(k)
        if flux is not None and k == 1:
            head -= qz / (qz - 1)
        return complex(head + total / mpmath.factorial(k - 1))


@pytest.mark.parametrize(
    "k, flux", [(MAX_ORDER, None), (2, 0.3j)], ids=["E_max_order", "Etilde_2_flux_0.3i"]
)
def test_values_at_the_largest_truncation(k, flux):
    # n^{k-1} alone overflows past n = 266 at k = 128, and q_z^{-m} alone
    # past m = 376 at Im z = 0.3; the terms themselves are small.  Both
    # sides add the same terms, so they agree to rounding: 1e-12 relative.
    tr = replace(TR, n_q=MAX_NQ)
    got = eisenstein(k, HALF_I, tr) if flux is None else eisenstein_tilde(k, flux, HALF_I, tr)
    want = _series_reference(k, HALF_I.tau, MAX_NQ, flux)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_series_that_cannot_be_finite_is_a_domain_error():
    # at Im tau 0.01 the term n^127 q^n near n = 512 is about 1e332
    with pytest.raises(DomainViolation):
        eisenstein(MAX_ORDER, ModularPoint(0.01j), replace(TR, n_q=MAX_NQ))
