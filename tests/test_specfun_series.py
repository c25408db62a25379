import math
import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrl.errors import DomainViolation
from jrl.specfun import (
    bernoulli,
    default_truncation,
    phase,
    stable_sum,
)
from jrl.specfun.series import unit_power
from jrl.voa import kappa


def test_phase_values():
    assert abs(phase(0.0) - 1.0) < 1e-15
    assert abs(phase(1.0) - 1.0) < 1e-15
    assert abs(phase(0.25) - 1j) < 1e-15
    assert abs(phase(0.5) + 1.0) < 1e-15
    # complex argument: phase(x) = e^{2 pi i x}
    x = 0.3 - 0.2j
    assert abs(phase(x) - cmath.exp(2j * math.pi * x)) < 1e-14


def test_phase_periodicity():
    for x in (0.1, 0.7, 2.3, -1.4):
        assert abs(phase(x + 1.0) - phase(x)) < 1e-12


def test_bernoulli_values():
    from fractions import Fraction

    assert bernoulli(0) == Fraction(1)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == Fraction(0)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_stable_sum_cancellation():
    # naive summation loses ~7 digits here, an exactly rounded sum none
    assert stable_sum([1e16, 1.0, -1e16, 3.0]) == 4.0
    # a compensated sum gives 1e16; the exact sum rounds to the next float
    assert stable_sum([1e16, 1.0, 1e-16]) == 1.0000000000000002e16


def exact_sum(xs) -> float:
    """The float nearest the exact rational sum of xs."""
    return float(sum((Fraction(x) for x in xs), Fraction(0)))


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite, finite), max_size=40), st.randoms())
@settings(max_examples=200, deadline=None)
def test_stable_sum_is_exactly_rounded(parts, rnd):
    terms = [complex(x, y) for x, y in parts]
    want = complex(exact_sum(x for x, _ in parts), exact_sum(y for _, y in parts))
    assert stable_sum(terms) == want
    rnd.shuffle(terms)  # in any order, from any iterable
    assert stable_sum(iter(terms)) == want
    assert stable_sum(np.array(terms, dtype=complex)) == want


@pytest.mark.parametrize(
    "terms",
    [[1e308, 1e308], [math.inf, -math.inf], [1j * math.inf, 1.0]],
    ids=["overflow", "inf-inf", "inf"],
)
def test_stable_sum_rejects_a_sum_that_is_not_finite(terms):
    with pytest.raises(DomainViolation):
        stable_sum(terms)


def test_series_em1_over_z():
    # (e^z - 1)/z = sum z^k/(k+1)!, as its first power
    a = [Fraction(1, math.factorial(k + 1)) for k in range(8)]
    assert unit_power(a, 1) == a
    assert unit_power(a, 0) == [1] + [0] * 7


def test_series_invert_unit():
    # 1/(1 - 7z/10) is geometric; z/(e^z - 1) = sum B_k z^k / k!
    assert unit_power([Fraction(1), Fraction(-7, 10)], -1) == [1, Fraction(7, 10)]
    geometric = [Fraction(7, 10) ** k for k in range(4)]
    assert unit_power([Fraction(1), Fraction(-7, 10), 0, 0], -1) == geometric
    a = [Fraction(1, math.factorial(k + 1)) for k in range(14)]
    assert unit_power(a, -1) == [bernoulli(k) / math.factorial(k) for k in range(14)]


def test_series_exp():
    # kappa(h, m, -1) = [z^{-1-m}] e^{zh}: the power of (e^z - 1)/z is 0
    for h in (0.0, 0.5, 1.0, 3.5):
        for k in range(8):
            assert kappa(h, -1 - k, -1) == float(Fraction(h) ** k / math.factorial(k))


@given(
    st.lists(st.fractions(-3, 3, max_denominator=7), min_size=1, max_size=6),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
@settings(max_examples=60, deadline=None)
def test_unit_powers_add_exponents(tail, p, q):
    a = [Fraction(1)] + tail
    fp, fq, fpq = unit_power(a, p), unit_power(a, q), unit_power(a, p + q)
    assert [sum(fp[k] * fq[n - k] for k in range(n + 1)) for n in range(len(a))] == fpq


def test_default_truncation_env(monkeypatch):
    monkeypatch.setenv("JRL_DEFAULT_NQ", "17")
    monkeypatch.setenv("JRL_DEFAULT_TOL", "1e-7")
    tr = default_truncation()
    assert tr.n_q == 17
    assert abs(tr.tol - 1e-7) < 1e-20
    monkeypatch.delenv("JRL_DEFAULT_NQ")
    monkeypatch.delenv("JRL_DEFAULT_TOL")
    tr2 = default_truncation()
    assert tr2.n_q == 12
    monkeypatch.setenv("JRL_DEFAULT_NQ", "not-a-number")
    with pytest.raises(ValueError):
        default_truncation()
