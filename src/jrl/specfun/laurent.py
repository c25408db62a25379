"""Laurent coefficient extraction for the order-1 kernels.

Values are sampled on a small circle around w = 0 (radius 0.05 times the
annulus width Im tau) using strip-convergent forms of the kernels, then a
least-squares fit against the basis

    1/(2 pi i w), (2 pi i w)^0, (2 pi i w)^1, ...

recovers the pole coefficient and the series coefficients.  Columns are
norm-scaled before solving so the normal system stays well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainViolation, FitIllConditioned, PoleHit
from .points import TWO_PI_I, ModularPoint, Truncation, phase

MAX_FIT_ORDER = 12


@dataclass(frozen=True)
class LaurentFit:
    """Fitted expansion f(w) = pole_coefficient/(2 pi i w) + sum_j c_j (2 pi i w)^j.

    Indexing is by series position: fit[j] is the coefficient of
    (2 pi i w)^j for j = 0 .. K-1.
    """

    kind: str
    pole_coefficient: complex
    coefficients: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, j: int) -> complex:
        return self.coefficients[j]

    def __iter__(self):
        return iter(self.coefficients)


def _neumaier_columns(terms: np.ndarray) -> np.ndarray:
    """Compensated sums down the columns of a complex (T, S) array.

    Each column is added in row order, carrying the exact rounding error
    of every partial sum (Knuth's two-sum), so column s equals
    series.stable_sum(terms[:, s]) bit for bit.
    """
    x = np.concatenate([terms.real, terms.imag], axis=1)
    total = np.zeros(x.shape[1])
    comp = np.zeros(x.shape[1])
    for t in x:
        u = total + t
        v = u - total
        comp += (total - (u - v)) + (t - v)
        total = u
    total += comp
    half = terms.shape[1]
    return total[:half] + 1j * total[half:]


def _p1_strip(
    ws: np.ndarray, tau: ModularPoint, tr: Truncation, q_z: complex | None
) -> np.ndarray:
    """P_1 (q_z None) or Ptilde_1(., z) with q_z = e^{2 pi i z} at the points ws.

    The double-strip form

        head - q_w/(1 - q_w) - sum_{n m <= n_q} (q_w^n (q^n q_z)^m - q_w^{-n} (q^n/q_z)^m),

    with head = -1/2 for P_1 and -1/(1 - q_z) for Ptilde_1, converges for
    |Im w| < Im tau, w != 0, and |Im z| < Im tau: small circles around the
    origin, where the annulus forms do not apply.  The flux enters through
    the bases q^n q_z and q^n/q_z of modulus below 1, so no factor
    overflows on its own.  Terms run over n ascending, then m.
    """
    if q_z is None:
        head, q_z = -0.5, 1.0 + 0.0j
    elif abs(1.0 - q_z) <= tr.tol:
        raise PoleHit("Ptilde_1 strip form has a pole at q_z = 1")
    else:
        head = -1.0 / (1.0 - q_z)
    n = np.concatenate([np.full(tr.n_q // a, a) for a in range(1, tr.n_q + 1)])
    m = np.concatenate([np.arange(1, tr.n_q // a + 1) for a in range(1, tr.n_q + 1)])
    q_w = np.exp(TWO_PI_I * ws)
    q_n = tau.q**n
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        up = q_w[:, None] ** np.arange(tr.n_q + 1)
        down = 1.0 / up
        terms = up[:, n] * (q_n * q_z) ** m - down[:, n] * (q_n / q_z) ** m
    if not np.isfinite(terms).all():
        raise DomainViolation(f"strip terms overflow at n_q {tr.n_q} and Im tau {tau.tau.imag}")
    return head - q_w / (1.0 - q_w) - _neumaier_columns(terms.T)


def laurent_coeffs_p1(
    kind: str,
    params: dict,
    tau: ModularPoint,
    K: int,
    tr: Truncation,
) -> LaurentFit:
    """Fit the first K series coefficients of an order-1 kernel around w = 0.

    kind: "plain" (P_1), "twisted" (P_{1,lam}, params["lam"] integer), or
    "tilde" (Ptilde_1(., z), params["z"] complex).
    """
    if K < 1:
        raise DomainViolation("need at least one coefficient")
    if K > MAX_FIT_ORDER:
        raise DomainViolation(f"fit order {K} exceeds the configured maximum {MAX_FIT_ORDER}")
    if kind not in ("plain", "twisted", "tilde"):
        raise DomainViolation(f"unknown kernel kind {kind!r}")

    rho = 0.05 * tau.tau.imag
    if not rho > 0.0:
        raise FitIllConditioned("sample circle has nonpositive radius")
    n_samples = max(4 * K, 16)
    # a few guard orders beyond K soak up the truncated tail
    n_coeffs = min(K + 6, n_samples - 1)

    ws = rho * np.exp(TWO_PI_I * (np.arange(n_samples) + 0.5) / n_samples)
    q_z = None
    if kind == "tilde":
        z = complex(params["z"])
        if abs(z.imag) >= tau.tau.imag:
            raise DomainViolation(f"need |Im z| < Im tau; got z={z}, tau={tau.tau}")
        q_z = phase(z)
    values = _p1_strip(ws, tau, tr, q_z)
    if kind == "twisted":
        # index shift identity: P_{1,lam} = q_w^{-lam} (P_1 + 1/2)
        values = np.exp(TWO_PI_I * ws) ** (-int(params["lam"])) * (values + 0.5)
    u = TWO_PI_I * ws
    basis = np.column_stack([1.0 / u, u[:, None] ** np.arange(n_coeffs)])

    scales = np.linalg.norm(basis, axis=0)
    if np.any(scales == 0.0):
        raise FitIllConditioned("degenerate basis column")
    coeffs, _, rank, sing = np.linalg.lstsq(basis / scales, values, rcond=None)
    if rank < n_coeffs + 1 or sing[-1] / sing[0] < 1e-12:
        raise FitIllConditioned("sample circle produced a rank-deficient system")
    coeffs = coeffs / scales
    return LaurentFit(
        kind=kind,
        pole_coefficient=complex(coeffs[0]),
        coefficients=tuple(complex(c) for c in coeffs[1 : K + 1]),
    )
