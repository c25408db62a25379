"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the
measured residual next to the tolerance it must meet.  Runtime-bounded
criteria assert their own wall-clock budget.
"""

import json
import math
import os
import subprocess
import sys
import time

from jrl.checks import fd_derivative
from jrl.specfun import (
    AnnulusPoint,
    ModularPoint,
    Truncation,
    eisenstein,
    eisenstein_tilde,
    laurent_coeffs_p1,
    p1_twisted_series_coefficient,
    weier_p,
    weier_p_tilde,
    weier_p_twisted,
)
from jrl.voa import AlgebraSpec, current_state, oscillator_state
from jrl.reduction import (
    JacobiParams,
    NPointRequest,
    chain_condition_residual,
    identity_rec1,
    identity_v0_sum,
    identity_zero_res,
    kz_residual,
    npoint_oracle,
    oracle_family,
    reduce_full,
)
from reference_trace import perturbed_kz_residual

TAU = ModularPoint(0.5j)
Z0 = 0.23 - 0.11j
TR = Truncation(n_q=48, n_mode=96, tol=1e-14)
TR12 = Truncation(n_q=12, n_mode=64, tol=1e-12)


def report(name, residual, tol, elapsed=None):
    ok = residual <= tol
    stamp = "" if elapsed is None else f"  ({elapsed:.1f}s)"
    print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3e} vs {tol:.0e}{stamp}")
    return ok


def test_criterion_1_special_function_identities():
    t0 = time.monotonic()
    worst = 0.0

    # odd-index and index-zero values are exact
    exact = abs(eisenstein(0, TAU, TR) + 1.0)
    for k in (1, 3, 5, 7, 9):
        exact = max(exact, abs(eisenstein(k, TAU, TR)))
    assert exact == 0.0

    # kernel shift identity across integer twists
    p = AnnulusPoint(0.1 + 0.08j, TAU)
    base = weier_p(1, p, TR) + 0.5
    shift = 0.0
    for lam in (-2, -1, 0, 1, 2, 3):
        shift = max(shift, abs(weier_p_twisted(1, lam, p, TR) - p.q_w ** (-lam) * base))
    worst = max(worst, shift)
    assert shift <= 1e-12

    # series expansion of the twisted kernel via an explicit Cauchy product
    es = [eisenstein(j, TAU, TR) for j in range(0, 9)]
    expansion = 0.0
    for lam in (1, 2, 3):
        for k in range(1, 9):
            conv = (-lam) ** k / math.factorial(k)
            conv += 0.5 * (-lam) ** (k - 1) / math.factorial(k - 1)
            for j in range(2, k + 1):
                conv -= es[j] * (-lam) ** (k - j) / math.factorial(k - j)
            expansion = max(
                expansion, abs(p1_twisted_series_coefficient(k, lam, TAU, TR) + conv)
            )
    worst = max(worst, expansion)
    assert expansion <= 1e-12

    # kernel derivative chains against 5-point finite differences, step 1e-3
    w0 = 0.31 + 0.07j
    h = 1e-3
    two_pi_i = 2j * math.pi
    chains = 0.0
    fams = [
        (
            lambda u: weier_p(1, AnnulusPoint(u, TAU), TR),
            lambda m, u: weier_p(m, AnnulusPoint(u, TAU), TR),
        ),
        (
            lambda u: weier_p_tilde(1, AnnulusPoint(u, TAU), Z0, TR),
            lambda m, u: weier_p_tilde(m, AnnulusPoint(u, TAU), Z0, TR),
        ),
    ]
    for f1, fm in fams:
        for m in range(1, 5):
            want = fm(m + 1, w0)
            got = (-1) ** m / math.factorial(m) * fd_derivative(f1, w0, m, h) / two_pi_i**m
            chains = max(chains, abs(got - want) / max(1.0, abs(want)))
    worst = max(worst, chains)
    assert chains <= 1e-6

    # Laurent fits reproduce the negated series coefficient families, k <= 6
    fits = 0.0
    for lam in (1, 2):
        fit = laurent_coeffs_p1("twisted", {"lam": lam}, TAU, 6, TR)
        fits = max(fits, abs(fit.pole_coefficient - 1.0))
        for k in range(1, 7):
            fits = max(
                fits,
                abs(fit[k - 1] + p1_twisted_series_coefficient(k, lam, TAU, TR)),
            )
    fit = laurent_coeffs_p1("tilde", {"z": Z0}, TAU, 6, TR)
    fits = max(fits, abs(fit.pole_coefficient - 1.0))
    for k in range(1, 7):
        fits = max(fits, abs(fit[k - 1] + eisenstein_tilde(k, Z0, TAU, TR)))
    worst = max(worst, fits)
    assert fits <= 1e-8

    elapsed = time.monotonic() - t0
    assert report("criterion-1 special-function identities", worst, 1e-6, elapsed)
    assert elapsed < 30.0


def test_criterion_2_modular_anomaly():
    tr60 = Truncation(n_q=60, n_mode=96, tol=1e-14)
    tau = 1.0j
    s = -1.0 / tau
    e2 = eisenstein(2, ModularPoint(tau), tr60)
    e2s = eisenstein(2, ModularPoint(s), tr60)
    anomaly = abs(e2s - tau * tau * e2 + tau / (2j * math.pi))
    tau4 = 0.2 + 0.9j
    e4 = abs(
        eisenstein(4, ModularPoint(-1.0 / tau4), tr60)
        - tau4**4 * eisenstein(4, ModularPoint(tau4), tr60)
    )
    worst = max(anomaly, e4)
    assert report("criterion-2 weight-2 anomaly and weight-4 invariance", worst, 1e-10)


def test_criterion_3_reduction_matches_direct_traces():
    t0 = time.monotonic()
    heis = AlgebraSpec(kind="heisenberg", rank=1)
    cferm = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    rferm = AlgebraSpec(kind="real_fermion")
    J = current_state(heis)
    b, c = oscillator_state("b", 1), oscillator_state("c", 1)
    cases = [
        (
            "one-current",
            NPointRequest(
                spec=heis, sector=(0.6,), cap=12.0,
                insertions=((J, 0.12j),),
                params=JacobiParams(z=Z0, tau=TAU), truncation=TR12,
            ),
        ),
        (
            "two-current",
            NPointRequest(
                spec=heis, sector=(0.6,), cap=12.0,
                insertions=((J, 0.12j), (J, 0.31j)),
                params=JacobiParams(z=Z0, tau=TAU), truncation=TR12,
            ),
        ),
        (
            "charged-pair",
            NPointRequest(
                spec=cferm, sector=(), cap=12.0,
                insertions=((b, 0.12j), (c, 0.31j)),
                params=JacobiParams(z=Z0, tau=TAU, supertrace=True), truncation=TR12,
            ),
        ),
        (
            "half-weight-pair",
            NPointRequest(
                spec=rferm, sector=(), cap=12.0,
                insertions=((b, 0.12j), (b, 0.31j)),
                params=JacobiParams(z=Z0, tau=TAU, supertrace=True), truncation=TR12,
            ),
        ),
    ]
    worst = 0.0
    for name, req in cases:
        ref = npoint_oracle(req)
        val, _ = reduce_full(req)
        rel = abs(val - ref) / max(1.0, abs(ref))
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    assert report("criterion-3 reduction vs direct trace (L=12)", worst, 1e-4, elapsed)
    assert elapsed < 300.0


def test_criterion_4_trace_identities():
    cferm = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    heis = AlgebraSpec(kind="heisenberg", rank=1)
    b, c = oscillator_state("b", 1), oscillator_state("c", 1)
    J_cf = current_state(cferm)
    J = current_state(heis)

    pair = NPointRequest(
        spec=cferm, sector=(), cap=8.0,
        insertions=((b, 0.12j), (c, 0.31j)),
        params=JacobiParams(z=Z0, tau=TAU, supertrace=True),
    )
    v0 = identity_v0_sum(pair, J_cf)
    assert v0 <= 1e-10

    one = NPointRequest(
        spec=heis, sector=(0.6,), cap=8.0,
        insertions=((J, 0.12j),),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    rec = max(identity_rec1(one, J, 1), identity_rec1(one, J, 2))
    assert rec <= 1e-6

    zr = 0.0
    for z in (TAU.tau, TAU.tau + 1.0):
        req = NPointRequest(
            spec=cferm, sector=(), cap=8.0,
            insertions=((c, 0.12j),),
            params=JacobiParams(z=z, tau=TAU, supertrace=True),
        )
        zr = max(zr, identity_zero_res(req, b))
    assert zr <= 1e-8

    worst = max(v0, rec, zr)
    assert report("criterion-4 zero-mode, recursion, lattice-residue identities", worst, 1e-6)


def test_criterion_5_chain_condition():
    heis2 = AlgebraSpec(kind="heisenberg", rank=2)
    x1 = oscillator_state("a", 1, flavor=0)
    x2 = oscillator_state("a", 1, flavor=1)
    base = NPointRequest(
        spec=heis2, sector=(0.7, 0.0), cap=6.0,
        insertions=(),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    fam = oracle_family(base)
    res = chain_condition_residual(
        "simplest", x1, x2, fam, base, n_samples=8, seed=0x4A43
    )
    assert report("criterion-5 chain condition, rank-2 cross flavor", res, 1e-8)


def test_criterion_6_kz_consistency():
    heis = AlgebraSpec(kind="heisenberg", rank=1)
    heis2 = AlgebraSpec(kind="heisenberg", rank=2)
    J = current_state(heis)
    heis_base = NPointRequest(
        spec=heis, sector=(0.6,), cap=8.0,
        insertions=((J, 0.12j),),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    rank2_base = NPointRequest(
        spec=heis2, sector=(0.7, 0.3), cap=6.0,
        insertions=((oscillator_state("a", 1, flavor=0), 0.12j),),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    cases = [
        (heis_base, J, 0.31j),
        (rank2_base, oscillator_state("a", 1, flavor=1), 0.42j),
    ]
    clean = max(kz_residual(b, v, w) for b, v, w in cases)
    perturbed = min(perturbed_kz_residual(b, v, w, 1.01) for b, v, w in cases)
    ok = report("criterion-6 stage-sum consistency", clean, 1e-8)
    print(f"      perturbed coefficients: residual {perturbed:.3e} (must exceed 1e-03)")
    assert ok
    assert perturbed > 1e-3


def test_criterion_7_reports_are_byte_stable():
    env = os.environ.copy()
    env.pop("JRL_DEFAULT_NQ", None)
    env.pop("JRL_DEFAULT_TOL", None)

    def run(*extra):
        cmd = [sys.executable, "-m", "jrl", "verify", "--suite", "all", *extra]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stdout + out.stderr
        return out.stdout

    first = run()
    second = run()
    stable = first == second
    doc = json.loads(first)
    assert doc["summary"]["failed"] == 0
    print(
        f"{'PASS' if stable else 'FAIL'}  criterion-7 byte-stable reports: "
        f"{doc['summary']['passed']} checks, repeat runs identical"
    )
    assert stable
