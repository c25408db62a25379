import math

import pytest

import oracles
from jrl.errors import (
    AdmissibilityViolation,
    DegenerateInsertion,
    DomainViolation,
    NonIntegerWeight,
    NotOnLattice,
    UnsupportedInsertion,
)
from jrl.specfun import (
    AnnulusPoint,
    ModularPoint,
    Truncation,
    TwistPair,
    eisenstein,
    eisenstein_tilde,
    eisenstein_twisted,
    weier_p,
    weier_p_deformed,
)
from jrl.voa import AlgebraElement, AlgebraSpec, BasisState, current_state, oscillator_state
from jrl.reduction import (
    JacobiParams,
    NPointRequest,
    identity_rec1,
    identity_v0_sum,
    identity_zero_res,
    npoint_oracle,
    reduce_full,
    reduce_negative_mode,
    reduce_step,
    specfun_kernel,
)
from jrl.reduction.identities import _mode_sweep_sum
from jrl.reduction.steps import bracket_images, with_slot
from jrl.specfun.points import phase

TAU = ModularPoint(0.5j)
Z0 = 0.23 - 0.11j
HEIS = AlgebraSpec(kind="heisenberg", rank=1)
CFERM = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
RFERM = AlgebraSpec(kind="real_fermion")


def heis_request(n=1, cap=8.0, alpha=0.6):
    J = current_state(HEIS)
    ws = [0.12j, 0.31j][:n]
    return NPointRequest(
        spec=HEIS,
        sector=(alpha,),
        cap=cap,
        insertions=tuple((J, w) for w in ws),
        params=JacobiParams(z=Z0, tau=TAU),
    )


def cferm_request(cap=8.0, z=Z0):
    return NPointRequest(
        spec=CFERM,
        sector=(),
        cap=cap,
        insertions=(
            (oscillator_state("b", 1), 0.12j),
            (oscillator_state("c", 1), 0.31j),
        ),
        params=JacobiParams(z=z, tau=TAU, supertrace=True),
    )


def test_one_point_current_frozen_value():
    req = heis_request(n=1)
    got = npoint_oracle(req)
    assert abs(got - oracles.TRACE_J_HEISENBERG) < 1e-12


def test_one_point_current_reduces():
    req = heis_request(n=1)
    val, ledger = reduce_full(req)
    ref = npoint_oracle(req)
    assert abs(val - ref) / abs(ref) < 1e-10
    assert ledger.n == 0
    # a one-point current stage is a bare zero-mode scalar
    assert [t.kind for t in ledger.terms] == ["zero_scalar"]


def test_two_point_current_reduces():
    req = heis_request(n=2)
    ref = npoint_oracle(req)
    assert abs(ref - oracles.TRACE_JJ_HEISENBERG) < 1e-12
    val, ledger = reduce_full(req)
    assert abs(val - ref) / abs(ref) < 1e-8
    kinds = sorted((t.kind, t.name) for t in ledger.terms)
    assert ("kernel", "weier_p_twisted") in kinds


def test_complex_fermion_pair_reduces():
    req = cferm_request()
    ref = npoint_oracle(req)
    assert abs(ref - oracles.TRACE_BC_COMPLEX_FERMION) < 1e-12
    val, ledger = reduce_full(req)
    assert abs(val - ref) / abs(ref) < 1e-10
    # generic flux on a charged insertion selects the tilde kernel
    assert [t.name for t in ledger.terms if t.kind == "kernel"] == ["weier_p_tilde"]


def test_real_fermion_pair_reduces():
    req = NPointRequest(
        spec=RFERM,
        sector=(),
        cap=7.5,
        insertions=(
            (oscillator_state("b", 1), 0.12j),
            (oscillator_state("b", 1), 0.31j),
        ),
        params=JacobiParams(z=Z0, tau=TAU, supertrace=True),
    )
    ref = npoint_oracle(req)
    assert abs(ref - oracles.TRACE_BB_REAL_FERMION) < 1e-12
    val, ledger = reduce_full(req)
    assert abs(val - ref) / abs(ref) < 1e-9
    # half-integer weight forces the deformed kernel and kills the zero term
    assert [t.name for t in ledger.terms] == ["weier_p_deformed"]


@pytest.mark.parametrize("re_tau", [-0.5, 0.7, -1.2])
@pytest.mark.parametrize("spec", [AlgebraSpec(kind="complex_fermion"), RFERM], ids=["cf", "rf"])
def test_half_integer_weights_follow_tau_past_the_strip(spec, re_tau):
    # q^n with n in Z + 1/2 depends on tau, not only on q = e(tau): taken
    # on the principal branch of q it is right only for Re tau in (-1/2, 1/2]
    second = oscillator_state("c" if spec.kind == "complex_fermion" else "b", 1)
    req = NPointRequest(
        spec=spec,
        sector=(),
        cap=1.0,
        insertions=((oscillator_state("b", 1), 0.2j), (second, 0.55j)),
        params=JacobiParams(z=0.25, tau=ModularPoint(complex(re_tau, 1.0)), supertrace=True),
        headroom=10,
    )
    ref = npoint_oracle(req)
    # headroom 10 over the smallest gap 0.35: exp(-2 pi 0.35 10) ~ 3e-10
    assert abs(reduce_full(req)[0] - ref) / abs(ref) < 1e-8


@pytest.mark.parametrize("order", ["Bbcc", "bccB", "ccBb"])
def test_fermion_reduced_past_an_odd_slot_takes_its_sign(order):
    # a fermion is reduced past odd slots on the generic branch: each slot's
    # term carries the parity of the slots before it, as on the deformed one
    states = {
        "b": oscillator_state("b", 1),
        "B": oscillator_state("b", 2),
        "c": oscillator_state("c", 1),
    }
    req = NPointRequest(
        spec=CFERM,
        sector=(),
        cap=1.0,
        insertions=tuple(zip((states[x] for x in order), (0.1j, 0.3j, 0.5j, 0.7j))),
        params=JacobiParams(z=0.25, tau=ModularPoint(1j), supertrace=True),
        headroom=10,
    )
    ref = npoint_oracle(req)
    # headroom 10 over the smallest gap 0.2: exp(-2 pi 0.2 10) ~ 4e-6
    assert abs(reduce_full(req)[0] - ref) / abs(ref) < 1e-4


def test_lattice_flux_routes_through_zero_trace():
    req = cferm_request(z=TAU.tau)
    ref = npoint_oracle(req)
    val, ledger = reduce_full(req)
    assert abs(val - ref) / max(1.0, abs(ref)) < 1e-8
    kinds = [t.kind for t in ledger.terms]
    assert "zero_trace" in kinds
    names = [t.name for t in ledger.terms if t.kind == "kernel"]
    assert names == ["weier_p_twisted"]


def test_negative_mode_current_squared():
    # o(J(-1)J) insertion equals (alpha^2 + E_2) times the plain trace
    req = heis_request(n=1, alpha=0.6)
    J = current_state(HEIS)
    val = reduce_negative_mode(req, J, 1)
    z0 = npoint_oracle(req.with_insertions(()))
    e2 = eisenstein(2, TAU, req.truncation)
    want = (0.36 + e2) * z0
    assert abs(val - want) / abs(want) < 1e-12


def test_negative_mode_fermion_bilinear():
    req = cferm_request()
    b = oscillator_state("b", 1)
    val = reduce_negative_mode(
        req.with_insertions(((oscillator_state("c", 1), 0.12j),)), b, 1
    )
    z0 = npoint_oracle(req.with_insertions(()))
    want = -eisenstein_tilde(1, Z0, TAU, req.truncation) * z0
    assert abs(val - want) / abs(want) < 1e-10


def test_negative_mode_rejects_deep_fermion_stacks():
    req = cferm_request()
    b = oscillator_state("b", 1)
    with pytest.raises(UnsupportedInsertion):
        reduce_negative_mode(req, b, 2)


def test_v0_sum_vanishes_complex_fermion():
    req = cferm_request()
    J = current_state(CFERM)
    assert identity_v0_sum(req, J) < 1e-10


def test_v0_sum_rejects_non_integer_weight():
    req = NPointRequest(
        spec=RFERM,
        sector=(),
        cap=7.5,
        insertions=((oscillator_state("b", 1), 0.12j),),
        params=JacobiParams(z=Z0, tau=TAU, supertrace=True),
    )
    with pytest.raises(NonIntegerWeight):
        identity_v0_sum(req, oscillator_state("b", 1))


def test_rec1_heisenberg():
    req = heis_request(n=1)
    J = current_state(HEIS)
    assert identity_rec1(req, J, 1) < 1e-6
    assert identity_rec1(req, J, 2) < 1e-6


def test_rec1_rejects_non_positive_mode():
    req = heis_request(n=1)
    with pytest.raises(NotOnLattice):
        identity_rec1(req, current_state(HEIS), 0)


def test_rec1_rejects_non_integer_mode():
    req = heis_request(n=1)
    for beta in (1.5, 0.5, float("nan")):
        with pytest.raises(NotOnLattice):
            identity_rec1(req, current_state(HEIS), beta)


def test_rec1_reads_the_shifted_image_of_the_mode_sweep():
    # over the slots (J, a(-2)) the images a(-2)[m].x_k have nonzero traces
    # at two values of m in each slot; the one shifted image v[0]_beta per
    # slot sums the whole sweep
    a2 = oscillator_state("a", 2)
    req = heis_request(n=2)
    req = req.with_insertions((req.insertions[0], (a2, req.insertions[1][1])))
    for beta in (1, 2):
        want = 0.0 + 0.0j
        traced = set()
        vs = tuple(u for u, _ in req.insertions)
        for k, m, img, sign in bracket_images(HEIS, a2, 2.0, 0, vs):
            w_k = req.insertions[k - 1][1]
            value = npoint_oracle(with_slot(req, k, img))
            if abs(value) > 1e-12:
                traced.add((k, m))
            want += sign * phase(w_k * beta) * beta**m / math.factorial(m) * value
        assert traced == {(1, 1), (1, 2), (2, 1), (2, 3)}
        got, _ = _mode_sweep_sum(req, a2, 2.0, 0, float(beta))
        assert abs(got - want) <= 1e-13 * abs(want)
        assert identity_rec1(req, a2, beta) <= 1e-10


def test_zero_res_on_lattice():
    b = oscillator_state("b", 1)
    c = oscillator_state("c", 1)
    for z in (TAU.tau, TAU.tau + 1.0):
        req = NPointRequest(
            spec=CFERM,
            sector=(),
            cap=8.0,
            insertions=((c, 0.12j),),
            params=JacobiParams(z=z, tau=TAU, supertrace=True),
        )
        assert identity_zero_res(req, b) < 1e-8


def test_zero_res_rejects_generic_flux():
    b = oscillator_state("b", 1)
    req = cferm_request()
    with pytest.raises(NotOnLattice):
        identity_zero_res(req, b)


def test_degenerate_insertion_detected():
    # sector tuned so the zero-mode square cancels the kernel contribution
    alpha = math.sqrt(0.30742299368080717)
    J = current_state(HEIS)
    req = NPointRequest(
        spec=HEIS,
        sector=(alpha,),
        cap=8.0,
        insertions=((J, 0.12j), (J, 0.5 + 0.31j)),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    with pytest.raises(DegenerateInsertion):
        reduce_full(req)
    detuned = NPointRequest(
        spec=HEIS,
        sector=(alpha + 0.01,),
        cap=8.0,
        insertions=((J, 0.12j), (J, 0.5 + 0.31j)),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    val, _ = reduce_full(detuned)
    assert abs(val) > 1e-4


def test_reduce_step_subset_of_full():
    req = heis_request(n=2)
    step = reduce_step(req)
    val, ledger = reduce_full(req)
    assert len(step) == len(ledger.terms)
    total = 0.0 + 0.0j
    for t in step:
        child = npoint_oracle(t.child) if t.child is not None else t.leaf_value
        total += t.scale * t.kernel * child
    assert abs(total - val) / abs(val) < 1e-8


@pytest.mark.parametrize(
    "req",
    [
        cferm_request(cap=6.0),  # generic flux: tilde kernels
        heis_request(n=2, cap=6.0),  # lam = 0: twisted kernels and a zero-mode scalar
        NPointRequest(
            spec=CFERM,
            sector=(),
            cap=6.0,
            insertions=((oscillator_state("c", 1), 0.12j), (oscillator_state("b", 1), 0.31j)),
            params=JacobiParams(z=TAU.tau, tau=TAU, supertrace=True),
        ),  # lattice flux, lam = +-1: twisted kernels and a zero-mode trace
        NPointRequest(
            spec=RFERM,
            sector=(),
            cap=5.5,
            insertions=(
                (oscillator_state("b", 1), 0.12j),
                (oscillator_state("b", 1), 0.31j),
            ),
            params=JacobiParams(z=Z0, tau=TAU, supertrace=True),
        ),  # half-weight fermions: deformed kernels
    ],
    ids=["generic", "lattice_lam0", "lattice_shift", "deformed"],
)
def test_ledger_reevaluates_to_its_value_exactly(req):
    value, ledger = reduce_full(req)
    names = {t.name for node in ledger.walk() for t in node.terms}
    assert names - {"one"}
    assert ledger.reevaluate(req.truncation) == value


def test_specfun_kernel_dispatch():
    tr = Truncation(n_q=12, n_mode=32, tol=1e-12)
    assert specfun_kernel("one", {}, tr) == 1.0 + 0.0j
    point = AnnulusPoint(0.1 + 0.2j, TAU)
    assert specfun_kernel("weier_p", {"m": 2, "w": 0.1 + 0.2j, "tau": [0.0, 0.5]}, tr) == weier_p(
        2, point, tr
    )
    tw = TwistPair.from_theta_phi(1.0 + 0.0j, -1.0 + 0.0j)
    args = {"m": 1, "w": 0.1 + 0.2j, "tau": 0.5j, "theta": tw.theta, "phi": tw.phi, "lam": tw.lam}
    assert specfun_kernel("weier_p_deformed", args, tr) == weier_p_deformed(1, tw, point, tr)
    assert specfun_kernel(
        "eisenstein_twisted", {"m": 2, "tau": 0.5j, "lam": 1}, tr
    ) == eisenstein_twisted(2, 1, TAU, tr)
    with pytest.raises(DomainViolation):
        specfun_kernel("weier_q", {"tau": 0.5j}, tr)


def _image_at_zero(spec, v, wt, x):
    """v[0].x as bracket_images gives it to the reduction."""
    return next(img for _, m, img, _ in bracket_images(spec, v, wt, 0, (x,)) if m == 0)


def test_bracket_images_keep_their_terms_above_level_six():
    # the image module is sized from the target and v, so J[0] b(-7)vac
    # and (a0(-1)a1(-1)vac)[0] a0(-6)vac reach level 7; with exact kappa
    # no near-zero term rides along
    b7 = oscillator_state("b", 7)
    assert _image_at_zero(CFERM, current_state(CFERM), 1.0, b7) == b7

    h2 = AlgebraSpec(kind="heisenberg", rank=2)
    pair = AlgebraElement.from_state(BasisState(boson=((0, 1), (1, 1))))
    img = _image_at_zero(h2, pair, 2.0, oscillator_state("a", 6, 0))
    a1 = {BasisState(boson=((1, 7),)): 6.0, BasisState(boson=((1, 6),)): 6.0}
    assert img == AlgebraElement(a1)
