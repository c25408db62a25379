"""Composite insertions (boson pairs and the b-c bilinear) in the direct
trace, and the level bound of the square-bracket images.

The direct trace builds every field from `zero_mode_terms`, so it takes the
state shapes the reduction takes; here the two are checked against each
other.  Oracle tolerances follow from the headroom: a contribution that
needs more than `headroom` levels above the cap is suppressed by about
exp(-2 pi g headroom), g the smallest cyclic gap between the Im w_i.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_trace import apply_mode
from jrl.errors import JrlError
from jrl.reduction import (
    JacobiParams,
    NPointRequest,
    npoint_oracle,
    reduce_full,
    reduction_family,
    stage_contributions,
)
from jrl.specfun import ModularPoint
from jrl.voa import (
    VACUUM,
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModeOp,
    current_state,
    enumerate_basis,
    kappa,
    oscillator_state,
    square_bracket_image,
    state_level,
)
from jrl.reduction.steps import _bracket_image
from jrl.voa.algebra import _round_modes, mode_image
from jrl.voa.squarebracket import last_mode

Z0 = 0.23 - 0.11j
CF = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
CFN = AlgebraSpec(kind="complex_fermion")
H2 = AlgebraSpec(kind="heisenberg", rank=2)
RF = AlgebraSpec(kind="real_fermion")

B, C = oscillator_state("b", 1), oscillator_state("c", 1)
B2 = oscillator_state("b", 2)
A0, A1 = oscillator_state("a", 1, 0), oscillator_state("a", 1, 1)
A2 = oscillator_state("a", 2, 0)
JBC = current_state(CF)
A0A1 = AlgebraElement.from_state(BasisState(boson=((0, 1), (1, 1))))
A0A0 = AlgebraElement.from_state(BasisState(boson=((0, 1), (0, 1))))


def request(spec, sector, cap, headroom, states, ws, tau, supertrace, z=Z0):
    return NPointRequest(
        spec=spec,
        sector=sector,
        cap=cap,
        insertions=tuple(zip(states, ws)),
        params=JacobiParams(z=z, tau=ModularPoint(tau), supertrace=supertrace),
        headroom=headroom,
    )


def rel_err(got, want):
    return abs(got - want) / abs(want)


# smallest gap 0.25 at Im tau 0.8 and headroom 12: exp(-2 pi 0.25 12) ~ 7e-9
FERMION_WS = (0.1j, 0.35j, 0.6j)
COMPOSITE = {
    "b,c,Jbc": (CF, (), 5.0, 12, (B, C, JBC), FERMION_WS, True, 1e-8),
    "Jbc,b,c": (CF, (), 5.0, 12, (JBC, B, C), FERMION_WS, True, 1e-8),
    # smallest gap 0.4 at headroom 8: exp(-2 pi 0.4 8) ~ 2e-9
    "a0a1,a1": (H2, (0.7, 0.3), 3.0, 8, (A0A1, A1), (0.1j, 0.5j), False, 1e-8),
    # the pair last: its image a0a1[0].a0 = a1(-2) + a1(-1) is reduced part by part
    "a0,a0a1": (H2, (0.7, 0.3), 3.0, 8, (A0, A0A1), (0.1j, 0.5j), False, 1e-8),
    # smallest gap 0.2 at headroom 8: exp(-2 pi 0.2 8) ~ 4e-5 of the trace
    # weight; the reduction and the trace agree to 1.1e-7
    "a0,a0a1,a1": (H2, (0.7, 0.3), 2.0, 8, (A0, A0A1, A1), (0.1j, 0.4j, 0.7j), False, 1e-6),
}


@pytest.mark.parametrize("case", sorted(COMPOSITE))
def test_oracle_takes_composite_insertions(case):
    spec, sector, cap, headroom, states, ws, supertrace, tol = COMPOSITE[case]
    req = request(spec, sector, cap, headroom, states, ws, 0.8j, supertrace)
    value, _ = reduce_full(req)
    assert rel_err(npoint_oracle(req), value) < tol


@pytest.fixture(scope="module")
def bcj_oracle():
    spec, sector, cap, headroom, states, ws, supertrace, _ = COMPOSITE["b,c,Jbc"]
    full = request(spec, sector, cap, headroom, states, ws, 0.8j, supertrace)
    return full, npoint_oracle(full)


@pytest.mark.parametrize("variant", ["simplest", "super", "shifted"])
def test_stage_variants_sum_to_the_oracle(variant, bcj_oracle):
    full, oracle = bcj_oracle
    base = full.with_insertions(full.insertions[:2])
    vs, ws = zip(*full.insertions)
    total = sum(c.value for c in stage_contributions(variant, base, reduction_family(base), vs, ws))
    assert rel_err(total, oracle) < COMPOSITE["b,c,Jbc"][-1]


# kind -> (spec, sector, supertrace, states).  Fermion insertions come as
# neutral sets (a b-type with a c, b's in pairs) so that no trace vanishes
# by charge or parity, where the reduction may call a stage degenerate.
# Three bilinear fields take tens of seconds, so the sets stop at two.
FERMION_SETS = [(B, C), (B2, C), (JBC,), (JBC, B, C), (JBC, JBC)]
KINDS = {
    "charge_shifted": (CF, (), True, FERMION_SETS),
    "natural": (CFN, (), True, FERMION_SETS),
    "real_fermion": (RF, (), True, [(B, B), (B2, B)]),
}
PAIRS = [A0A1, A0A0]


@st.composite
def requests(draw):
    kind = draw(st.sampled_from(["heisenberg", *sorted(KINDS)]))
    if kind == "heisenberg":
        spec, sector, supertrace = H2, (0.7, 0.3), False
        n = draw(st.integers(1, 3))
        # One weight-2 pair may sit in any slot: its mixed-weight square-
        # bracket images are reduced part by part.  With two pairs the
        # images hold shapes such as a(-1)a(-2)vac that the reduction does
        # not take.  Three fields with a(-2) need more headroom.
        pair_slot = draw(st.sampled_from([None, *range(n)]))
        singles = [A0, A1] if n == 3 else [A0, A1, A2]
        states = [
            draw(st.sampled_from(PAIRS if i == pair_slot else [A0, A1, A2] if i == 0 else singles))
            for i in range(n)
        ]
    else:
        spec, sector, supertrace, sets = KINDS[kind]
        states = draw(st.permutations(draw(st.sampled_from(sets))))
    n = len(states)
    tau = complex(draw(st.floats(-1.0, 1.0)), 1.0)
    # A real flux: the deformed branch of a weight-1/2 insertion needs
    # theta = e(-alpha z) on the unit circle.  The charge-shifted b and c
    # are the only charged insertions of integer weight, so only they also
    # take a lattice flux alpha z = tau + mu.
    z = complex(draw(st.floats(0.1, 0.4)))
    if kind == "charge_shifted" and draw(st.booleans()):
        z = tau + draw(st.sampled_from([-1, 0, 1]))
    # Im w_i = (i + 1/2 + jitter)/(n + 1) keeps every cyclic gap above
    # 0.8/(n + 1) >= 0.2, so the headroom loss stays below exp(-2 pi 0.2 10)
    jitter = draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    ws = [
        complex(draw(st.floats(0.0, 1.0)), (i + 0.5 + d) / (n + 1))
        for i, d in enumerate(jitter)
    ]
    return request(spec, sector, 1.0, 10, states, ws, tau, supertrace, z)


def outcome(f, req):
    try:
        return f(req), None
    except JrlError as exc:
        return None, exc


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_direct_trace_and_reduction_agree(req):
    oracle, oracle_error = outcome(npoint_oracle, req)
    reduced, reduce_error = outcome(lambda r: reduce_full(r)[0], req)
    if oracle_error is not None or reduce_error is not None:
        assert oracle_error is not None and reduce_error is not None, (oracle_error, reduce_error)
    else:
        # The headroom loss, below exp(-2 pi 0.2 10) ~ 3.5e-6 of the omitted
        # trace weight, can be a larger share of a value that cancels: the
        # worst seen over a thousand draws was 1.2e-5, for two a(-2) fields.
        # A wrong sign or branch costs O(1).
        assert abs(oracle - reduced) <= 1e-4 * abs(reduced), (oracle, reduced)


# the supported shapes, on cap-6 vacuum modules
H2J = AlgebraSpec(kind="heisenberg", rank=2, current=(1.0, -0.5))
BOUND_CASES = {
    "heisenberg": (
        H2J, (0.0, 0.0), [AlgebraElement.from_state(VACUUM), A0, A2, current_state(H2J), A0A1]
    ),
    "charge_shifted": (CF, (), [B, C, B2, JBC]),
    "natural": (CFN, (), [B, C, B2, current_state(CFN)]),
    "real_fermion": (RF, (), [B, B2]),
}


def round_mode_reference(state, j, reach):
    """state(j) as (coeff, modes), modes[0] acting first, written out shape by
    shape with mode labels up to `reach`, past anything the module holds."""
    if state == VACUUM:
        return [(1.0, ())] if j == -1 else []
    if len(state.boson) == 2:
        (f1, _), (f2, _) = state.boson
        # :a^f1(k) a^f2(j-1-k): with the creation mode acting last
        out = []
        for k in range(-reach, reach + 1):
            x, y = ModeOp("a", k, f1), ModeOp("a", j - 1 - k, f2)
            out.append((1.0, (y, x) if k < 0 else (x, y)))
        return out
    if state.ferm_b and state.ferm_c:
        # :b(k) c(j-1-k):, b(k) c(l) = -c(l) b(k) when b(k) annihilates and c(l) creates
        out = []
        for k in range(-reach, reach + 1):
            x, y = ModeOp("b", k), ModeOp("c", j - 1 - k)
            out.append((-1.0, (x, y)) if k >= 0 > y.n else (1.0, (y, x)))
        return out
    # X(-j0)vac has round modes (-1)^{j0-1} C(j, j0-1) X(j - j0 + 1)
    if state.boson:
        (flavor, j0), species = state.boson[0], "a"
    else:
        flavor, j0, species = 0, (state.ferm_b or state.ferm_c)[0], "b" if state.ferm_b else "c"
    binom = math.prod(j - i for i in range(j0 - 1)) / math.factorial(j0 - 1)
    return [((-1.0) ** (j0 - 1) * binom, (ModeOp(species, j - j0 + 1, flavor),))]


def round_images(module, v, x):
    """{(state, j): state(j) x} by apply_mode over the components of v, j from
    -1 up to the cap-based bound ceil(cap + h + 3), past every label that
    can act on the module."""
    images = {}
    for state in v.terms:
        h = state_level(module.spec, state)
        for j in range(-1, math.ceil(module.cap + h + 3) + 1):
            img = AlgebraElement.zero()
            for coeff, modes in round_mode_reference(state, j, int(module.cap) + abs(j) + 3):
                y = x
                for op in modes:
                    y = apply_mode(op, y, module)
                img = img.plus(y.scaled(coeff))
            images[state, j] = img
    return images


def bracket_reference(module, v, m, images):
    """v[m] x = sum_j kappa(h, m, j) v(j) x over the precomputed round images."""
    out = AlgebraElement.zero()
    for (state, j), img in images.items():
        if j >= m:
            h = state_level(module.spec, state)
            out = out.plus(img.scaled(v.terms[state] * kappa(h, m, j)))
    return out


@pytest.mark.parametrize("kind", sorted(BOUND_CASES))
def test_square_bracket_images_stop_at_the_target_level(kind):
    spec, sector, shapes = BOUND_CASES[kind]
    module = enumerate_basis(spec, sector, 6.0)
    for v in shapes:
        h = max(state_level(spec, s) for s in v.terms)
        for x in (AlgebraElement.from_state(s) for s in module.states):
            # v[m] lowers the level by m - h + 1; nothing lies below level 0
            last = math.floor(max(state_level(spec, s) for s in x.terms) + h - 1)
            images = round_images(module, v, x)
            wants = {m: bracket_reference(module, v, m, images) for m in range(-1, last + 3)}
            for m, want in wants.items():
                got = square_bracket_image(module, v, m, x)
                assert square_bracket_image(module, v, m, x, 0.0) == got
                if m > last:
                    assert got.is_zero() and want.norm1() < 1e-12
                else:
                    assert got.plus(want.scaled(-1.0)).norm1() <= 1e-12 * max(1.0, want.norm1())
                # v[m]_s = sum_i s^i/i! v[m + i]
                for s in (0.7, -1.0, 2.0):
                    got = square_bracket_image(module, v, m, x, s)
                    want = AlgebraElement.zero()
                    for i in range(last + 3 - m):
                        want = want.plus(wants[m + i].scaled(s**i / math.factorial(i)))
                    assert got.plus(want.scaled(-1.0)).norm1() <= 1e-12 * max(1.0, want.norm1())
            # the shifted images sum the same zero tail
            assert square_bracket_image(module, v, last + 1, x, 0.7).is_zero()


@pytest.mark.parametrize("kind", sorted(BOUND_CASES))
def test_sized_image_modules_give_the_images_of_a_larger_module(kind):
    # the reduction takes v[m]_shift.x on the smallest vacuum module that
    # holds x and the image; a cap-8 module gives the same terms, bit for bit
    spec, sector, shapes = BOUND_CASES[kind]
    roomy = enumerate_basis(spec, sector, 8.0)
    targets = [AlgebraElement.from_state(s) for s in roomy.states if state_level(spec, s) <= 4]
    for v in shapes:
        h = max(state_level(spec, s) for s in v.terms)
        for x in targets:
            for m in range(last_mode(spec, h, x) + 1):
                for shift in (0, 0.7, -1):
                    got = _bracket_image(spec, v, m, x, shift)
                    assert got.key() == square_bracket_image(roomy, v, m, x, shift).key()


@pytest.mark.parametrize(
    "spec, sector, cap, v",
    [
        (H2, (0.7, 0.3), 3.0, A0A1),
        (H2, (0.7, 0.3), 4.0, A0A0),
        (CF, (), 6.0, JBC),
        (CFN, (), 3.5, current_state(CFN)),
    ],
    ids=["pair", "square", "bilinear_charge_shifted", "bilinear_natural"],
)
def test_round_modes_drop_only_monomials_that_vanish(spec, sector, cap, v):
    # the quadratic shapes stop at the module's top creator labels; every
    # monomial of the wider reach that they leave out kills every state
    module = enumerate_basis(spec, sector, cap)
    every = np.arange(module.dim)
    (state,) = v.terms
    for n in range(-4, 7):
        kept = [modes for _, modes in _round_modes(module, state, 1.0)(n)]
        wide = [modes for _, modes in round_mode_reference(state, n, int(cap) + abs(n) + 3)]
        assert kept == [modes for modes in wide if modes in kept]
        for modes in wide:
            if modes in kept:
                continue
            target, coeff = every.copy(), np.ones(module.dim)
            for op in modes:
                hit = coeff.nonzero()[0]
                target[hit], c = mode_image(op, module, target[hit])
                coeff[hit] *= c
            assert not coeff.any(), (n, modes)
