"""The array trace engine against the per-state loop reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_trace
from reference_trace import apply_mode, npoint_trace_loop, zero_mode_trace_loop
from jrl.errors import DomainViolation, UnsupportedInsertion
from jrl.specfun import ModularPoint
from jrl.voa import (
    VACUUM,
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModeOp,
    TraceWeights,
    apply_field,
    current_state,
    enumerate_basis,
    npoint_trace,
    oscillator_state,
    partition_function,
    trace_tensor,
    zero_mode_operator,
)
from jrl.voa import algebra
from jrl.voa.algebra import apply_terms, mode_image

TAU = ModularPoint(0.1 + 0.55j)
Z0 = 0.23 - 0.11j
REL_TOL = 1e-13

HEIS = AlgebraSpec(kind="heisenberg", rank=1)
HEIS2 = AlgebraSpec(kind="heisenberg", rank=2, current=(1.0, -0.5))
CF_SHIFTED = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
CF_NATURAL = AlgebraSpec(kind="complex_fermion")
RF = AlgebraSpec(kind="real_fermion")

J = current_state(HEIS)
A2 = oscillator_state("a", 2)
ONE_PLUS_J = AlgebraElement({VACUUM: 0.5, **J.terms})
A0 = oscillator_state("a", 1, 0)
A1 = oscillator_state("a", 1, 1)
J2 = current_state(HEIS2)
B = oscillator_state("b", 1)
B2 = oscillator_state("b", 2)
C = oscillator_state("c", 1)

WS = {1: (0.2 + 0.21j,), 2: (0.1 + 0.12j, -0.3 + 0.33j), 3: (0.1 + 0.1j, 0.4 + 0.24j, -0.2 + 0.41j)}

# (spec, sector, cap, insertion states)
CASES = {
    "h1.0": (HEIS, (0.6,), 5.0, ()),
    "h1.J": (HEIS, (0.6,), 5.0, (J,)),
    "h1.JJ": (HEIS, (0.6,), 5.0, (J, J)),
    "h1.a(-2)J": (HEIS, (0.6,), 5.0, (A2, J)),
    "h1.Ja(-2)": (HEIS, (0.6,), 5.0, (J, A2)),
    "h1.JJJ": (HEIS, (0.6,), 4.0, (J, J, J)),
    "h1.(1+J)J(1+J)": (HEIS, (0.6,), 4.0, (ONE_PLUS_J, J, ONE_PLUS_J)),
    "h2.a0a1": (HEIS2, (0.7, 0.3), 3.0, (A0, A1)),
    "h2.a1a1": (HEIS2, (0.7, 0.3), 3.0, (A1, A1)),
    "h2.J2a0a1": (HEIS2, (0.7, 0.3), 2.0, (J2, A0, A1)),
    "cf.bc": (CF_SHIFTED, (), 4.0, (B, C)),
    "cf.cb": (CF_SHIFTED, (), 4.0, (C, B)),
    "cf.b": (CF_SHIFTED, (), 4.0, (B,)),
    "cf.bcb": (CF_SHIFTED, (), 3.0, (B, C, B)),
    "cfn.bc": (CF_NATURAL, (), 4.0, (B, C)),
    "cfn.cb": (CF_NATURAL, (), 4.0, (C, B)),
    "cfn.0": (CF_NATURAL, (), 4.0, ()),
    "rf.bb": (RF, (), 5.5, (B, B)),
    "rf.b(-2)b": (RF, (), 5.5, (B2, B)),
    "rf.bbb": (RF, (), 3.5, (B, B, B)),
}

GRADINGS = {
    "plain": TraceWeights(flux_z=Z0),
    "super": TraceWeights(flux_z=Z0, supertrace=True),
    "c_shift": TraceWeights(flux_z=Z0, include_c_shift=True, charge_weight_shift=0.5),
    "no_flux": TraceWeights(supertrace=True, include_c_shift=True),
}


def assert_close(got, want, tol=REL_TOL):
    if want == 0:
        assert got == 0
    else:
        assert abs(got - want) <= tol * abs(want), (got, want)


@pytest.mark.parametrize("grading", sorted(GRADINGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_array_trace_matches_loop_reference(case, grading):
    spec, sector, cap, states = CASES[case]
    module = enumerate_basis(spec, sector, cap)
    insertions = list(zip(states, WS.get(len(states), ())))
    tw = GRADINGS[grading]
    want = npoint_trace_loop(module, insertions, TAU, tw)
    assert_close(npoint_trace(module, insertions, TAU, tw), want)
    if not insertions:
        assert_close(partition_function(module, TAU, tw), want)


A0A1 = AlgebraElement.from_state(BasisState(boson=((0, 1), (1, 1))))
HALF_VACUUM = AlgebraElement.from_state(VACUUM, 0.5)
# a0(-1)a0(-2)vac, outside the zero-mode families
UNSUPPORTED_PAIR = AlgebraElement.from_state(BasisState(boson=((0, 1), (0, 2))))

# zero mode o_lam(v): (spec, sector, cap, v, lam, single-oscillator insertions)
ZERO_CASES = {
    "vac.0": (HEIS2, (0.7, 0.3), 3.0, HALF_VACUUM, 0, (A0, A1)),
    "vac.1": (HEIS2, (0.7, 0.3), 3.0, HALF_VACUUM, 1, (A0, A1)),
    "J.-1": (HEIS2, (0.7, 0.3), 3.0, J2, -1, (A0, A1)),
    "J.0": (HEIS2, (0.7, 0.3), 3.0, J2, 0, (A0, A1)),
    "J.1": (HEIS2, (0.7, 0.3), 3.0, J2, 1, (A0, A1)),
    "a(-2).1": (HEIS2, (0.7, 0.3), 3.0, A2, 1, (A0, A1)),
    "a0a1.-1": (HEIS2, (0.7, 0.3), 3.0, A0A1, -1, (A0, A1)),
    "a0a1.0": (HEIS2, (0.7, 0.3), 3.0, A0A1, 0, (A0, A1)),
    "a0a1.1": (HEIS2, (0.7, 0.3), 3.0, A0A1, 1, (A0, A1)),
    "a0a1.2": (HEIS2, (0.7, 0.3), 3.0, A0A1, 2, (A0, A1)),
    "bc.-1": (CF_SHIFTED, (), 4.0, current_state(CF_SHIFTED), -1, (B, C)),
    "bc.0": (CF_SHIFTED, (), 4.0, current_state(CF_SHIFTED), 0, (B, C)),
    "bc.1": (CF_SHIFTED, (), 4.0, current_state(CF_SHIFTED), 1, (B, C)),
    "b.-1": (CF_NATURAL, (), 3.5, B, -1, (C, B)),
    "b.0": (CF_NATURAL, (), 3.5, B, 0, (C, B)),
    "rf.1": (RF, (), 4.5, B, 1, (B, B)),
}

# (tau, flux, positions by field count): one tensor is evaluated at each
POINTS = (
    (TAU, Z0, WS),
    (ModularPoint(-0.3 + 0.7j), 0.1 + 0.05j,
     {1: (0.4 + 0.5j,), 2: (-0.2 + 0.15j, 0.35 + 0.45j)}),
    (ModularPoint(0.45 + 0.62j), -0.4 - 0.2j,
     {1: (-0.1 + 0.05j,), 2: (0.3 + 0.2j, -0.45 + 0.52j)}),
)


@pytest.mark.parametrize("grading", sorted(GRADINGS))
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(ZERO_CASES))
def test_zero_mode_trace_matches_loop_reference(case, n, grading):
    spec, sector, cap, v, lam, states = ZERO_CASES[case]
    module = enumerate_basis(spec, sector, cap)
    tensor = trace_tensor(module, states[:n], (v, lam))
    for tau, z, ws in POINTS:
        insertions = list(zip(states[:n], ws.get(n, ())))
        tw = GRADINGS[grading]
        if tw.flux_z is not None:
            tw = replace(tw, flux_z=z)
        want = zero_mode_trace_loop(module, v, lam, insertions, tau, tw)
        assert_close(tensor.evaluate(tau, tw, [w for _, w in insertions]), want)


def test_array_trace_keeps_typed_errors():
    heis = enumerate_basis(HEIS, (0.6,), 3.0)
    rf = enumerate_basis(RF, (), 3.5)
    tw = TraceWeights(flux_z=Z0)
    with pytest.raises(UnsupportedInsertion):
        npoint_trace(heis, [(B, 0.2j)], TAU, tw)
    with pytest.raises(UnsupportedInsertion):
        npoint_trace(rf, [(C, 0.2j)], TAU, tw)
    with pytest.raises(UnsupportedInsertion):
        npoint_trace(rf, [(J, 0.2j)], TAU, tw)
    with pytest.raises(UnsupportedInsertion):
        npoint_trace(heis, [(current_state(CF_SHIFTED), 0.2j)], TAU, tw)
    with pytest.raises(DomainViolation):
        npoint_trace(heis, [(oscillator_state("a", 1, 3), 0.2j)], TAU, tw)
    with pytest.raises(DomainViolation):
        npoint_trace(heis, [(J, 0.3j), (J, 0.2j)], TAU, tw)
    with pytest.raises(DomainViolation):
        npoint_trace(heis, [(J, 0.2j), (J, 0.6j)], TAU, tw)
    # a zero mode foreign to the module raises although no path reaches it
    with pytest.raises(UnsupportedInsertion, match="fermionic mode"):
        trace_tensor(heis, (), (B, 1))
    with pytest.raises(UnsupportedInsertion, match="supported families"):
        trace_tensor(heis, (), (UNSUPPORTED_PAIR, 0))


def test_state_key_is_exact_past_64_bits():
    # rank 7 at level cap 6: the plain mixed-radix product of the
    # per-(flavor, level) occupation ranges is about 2^65.7
    spec = AlgebraSpec(kind="heisenberg", rank=7)
    sector = (0.3, -0.2, 0.1, 0.0, 0.25, -0.4, 0.5)
    module = enumerate_basis(spec, sector, 6.0)
    assert module.dim == 6742
    assert math.prod(6 // l + 1 for l in range(1, 7)) ** 7 > 2**64
    keys = module.arrays.key
    assert keys.dtype == np.int64
    assert len(np.unique(keys)) == module.dim

    for flavor in (0, 6):
        for n in (-2, -1, 1, 2):
            op = ModeOp("a", n, flavor)
            target, coeff = mode_image(op, module, np.arange(module.dim))
            for i, s in enumerate(module.states):
                img = apply_mode(op, AlgebraElement.from_state(s), module)
                got = {module.states[target[i]]: coeff[i]} if coeff[i] else {}
                assert got == img.terms

    # the reference adds the 6742 state terms one after another, which
    # bounds the rounding error by dim * eps relative, not by REL_TOL
    tw = TraceWeights(flux_z=Z0)
    one_point = [(oscillator_state("a", 1, 6), 0.2j)]
    assert_close(
        npoint_trace(module, one_point, TAU, tw),
        npoint_trace_loop(module, one_point, TAU, tw),
        tol=module.dim * np.finfo(float).eps,
    )


def test_fermion_signs_across_key_groups():
    # 55 fermion slots: the bit string is split into two key groups, so
    # the sign of a mode also counts the fermions of the lower group
    module = enumerate_basis(CF_NATURAL, (), 27.0)
    assert len(module.arrays.radix) == 2
    assert len(np.unique(module.arrays.key)) == module.dim
    idx = np.arange(0, module.dim, 397)
    for species in ("b", "c"):
        for n in range(-29, 29):
            op = ModeOp(species, n)
            target, coeff = mode_image(op, module, idx)
            for k, i in enumerate(idx):
                img = apply_mode(op, AlgebraElement.from_state(module.states[i]), module)
                got = {module.states[target[k]]: coeff[k]} if coeff[k] else {}
                assert got == img.terms


# (spec, sector, cap, species) of the small modules of the differential test
SMALL = {
    "h1": (HEIS, (0.3,), 5.0, "a"),
    "h2": (HEIS2, (0.7, -0.2), 4.0, "a"),
    "cf": (CF_SHIFTED, (), 4.0, "bc"),
    "cfn": (CF_NATURAL, (), 3.5, "bc"),
    "rf": (RF, (), 4.5, "b"),
}
COMPLEX = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(SMALL)))
def test_apply_terms_matches_the_dict_reference(data, case):
    spec, sector, cap, species = SMALL[case]
    module = enumerate_basis(spec, sector, cap)
    states = data.draw(
        st.lists(st.sampled_from(module.states), min_size=1, max_size=6, unique=True)
    )
    x = AlgebraElement({s: data.draw(COMPLEX.filter(bool)) for s in states})
    op = st.builds(
        ModeOp, st.sampled_from(species), st.integers(-6, 6), st.integers(0, spec.rank - 1)
    )
    terms = data.draw(st.lists(st.tuples(COMPLEX, st.lists(op, max_size=3).map(tuple)), max_size=8))
    got = apply_terms(module, terms, x)
    want = reference_trace.apply_terms(module, terms, x)
    assert got.plus(want.scaled(-1.0)).norm1() <= 1e-13 * max(1.0, want.norm1())


def test_state_outside_the_module_is_a_domain_violation():
    module = enumerate_basis(HEIS, (0.6,), 3.0)
    x = AlgebraElement({VACUUM: 1.0, BasisState(boson=((0, 4),)): 2.0})
    for act in (
        lambda: algebra.apply_mode(ModeOp("a", 1), x, module),
        lambda: zero_mode_operator(module, J)(x),
        lambda: apply_field(module, J, 0.2j, x),
    ):
        with pytest.raises(DomainViolation, match=r"boson=\(\(0, 4\),\)"):
            act()
