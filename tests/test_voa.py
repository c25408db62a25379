import math

import pytest

import oracles
import reference_trace
from jrl.errors import DomainViolation, UnsupportedInsertion
from jrl.specfun import ModularPoint, Truncation, phase
from jrl.voa import (
    VACUUM,
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModeOp,
    TraceWeights,
    apply_field,
    apply_mode,
    current_state,
    enumerate_basis,
    graded_trace,
    kappa,
    npoint_trace,
    oscillator_state,
    partition_function,
    sector_weight,
    square_bracket_image,
    state_charge,
    state_level,
    zero_mode_operator,
)

TAU = ModularPoint(0.5j)
Z0 = 0.23 - 0.11j


def test_spec_validation():
    with pytest.raises(DomainViolation):
        AlgebraSpec(kind="nope")
    with pytest.raises(DomainViolation):
        AlgebraSpec(kind="real_fermion", rank=2)
    with pytest.raises(DomainViolation):
        AlgebraSpec(kind="heisenberg", grading="charge_shifted")


def test_heisenberg_basis_counts():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.0,), 4.0)
    # one state per partition of each level: 1+1+2+3+5
    by_level = {}
    for s in module.states:
        by_level[module.level(s)] = by_level.get(module.level(s), 0) + 1
    assert by_level == {0.0: 1, 1.0: 1, 2.0: 2, 3.0: 3, 4.0: 5}


def test_complex_fermion_charge_shifted_bottom_layer():
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    module = enumerate_basis(spec, (), 3.0)
    bottom = [s for s in module.states if module.level(s) == 0.0]
    # vacuum plus c(-1): the regraded c creator costs nothing
    assert len(bottom) == 2
    assert VACUUM in bottom
    assert BasisState(ferm_c=(1,)) in bottom


def test_real_fermion_levels_are_half_integers():
    spec = AlgebraSpec(kind="real_fermion")
    assert state_level(spec, BasisState(ferm_b=(1,))) == 0.5
    assert state_level(spec, BasisState(ferm_b=(2,))) == 1.5
    assert state_level(spec, BasisState(ferm_b=(1, 2))) == 2.0


def test_state_charge():
    cf = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    assert state_charge(cf, (), BasisState(ferm_b=(1,))) == 1.0
    assert state_charge(cf, (), BasisState(ferm_c=(1,))) == -1.0
    heis = AlgebraSpec(kind="heisenberg", rank=1)
    assert state_charge(heis, (0.7,), VACUUM) == 0.7
    assert state_charge(heis, (0.7,), BasisState(boson=((0, 3),))) == 0.7


def test_sector_weight_heisenberg():
    spec = AlgebraSpec(kind="heisenberg", rank=2)
    assert abs(sector_weight(spec, (0.3, -0.4)) - 0.5 * (0.09 + 0.16)) < 1e-15


# the algebra laws hold for the array mode action and for the per-state
# reference alike
MODE_ACTIONS = (apply_mode, reference_trace.apply_mode)


def test_mode_commutator_boson():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.3,), 6.0)
    up, dn = ModeOp("a", -2), ModeOp("a", 2)
    for act in MODE_ACTIONS:
        for s in module.states:
            if module.level(s) > 4.0:
                continue  # keep raised images inside the cap
            x = AlgebraElement.from_state(s)
            lhs = act(dn, act(up, x, module), module)
            rhs = act(up, act(dn, x, module), module).plus(x.scaled(2.0))
            assert lhs.plus(rhs.scaled(-1.0)).norm1() < 1e-12


def test_mode_anticommutator_complex_fermion():
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    module = enumerate_basis(spec, (), 5.0)
    # {b(m), c(n)} = delta_{m+n,-1}
    for act in MODE_ACTIONS:
        for m, n, want in ((0, -1, 1.0), (-1, 0, 1.0), (1, -2, 1.0), (0, -2, 0.0)):
            bm, cn = ModeOp("b", m), ModeOp("c", n)
            for s in module.states:
                if module.level(s) > 2.0:
                    continue
                x = AlgebraElement.from_state(s)
                anti = act(bm, act(cn, x, module), module).plus(act(cn, act(bm, x, module), module))
                assert anti.plus(x.scaled(-want)).norm1() < 1e-12


def test_heisenberg_partition_product():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    alpha = 0.4
    cap = 10
    module = enumerate_basis(spec, (alpha,), float(cap))
    got = partition_function(module, TAU, TraceWeights(flux_z=Z0))
    q = TAU.q
    poly = [1.0 + 0.0j] + [0.0j] * cap
    for n in range(1, cap + 1):
        for k in range(n, cap + 1):
            poly[k] += poly[k - n]
    series = sum(poly[k] * q**k for k in range(cap + 1))
    want = phase(Z0 * alpha + TAU.tau * alpha * alpha / 2.0) * series
    assert abs(got - want) / abs(want) < 1e-10


def test_complex_fermion_flux_product():
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    cap = 10
    module = enumerate_basis(spec, (), float(cap))
    zeta = phase(Z0)
    got = partition_function(module, TAU, TraceWeights(flux_z=Z0))
    # prod_n (1 + zeta q^n)(1 + zeta^{-1} q^{n-1}) truncated at q^cap
    poly = [1.0 + 0.0j] + [0.0j] * cap
    for exp, coef in [(n, zeta) for n in range(1, cap + 1)] + [
        (n - 1, 1.0 / zeta) for n in range(1, cap + 2)
    ]:
        if exp > cap:
            continue
        nxt = poly[:]
        for k in range(cap + 1 - exp):
            nxt[k + exp] += coef * poly[k]
        poly = nxt
    want = sum(poly[k] * TAU.q**k for k in range(cap + 1))
    assert abs(got - want) / abs(want) < 1e-10


def test_kappa_reference_values():
    # exact rationals, rounded once
    assert kappa(1.0, -1, 1) == -1.0 / 12.0
    assert kappa(1.0, -1, 0) == 0.5
    assert kappa(1.0, 0, 0) == 1.0
    assert kappa(1.0, 0, 1) == 0.0
    assert kappa(1.0, 1, 1) == 1.0


def test_kappa_rejects_bad_weight():
    with pytest.raises(UnsupportedInsertion):
        kappa(0.3, 0, 0)


def test_current_zero_mode_is_charge():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.6,), 6.0)
    J = current_state(spec)
    op = zero_mode_operator(module, J)
    x = AlgebraElement.from_state(BasisState(boson=((0, 2),)))
    out = op(x)
    assert out.plus(x.scaled(-0.6)).norm1() < 1e-12


def test_square_bracket_current_on_fermions():
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    module = enumerate_basis(spec, (), 6.0)
    J = current_state(spec)
    b = oscillator_state("b", 1)
    c = oscillator_state("c", 1)
    jb = square_bracket_image(module, J, 0, b)
    assert jb.plus(b.scaled(-1.0)).norm1() < 1e-12
    jc = square_bracket_image(module, J, 0, c)
    assert jc.plus(c.scaled(1.0)).norm1() < 1e-12


def test_square_bracket_b_of_c_is_identity():
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    module = enumerate_basis(spec, (), 6.0)
    b = oscillator_state("b", 1)
    c = oscillator_state("c", 1)
    out = square_bracket_image(module, b, 0, c)
    vac = AlgebraElement.from_state(VACUUM)
    assert out.plus(vac.scaled(-1.0)).norm1() < 1e-12
    # higher square modes annihilate
    assert square_bracket_image(module, b, 1, c).norm1() < 1e-12


def test_vacuum_square_bracket_is_delta():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.0,), 4.0)
    vac = AlgebraElement.from_state(VACUUM)
    x = oscillator_state("a", 2)
    assert square_bracket_image(module, vac, -1, x).plus(x.scaled(-1.0)).norm1() < 1e-12
    assert square_bracket_image(module, vac, 0, x).norm1() < 1e-12


def test_zero_point_trace_matches_partition():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.6,), 8.0)
    tw = TraceWeights(flux_z=Z0)
    a = partition_function(module, TAU, tw)
    b = graded_trace(module, [], TAU, tw)
    assert abs(a - b) < 1e-14
    # reference value was produced on a headroom-padded module, hence 1e-10
    assert abs(a - oracles.TRACE_Z0_HEISENBERG) < 1e-10


def test_field_locality_scale():
    # Y(J, w) x for the heisenberg current keeps the J(0) and creator parts
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.5,), 6.0)
    J = current_state(spec)
    vac = AlgebraElement.from_state(VACUUM)
    out = apply_field(module, J, 0.12j, vac)
    # constant term is the zero-mode scalar alpha
    assert abs(out.terms.get(VACUUM, 0.0) - 0.5) < 1e-12


def test_npoint_trace_requires_nested_ordering():
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.6,), 6.0)
    J = current_state(spec)
    with pytest.raises(DomainViolation):
        npoint_trace(module, [(J, 0.31j), (J, 0.12j)], TAU, TraceWeights(flux_z=Z0))
