"""Reduction plans: reduce_full evaluates one cached, position-free plan per
request family.  Its values and ledgers must equal, bit for bit, those of
the direct recursion over reduce_step, whether the plan is warm or built
afresh."""

import json
from dataclasses import replace

import pytest

from jrl.cli import ledger_to_json
from jrl.errors import DomainViolation, UnsupportedInsertion
from jrl.reduction import (
    CoefficientLedger,
    JacobiParams,
    LedgerTerm,
    NPointRequest,
    reduce_full,
    reduce_step,
)
from jrl.reduction import steps
from jrl.specfun import ModularPoint
from jrl.voa import (
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    current_state,
    oscillator_state,
    partition_function,
)

TAU = ModularPoint(0.2 + 0.8j)
Z0 = 0.23 - 0.11j
HEIS = AlgebraSpec(kind="heisenberg", rank=1)
CF = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
RF = AlgebraSpec(kind="real_fermion")
J = current_state(HEIS)
B, C = oscillator_state("b", 1), oscillator_state("c", 1)


def reference_reduce_full(req):
    """The recursion reduce_full ran before plans: reduce_step per stage."""
    if req.n == 0:
        value = partition_function(req.module(), req.params.tau, req.params.trace_weights())
        return value, CoefficientLedger(n=0, value=value, terms=(), is_leaf=True)
    step = reduce_step(req)
    terms, total = [], 0.0 + 0.0j
    for t in step:
        if t.child is not None:
            child_value, child = reference_reduce_full(t.child)
        else:
            child_value, child = t.leaf_value, None
        total += t.scale * t.kernel * child_value
        terms.append(
            LedgerTerm(t.kind, t.k, t.m, t.name, t.args, t.scale, t.kernel, child, child_value)
        )
    return total, CoefficientLedger(n=req.n - 1, value=total, terms=tuple(terms), is_leaf=False)


SCAN = [  # nested positions, cyclic gaps at least 0.15
    (0.05 + 0.1j, 0.3 + 0.3j, -0.2 + 0.5j, 0.4 + 0.65j),
    (-0.3 + 0.12j, 0.1 + 0.28j, 0.45 + 0.47j, 0.0 + 0.62j),
    (0.2 + 0.05j, -0.1 + 0.25j, 0.3 + 0.42j, -0.4 + 0.6j),
]


def family(spec, sector, cap, states, supertrace=False, z=Z0):
    return NPointRequest(
        spec=spec, sector=sector, cap=cap, headroom=8,
        insertions=tuple(zip(states, SCAN[0])),
        params=JacobiParams(z=z, tau=TAU, supertrace=supertrace),
    )


FAMILIES = {
    "lattice": family(HEIS, (0.6,), 3.0, (J, J, J)),
    "generic": family(CF, (), 2.0, (B, C, B, C), supertrace=True),
    "deformed": family(RF, (), 3.5, (oscillator_state("b", 1),) * 4, supertrace=True),
    # at z = tau the selector gives lam = +-1: lattice-shifted images, a
    # c after a b, and a zero-mode trace in every stage
    "shifted": family(CF, (), 2.0, (B, C, C, B), supertrace=True, z=TAU.tau),
    "lattice_flux": family(CF, (), 3.0, (B, C), supertrace=True, z=TAU.tau),
}


def at(req, ws):
    return req.with_insertions(tuple((v, w) for (v, _), w in zip(req.insertions, ws)))


def clear_caches():
    steps._cached_plan.cache_clear()


def fingerprint(result, req):
    value, ledger = result
    return repr(value), json.dumps(ledger_to_json(ledger)), repr(ledger.reevaluate(req.truncation))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_position_scan_is_bit_identical_warm_and_cold(name):
    scan = [at(FAMILIES[name], ws) for ws in SCAN]
    clear_caches()
    warm = [reduce_full(req) for req in scan]
    assert steps._cached_plan.cache_info().misses == 1
    for req, result in zip(scan, warm):
        clear_caches()
        cold = reduce_full(req)
        assert fingerprint(cold, req) == fingerprint(result, req)
        assert cold == result
        assert fingerprint(reference_reduce_full(req), req) == fingerprint(result, req)
    kinds = {t.kind for _, ledger in warm for node in ledger.walk() for t in node.terms}
    if name in ("shifted", "lattice_flux"):
        assert "zero_trace" in kinds


def test_two_evaluations_compare_equal():
    req = at(FAMILIES["lattice"], SCAN[0])
    first = reduce_full(req)
    assert reduce_full(req) == first
    clear_caches()  # another plan object: the ledgers compare by their terms
    assert reduce_full(req) == first
    assert reduce_full(at(FAMILIES["lattice"], SCAN[1])) != first


def test_plan_cache_stays_at_its_bound():
    clear_caches()
    base = family(HEIS, (0.6,), 1.0, (J,))
    for i in range(steps.PLAN_CACHE_SIZE + 8):
        reduce_full(at(replace(base, params=replace(base.params, z=Z0 + 1e-3 * i)), (0.3j,)))
    info = steps._cached_plan.cache_info()
    assert info.maxsize == steps.PLAN_CACHE_SIZE
    assert info.currsize == steps.PLAN_CACHE_SIZE


def test_bad_positions_raise_before_an_unsupported_image():
    # the pair a0a1 maps a0a0 onto a0(-1)a1(-2), whose zero modes are
    # outside the supported shapes; a direct recursion checks the root's
    # separations before it takes any image, and so does the plan build
    H2 = AlgebraSpec(kind="heisenberg", rank=2)
    pair = lambda *b: AlgebraElement.from_state(BasisState(boson=b))  # noqa: E731
    states = (pair((0, 1)), pair((0, 1), (0, 1)), pair((0, 1), (1, 1)))
    req = NPointRequest(
        spec=H2, sector=(0.7, 0.3), cap=2.0, headroom=8,
        insertions=tuple(zip(states, (0.1j, 0.4j, 0.05j))),
        params=JacobiParams(z=Z0, tau=ModularPoint(0.8j)),
    )
    clear_caches()
    with pytest.raises(DomainViolation, match="0 < Im w < Im tau"):
        reduce_full(req)
    with pytest.raises(DomainViolation, match="0 < Im w < Im tau"):
        reduce_step(req)
    # the failed build left no tree: good positions meet the image fault
    with pytest.raises(UnsupportedInsertion, match="outside the supported families"):
        reduce_full(at(req, (0.1j, 0.4j, 0.7j)))
