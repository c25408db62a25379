"""Zero-mode traces as cached tensors: `reduction.steps.zero_mode_trace`
reads one `TraceTensor` per (module, elements, zero mode), free of tau,
the flux and the positions.  Its values against the per-state loop
reference are tested in test_fock_arrays.py; here, the cache."""

from dataclasses import replace

import pytest

from jrl.reduction import JacobiParams, NPointRequest
from jrl.reduction import steps
from jrl.specfun import ModularPoint
from jrl.voa import VACUUM, AlgebraElement, AlgebraSpec, current_state, oscillator_state
from jrl.voa import algebra, trace

CF = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
HEIS = AlgebraSpec(kind="heisenberg", rank=1)
B, C, JBC = oscillator_state("b", 1), oscillator_state("c", 1), current_state(CF)
J = current_state(HEIS)


def request(spec, sector, cap, tau=0.1 + 0.8j, z=0.23 - 0.11j, headroom=4):
    return NPointRequest(
        spec=spec, sector=sector, cap=cap, insertions=(), headroom=headroom,
        params=JacobiParams(z=z, tau=ModularPoint(tau), supertrace=spec.kind != "heisenberg"),
    )


STAGE = request(CF, (), 2.0)
FIELDS = ((B, 0.1 + 0.2j), (C, -0.3 + 0.45j))
# (request, zero mode v, lam, insertions) at three taus, fluxes and positions
SCAN = [
    (STAGE, JBC, 1, FIELDS),
    (request(CF, (), 2.0, tau=-0.2 + 0.7j, z=0.4 + 0.05j), JBC, 1,
     ((B, 0.3 + 0.1j), (C, 0.05 + 0.6j))),
    (request(CF, (), 2.0, tau=0.45 + 0.9j, z=-0.1 - 0.2j), JBC, 1,
     ((B, -0.4 + 0.35j), (C, 0.2 + 0.5j))),
]


def test_cold_evaluation_equals_warm_bit_for_bit():
    steps._cached_tensor.cache_clear()
    warm = [steps.zero_mode_trace(*args) for args in SCAN]
    assert steps._cached_tensor.cache_info().misses == 1
    for args, value in zip(SCAN, warm):
        steps._cached_tensor.cache_clear()
        assert repr(steps.zero_mode_trace(*args)) == repr(value)


def test_keys_that_differ_in_lam_order_or_cap_give_other_values():
    base = steps.zero_mode_trace(STAGE, JBC, 1, FIELDS)
    assert base != 0
    others = [
        steps.zero_mode_trace(STAGE, JBC, 0, FIELDS),
        steps.zero_mode_trace(STAGE, JBC, -1, FIELDS),
        steps.zero_mode_trace(STAGE, JBC, 1, ((C, FIELDS[0][1]), (B, FIELDS[1][1]))),
        steps.zero_mode_trace(replace(STAGE, cap=3.0), JBC, 1, FIELDS),
    ]
    # the cap moves the value by its truncation error only, 2.5e-9 relative
    assert all(x != base for x in others)
    assert len({repr(x) for x in others}) == len(others)


def test_tensor_cache_stays_at_its_bound():
    steps._cached_tensor.cache_clear()
    req = request(HEIS, (0.6,), 1.0, headroom=1)
    for i in range(steps.TENSOR_CACHE_SIZE + 8):
        # a vacuum coefficient of its own makes each v a family of its own
        v = AlgebraElement({VACUUM: 1.0 + i, **J.terms})
        steps.zero_mode_trace(req, v, 0, ((J, 0.3j),))
    info = steps._cached_tensor.cache_info()
    assert info.maxsize == steps.TENSOR_CACHE_SIZE
    assert info.currsize == steps.TENSOR_CACHE_SIZE


def test_warm_family_calls_no_mode_image(monkeypatch):
    steps.zero_mode_trace(*SCAN[0])
    calls = []
    mode_image = algebra.mode_image

    def counted(*args):
        calls.append(args[0])
        return mode_image(*args)

    monkeypatch.setattr(trace, "mode_image", counted)
    monkeypatch.setattr(algebra, "mode_image", counted)
    for args in SCAN[1:]:
        steps.zero_mode_trace(*args)
    assert calls == []
    # the counter sees a cold build
    steps._cached_tensor.cache_clear()
    steps.zero_mode_trace(*SCAN[0])
    assert calls


def test_unsupported_zero_mode_raises_on_every_call():
    pair = AlgebraElement.from_state(algebra.BasisState(boson=((0, 1), (0, 2))))
    req = request(HEIS, (0.6,), 1.0, headroom=1)
    for _ in range(2):
        with pytest.raises(algebra.UnsupportedInsertion, match="supported families"):
            steps.zero_mode_trace(req, pair, 0, ())
