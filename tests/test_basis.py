"""The module basis, state by state and in order, against a brute-force
enumeration over creator occupations."""

import itertools

import pytest

from jrl.errors import CapTooLarge
from jrl.voa import AlgebraSpec, BasisState, algebra, enumerate_basis

HEIS = {r: AlgebraSpec(kind="heisenberg", rank=r) for r in (1, 2, 3)}
RF = AlgebraSpec(kind="real_fermion")
CF_NATURAL = AlgebraSpec(kind="complex_fermion")
CF_SHIFTED = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")

# small caps, half-integer caps, and the working-module caps (cap plus
# headroom) of the benchmark's modules up to 20
CASES = [
    *((HEIS[1], cap) for cap in (0, 0.5, 1, 2.5, 7.5, 11, 13, 14, 16, 18, 20)),
    *((HEIS[2], cap) for cap in (0, 0.5, 1.5, 3.5, 7, 9, 13)),
    *((HEIS[3], cap) for cap in (0, 0.5, 2.5, 6, 8)),
    *((RF, cap) for cap in (0, 0.5, 1, 4.5, 7.5, 18.5, 19.5)),
    *((CF_NATURAL, cap) for cap in (0, 0.5, 1, 5.5, 10, 14)),
    *((CF_SHIFTED, cap) for cap in (0, 0.5, 3.5, 6, 10, 14, 16, 18, 20)),
]


def creators(spec, cap):
    """(field, item, level, largest occupation) of every creator below the cap."""
    if spec.kind == "heisenberg":
        return [
            ("boson", (f, l), float(l), int(cap // l))
            for f in range(spec.rank)
            for l in range(1, int(cap) + 1)
        ]
    out = []
    for species in ("b", "c") if spec.kind == "complex_fermion" else ("b",):
        w0 = spec.species_weight(species)
        out += [
            (f"ferm_{species}", j, j - 1 + w0, 1)
            for j in range(1, int(cap) + 3)
            if j - 1 + w0 <= cap
        ]
    return out


def brute_force_basis(spec, cap):
    """Every occupation vector of level <= cap, as canonical states sorted
    by (level, state).  The product over creators is taken one creator at a
    time with the level filter applied after each step (levels are
    nonnegative, so this is the filtered full product without its 2^41
    vectors at cap 20)."""
    cs = creators(spec, cap)
    partial = [((), 0.0)]
    for _, _, level, top in cs:
        partial = [
            (occ + (k,), lvl + k * level)
            for (occ, lvl), k in itertools.product(partial, range(top + 1))
            if lvl + k * level <= cap
        ]
    found = []
    for occ, lvl in partial:
        fields = {"boson": [], "ferm_b": [], "ferm_c": []}
        for (field, item, _, _), k in zip(cs, occ):
            fields[field] += [item] * k
        found.append((lvl, BasisState(**{f: tuple(v) for f, v in fields.items()})))
    return tuple(state for _, state in sorted(found))


def sector(spec):
    return (0.3,) * spec.rank if spec.kind == "heisenberg" else ()


@pytest.mark.parametrize(
    "spec, cap",
    CASES,
    ids=[f"{s.kind}-{s.rank}-{s.grading}-{cap}" for s, cap in CASES],
)
def test_basis_matches_brute_force(spec, cap, monkeypatch):
    module = enumerate_basis(spec, sector(spec), cap)
    assert module.states == brute_force_basis(spec, cap)
    # the budget is exceeded exactly when the count passes STATE_BUDGET
    monkeypatch.setattr(algebra, "STATE_BUDGET", module.dim)
    enumerate_basis(spec, sector(spec), cap)
    monkeypatch.setattr(algebra, "STATE_BUDGET", module.dim - 1)
    with pytest.raises(CapTooLarge):
        enumerate_basis(spec, sector(spec), cap)
