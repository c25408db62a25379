import pytest

from jrl.errors import AdmissibilityViolation, DomainViolation, GridDegenerate
from jrl.specfun import ModularPoint
from jrl.voa import AlgebraSpec, current_state, oscillator_state
from jrl.reduction import coboundary
from jrl.reduction import (
    VARIANTS,
    JacobiParams,
    NPointRequest,
    chain_condition_residual,
    coboundary_apply,
    cohomology_probe,
    kz_residual,
    npoint_oracle,
    oracle_family,
    reduce_full,
    reduce_step,
    reduction_family,
    sample_grid,
    stage_contributions,
)
from reference_trace import perturbed_kz_residual

TAU = ModularPoint(0.5j)
Z0 = 0.23 - 0.11j
HEIS = AlgebraSpec(kind="heisenberg", rank=1)
HEIS2 = AlgebraSpec(kind="heisenberg", rank=2)
CFERM = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")


def heis_base(n=1, alpha=0.6):
    J = current_state(HEIS)
    ws = [0.12j, 0.31j][:n]
    return NPointRequest(
        spec=HEIS,
        sector=(alpha,),
        cap=8.0,
        insertions=tuple((J, w) for w in ws),
        params=JacobiParams(z=Z0, tau=TAU),
    )


def cferm_base(cap=5.0):
    return NPointRequest(
        spec=CFERM,
        sector=(),
        cap=cap,
        insertions=(
            (oscillator_state("b", 1), 0.12j),
            (oscillator_state("c", 1), 0.31j),
        ),
        params=JacobiParams(z=Z0, tau=TAU, supertrace=True),
    )


def test_variant_registry():
    assert set(VARIANTS) == {"simplest", "main", "shifted", "super"}


def test_family_evaluate_matches_oracle():
    base = heis_base(n=1)
    fam = oracle_family(base)
    got = fam.evaluate((current_state(HEIS),), (0.12j,))
    assert abs(got - npoint_oracle(base)) < 1e-14


def test_family_rejects_length_mismatch():
    base = heis_base(n=1)
    fam = oracle_family(base)
    with pytest.raises(DomainViolation):
        fam.evaluate((current_state(HEIS),), (0.12j, 0.31j))


def test_simplest_variant_matches_reduce_step():
    base = cferm_base()
    fam = reduction_family(base)
    J = current_state(CFERM)
    vs = (oscillator_state("b", 1), oscillator_state("c", 1), J)
    ws = (0.12j, 0.31j, 0.42j)
    contribs = stage_contributions("simplest", base, fam, vs, ws)
    total = sum(c.value for c in contribs)
    extended = base.with_insertions(base.insertions + ((J, 0.42j),))
    # identical coefficient structure, stage for stage
    step = reduce_step(extended)
    assert [(t.kind, t.k, t.m) for t in step] == [
        (c.kind, c.k, c.m) for c in contribs
    ]
    # same value as the recursive reduction, children and all
    val, _ = reduce_full(extended)
    assert total == val
    # and the step children evaluated by direct trace agree to truncation
    want = 0.0 + 0.0j
    for t in step:
        child = npoint_oracle(t.child) if t.child is not None else t.leaf_value
        want += t.scale * t.kernel * child
    assert abs(total - want) / max(1.0, abs(want)) < 1e-8


def test_super_variant_agrees_on_fermions():
    base = cferm_base()
    fam = reduction_family(base)
    J = current_state(CFERM)
    vs = (oscillator_state("b", 1), oscillator_state("c", 1), J)
    ws = (0.12j, 0.31j, 0.42j)
    si = sum(c.value for c in stage_contributions("simplest", base, fam, vs, ws))
    su = sum(c.value for c in stage_contributions("super", base, fam, vs, ws))
    assert abs(si - su) < 1e-12 * max(1.0, abs(si))


def test_shifted_variant_agrees_at_zero_twist():
    base = cferm_base()
    fam = reduction_family(base)
    J = current_state(CFERM)
    vs = (oscillator_state("b", 1), oscillator_state("c", 1), J)
    ws = (0.12j, 0.31j, 0.42j)
    sh = sum(c.value for c in stage_contributions("shifted", base, fam, vs, ws))
    si = sum(c.value for c in stage_contributions("simplest", base, fam, vs, ws))
    assert abs(sh - si) < 1e-10 * max(1.0, abs(si))


def test_main_variant_requires_admissibility():
    base = heis_base(n=1)
    fam = reduction_family(base)
    J = current_state(HEIS)
    # J[1] J = id != 0, so the main-variant hypothesis fails on <J J>
    with pytest.raises(AdmissibilityViolation):
        stage_contributions("main", base, fam, (J, J), (0.12j, 0.31j))


def test_coboundary_apply_extends_family():
    base = heis_base(n=1)
    fam = reduction_family(base)
    J = current_state(HEIS)
    ext = coboundary_apply("simplest", J, fam, base)
    assert ext.n == fam.n + 1
    got = ext.evaluate((J, J), (0.12j, 0.31j))
    want = npoint_oracle(heis_base(n=2))
    assert abs(got - want) / abs(want) < 1e-8


def test_sample_grid_is_deterministic_and_ordered():
    g1 = sample_grid(2, TAU.tau, n_samples=8, seed=0x4A43)
    g2 = sample_grid(2, TAU.tau, n_samples=8, seed=0x4A43)
    assert g1 == g2
    assert len(g1) == 8
    for row in g1:
        assert len(row) == 2
        ims = [w.imag for w in row]
        assert ims == sorted(ims)
        assert all(0.0 < v < TAU.tau.imag for v in ims)
        # nested points stay separated
        assert min(b - a for a, b in zip(ims, ims[1:])) > 1e-3


def test_chain_condition_cross_flavor():
    # rank 2, charge only on the first flavor: the second-flavor current has
    # zero zero-mode scalar and cross-flavor contractions vanish, so the
    # twice-extended family collapses while the once-extended one does not
    x1 = oscillator_state("a", 1, flavor=0)
    x2 = oscillator_state("a", 1, flavor=1)
    base = NPointRequest(
        spec=HEIS2,
        sector=(0.7, 0.0),
        cap=4.0,
        insertions=(),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    fam = oracle_family(base)
    res = chain_condition_residual("simplest", x1, x2, fam, base, n_samples=4, seed=0x4A43)
    assert res < 1e-8
    # non-vacuity: the intermediate one-point family is itself nonzero
    once = coboundary_apply("simplest", x1, fam, base)
    mid = max(abs(once.evaluate((x1,), (w,))) for w in (0.12j, 0.2j, 0.31j))
    assert mid > 1e-3


def test_cohomology_probe_kernel_dimensions():
    grid = sample_grid(1, TAU.tau, n_samples=6, seed=0x4A43)
    # charged extension of the flat family: every stage value vanishes
    base_cf = NPointRequest(
        spec=CFERM,
        sector=(),
        cap=8.0,
        insertions=(),
        params=JacobiParams(z=Z0, tau=TAU, supertrace=True),
    )
    res = cohomology_probe(
        "simplest", oscillator_state("b", 1), [oracle_family(base_cf)], base_cf, grid
    )
    assert res.rank == 0
    assert res.kernel_dim == 1
    # charge-neutral heisenberg extension keeps full rank
    base_h = heis_base(n=1).with_insertions(())
    res2 = cohomology_probe(
        "simplest", current_state(HEIS), [oracle_family(base_h)], base_h, grid
    )
    assert res2.rank == 1
    assert res2.kernel_dim == 0


def test_cohomology_probe_rejects_bad_grid():
    base = heis_base(n=1).with_insertions(())
    fam = oracle_family(base)
    with pytest.raises(GridDegenerate):
        cohomology_probe("simplest", current_state(HEIS), [fam], base, [])
    bad = [(0.12j, 0.31j)] * 3  # repeated rows, wrong width
    with pytest.raises(GridDegenerate):
        cohomology_probe("simplest", current_state(HEIS), [fam], base, bad)


def test_kz_consistency_and_sensitivity():
    base = heis_base(n=1)
    J = current_state(HEIS)
    clean = kz_residual(base, J, 0.31j)
    assert clean < 1e-8
    perturbed = perturbed_kz_residual(base, J, 0.31j, 1.01)
    assert perturbed > 1e-3


def test_stage_values_are_reduce_step_terms_exactly():
    # two currents on Heisenberg: a zero_scalar row plus twisted-kernel rows
    base = heis_base(n=2)
    J = current_state(HEIS)
    vs = (J, J, J)
    ws = (0.12j, 0.31j, 0.42j)
    contribs = stage_contributions("simplest", base, reduction_family(base), vs, ws)
    step = reduce_step(base.with_insertions(base.insertions + ((J, 0.42j),)))
    assert [t.kind for t in step][:1] == ["zero_scalar"]
    assert [(t.kind, t.k, t.m, t.name) for t in step] == [
        (c.kind, c.k, c.m, c.name) for c in contribs
    ]
    for t, c in zip(step, contribs):
        assert c.value == t.scale * t.kernel * reduce_full(t.child)[0]


def counted_stage_tables(monkeypatch) -> list:
    """The argument tuples of every stage_table call that coboundary makes."""
    calls = []
    build = coboundary.stage_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(coboundary, "stage_table", counted)
    return calls


@pytest.mark.parametrize("variant", ["simplest", "super", "shifted"])
def test_family_reads_its_stage_tables_at_new_positions(monkeypatch, variant):
    # the current applied twice to <J>: the outer family and the inner one
    # both keep the tables of their first evaluation
    J = current_state(HEIS)
    base = heis_base(n=1)

    def family():
        once = coboundary_apply(variant, J, reduction_family(base), base)
        return coboundary_apply(variant, J, once, base)

    vs = (J, J, J)
    ws = (0.1 + 0.14j, -0.2 + 0.29j, 0.3 + 0.4j)
    twice = family()
    twice.evaluate(vs, (0.12j, 0.31j, 0.42j))
    calls = counted_stage_tables(monkeypatch)
    got = twice.evaluate(vs, ws)
    assert calls == []
    fresh = family().evaluate(vs, ws)
    assert len(calls) > 1
    assert got == fresh and abs(got) > 1e-6


def test_kept_stage_tables_still_check_the_separations():
    J = current_state(HEIS)
    base = heis_base(n=1)
    fam = coboundary_apply("simplest", J, reduction_family(base), base)
    fam.evaluate((J, J), (0.12j, 0.31j))
    # w_d - w_k = -0.19i lies outside the annulus 0 < Im w < Im tau
    bad = (0.31j, 0.12j)
    with pytest.raises(DomainViolation) as kept:
        fam.evaluate((J, J), bad)
    with pytest.raises(DomainViolation) as fresh:
        coboundary_apply("simplest", J, reduction_family(base), base).evaluate((J, J), bad)
    assert str(kept.value) == str(fresh.value)


def test_a_table_that_raised_is_not_kept(monkeypatch):
    J = current_state(HEIS)
    base = heis_base(n=1)
    fam = coboundary_apply("main", J, reduction_family(base), base)
    calls = counted_stage_tables(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(AdmissibilityViolation) as exc:
            fam.evaluate((J, J), (0.12j, 0.31j))
        messages.append(str(exc.value))
    assert len(calls) == 2
    assert messages[0] == messages[1]
