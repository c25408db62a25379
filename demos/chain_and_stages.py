"""Stage decomposition, chain condition, and stage-sum sensitivity.

A reduction step splits an (n+1)-point function into named stage
contributions over the n-point family.  The chain condition says two
successive extensions commute up to the bracket term; the stage-sum check
says the decomposition reassembles the direct value, and perturbing one
stage coefficient must break it visibly.
"""

from jrl.reduction import (
    JacobiParams,
    NPointRequest,
    chain_condition_residual,
    kz_residual,
    oracle_family,
    reduce_full,
    reduction_family,
    stage_contributions,
)
from jrl.specfun import ModularPoint
from jrl.voa import AlgebraSpec, current_state, oscillator_state

TAU = ModularPoint(0.5j)
Z0 = 0.23 - 0.11j


def main():
    heis = AlgebraSpec(kind="heisenberg", rank=1)
    J = current_state(heis)
    base = NPointRequest(
        spec=heis,
        sector=(0.6,),
        cap=8.0,
        insertions=((J, 0.12j),),
        params=JacobiParams(z=Z0, tau=TAU),
    )

    fam = reduction_family(base)
    vs, ws = (J, J), (0.12j, 0.31j)
    contribs = stage_contributions("simplest", base, fam, vs, ws)
    print("stage contributions for the extended two-current function:")
    for c in contribs:
        print(f"  {c.kind:<10s} k={c.k} m={c.m} value={c.value:+.6f}")
    print(f"  stage sum = {sum(c.value for c in contribs):+.6f}")

    clean = kz_residual(base, J, 0.31j)
    # the same stage sum with its dominant contribution scaled by 1.01
    lhs, _ = reduce_full(base.with_insertions(base.insertions + ((J, 0.31j),)))
    values = [c.value for c in contribs]
    top = max(range(len(values)), key=lambda i: abs(values[i]))
    values[top] *= 1.01
    broken = abs(lhs - sum(values)) / max(1.0, abs(lhs))
    print(f"stage-sum residual: clean {clean:.3e}, dominant stage scaled by 1.01: {broken:.3e}")

    heis2 = AlgebraSpec(kind="heisenberg", rank=2)
    base2 = NPointRequest(
        spec=heis2,
        sector=(0.7, 0.0),
        cap=6.0,
        insertions=(),
        params=JacobiParams(z=Z0, tau=TAU),
    )
    res = chain_condition_residual(
        "simplest",
        oscillator_state("a", 1, flavor=0),
        oscillator_state("a", 1, flavor=1),
        oracle_family(base2),
        base2,
        n_samples=8,
        seed=0x4A43,
    )
    print(f"chain condition, rank-2 cross flavor, 8-point grid: residual {res:.3e}")


if __name__ == "__main__":
    main()
