"""Coboundary maps built from the reduction coefficient tables.

A FunctionFamily is an n-point evaluable that can be re-evaluated with
modified insertion elements; coboundary_apply(variant, v, family)
produces the (n+1)-point family whose value at (vs, ws) is the
reduction right-hand side driven by the new insertion.  Composing two
applications gives the chain map whose residual chain_condition_residual
samples on a seeded grid.

All four variants are read from the one stage table `steps.stage_table`;
a stage contribution is one of its rows read at the positions by
`StageRow.at` and evaluated on the family, so "simplest" is the
reduce_step table by construction.  The table is free of the positions,
so a family made by coboundary_apply builds it once per tuple of
elements and keeps it for its own lifetime: the chain condition and the
probe, which evaluate one family on a grid of positions, take each
square-bracket image once per family.  Nothing is kept between families.

Variants:
  simplest  branch-selected kernels: the rows of reduce_step
  main      same table, but only admissible where v[l].v_k = 0 for l >= 1
  shifted   undeformed kernels P_{m+1}, lattice-shifted modes v[m]_h, and
            the mu-shifted zero mode
  super     deformed kernels P_{m+1}[theta; phi] with the displayed
            pairwise parity factor
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import DomainViolation, GridDegenerate
from ..voa.algebra import AlgebraElement
from .steps import VARIANTS, _check_separations, reduce_full, stage_table
from .types import NPointRequest, npoint_oracle


@dataclass(frozen=True)
class FunctionFamily:
    """n-point evaluable over modified insertion elements."""

    n: int
    base_elements: tuple[AlgebraElement, ...]
    fn: Callable[[tuple[AlgebraElement, ...], tuple[complex, ...]], complex]

    def evaluate(self, vs: Sequence[AlgebraElement], ws: Sequence[complex]) -> complex:
        vs = tuple(vs)
        ws = tuple(ws)
        if len(vs) != self.n or len(ws) != self.n:
            raise DomainViolation(f"family expects {self.n} insertions")
        return self.fn(vs, ws)


def oracle_family(req: NPointRequest) -> FunctionFamily:
    return FunctionFamily(
        n=req.n,
        base_elements=tuple(v for v, _ in req.insertions),
        fn=lambda vs, ws: npoint_oracle(req.with_insertions(tuple(zip(vs, ws)))),
    )


def reduction_family(req: NPointRequest) -> FunctionFamily:
    return FunctionFamily(
        n=req.n,
        base_elements=tuple(v for v, _ in req.insertions),
        fn=lambda vs, ws: reduce_full(req.with_insertions(tuple(zip(vs, ws))))[0],
    )


@dataclass(frozen=True)
class StageContribution:
    kind: str
    k: int
    m: int
    name: str
    value: complex


def stage_contributions(
    variant: str,
    context: NPointRequest,
    family: FunctionFamily,
    vs: tuple[AlgebraElement, ...],
    ws: tuple[complex, ...],
    tables: dict | None = None,
) -> list[StageContribution]:
    """Contributions of one coboundary stage at insertion data (vs, ws):
    the stage rows of `variant`, each child evaluated on `family`.

    vs/ws carry n+1 entries; the last is the distinguished insertion.
    `tables`, where given, holds the stage tables of earlier calls with the
    same variant, context and family, keyed by the element keys of vs: a
    table found there is read after the separation checks alone, and a
    table built here joins it once it has built without raising."""
    ws = tuple(map(complex, ws))
    if tables is None:
        rows = stage_table(variant, context, vs, ws)
    else:
        key = tuple(v.key() for v in vs)
        rows = tables.get(key)
        if rows is None:
            rows = tables[key] = stage_table(variant, context, vs, ws)
        else:
            _check_separations(ws, context.params.tau)
    out: list[StageContribution] = []
    for row in rows:
        scale, kernel, _, child, leaf = row.at(context, vs, ws)
        if leaf is None:
            leaf = family.evaluate(child, ws[:-1])
        out.append(StageContribution(row.kind, row.k, row.m, row.name, scale * kernel * leaf))
    return out


def coboundary_apply(
    variant: str,
    v_next: AlgebraElement,
    family: FunctionFamily,
    context: NPointRequest,
) -> FunctionFamily:
    """The (n+1)-point family (delta^n family) with v_next in the new slot.

    The family keeps the stage table of each element tuple it is evaluated
    at, so a later evaluation at new positions takes no square-bracket
    image; the tables live as long as the family does."""
    tables: dict = {}

    def fn(vs: tuple[AlgebraElement, ...], ws: tuple[complex, ...]) -> complex:
        contribs = stage_contributions(variant, context, family, vs, ws, tables)
        return sum((c.value for c in contribs), 0.0 + 0.0j)

    return FunctionFamily(
        n=family.n + 1,
        base_elements=family.base_elements + (v_next,),
        fn=fn,
    )


def sample_grid(
    n_points: int,
    tau: complex,
    n_samples: int = 8,
    seed: int = 0x4A43,
) -> list[tuple[complex, ...]]:
    """Deterministic nested-position configurations for probes."""
    rng = np.random.default_rng(seed)
    grid: list[tuple[complex, ...]] = []
    for _ in range(n_samples):
        fracs = np.sort(rng.uniform(0.08, 0.92, size=n_points))
        # keep neighbours separated so positions stay distinct
        for i in range(1, len(fracs)):
            if fracs[i] - fracs[i - 1] < 0.02:
                fracs[i] = fracs[i - 1] + 0.02
        fracs = np.clip(fracs, 0.05, 0.95)
        res = rng.uniform(-0.45, 0.45, size=n_points)
        grid.append(tuple(complex(re, fr * tau.imag) for re, fr in zip(res, fracs)))
    return grid


def chain_condition_residual(
    variant: str,
    v1: AlgebraElement,
    v2: AlgebraElement,
    family: FunctionFamily,
    context: NPointRequest,
    n_samples: int = 8,
    seed: int = 0x4A43,
) -> float:
    """max_s |(delta(v2) delta(v1) family)(ws_s)| / max(|family|, eps)."""
    once = coboundary_apply(variant, v1, family, context)
    twice = coboundary_apply(variant, v2, once, context)
    tau = context.params.tau.tau
    grid = sample_grid(family.n + 2, tau, n_samples=n_samples, seed=seed)
    num = 0.0
    den = 0.0
    for ws in grid:
        base_ws = ws[: family.n]
        if family.n:
            den = max(den, abs(family.evaluate(family.base_elements, base_ws)))
        vs = family.base_elements + (v1, v2)
        num = max(num, abs(twice.evaluate(vs, ws)))
    if family.n == 0:
        den = abs(family.evaluate((), ()))
    return num / max(den, 1e-12)


RANK_THRESHOLD = 1e-8  # relative singular-value cut of the probe's numerical rank


@dataclass(frozen=True)
class ProbeResult:
    rank: int
    kernel_dim: int
    singular_values: tuple[float, ...]


def cohomology_probe(
    variant: str,
    v_next: AlgebraElement,
    candidates: Sequence[FunctionFamily],
    context: NPointRequest,
    grid: Sequence[tuple[complex, ...]],
) -> ProbeResult:
    """Numerical rank of the coboundary applied to candidate families.

    M[i, j] = (delta(v_next) candidate_j)(grid_i); the kernel dimension is
    len(candidates) - rank, the rank counting the singular values above
    RANK_THRESHOLD times the largest."""
    if not candidates:
        raise GridDegenerate("no candidate families")
    n = candidates[0].n
    if any(c.n != n for c in candidates):
        raise GridDegenerate("candidate families disagree on n")
    rows = [tuple(complex(w) for w in ws) for ws in grid]
    if len(rows) < len(candidates):
        raise GridDegenerate("fewer grid configurations than candidates")
    if len(set(rows)) != len(rows):
        raise GridDegenerate("repeated grid configurations")
    if any(len(ws) != n + 1 for ws in rows):
        raise GridDegenerate(f"grid configurations must carry {n + 1} positions")

    mat = np.empty((len(rows), len(candidates)), dtype=complex)
    for j, cand in enumerate(candidates):
        image = coboundary_apply(variant, v_next, cand, context)
        vs = cand.base_elements + (v_next,)
        for i, ws in enumerate(rows):
            mat[i, j] = image.evaluate(vs, ws)
    sing = np.linalg.svd(mat, compute_uv=False)
    smax = float(sing[0]) if len(sing) else 0.0
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sing > RANK_THRESHOLD * smax))
    return ProbeResult(
        rank=rank,
        kernel_dim=len(candidates) - rank,
        singular_values=tuple(float(s) for s in sing),
    )
