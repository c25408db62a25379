"""Request objects, branch selection, and the coefficient ledger."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

from ..errors import BranchUnresolved, DomainViolation, UnsupportedInsertion
from ..specfun import specfun_kernel
from ..specfun.points import ModularPoint, Truncation
from ..voa.algebra import (
    MAX_LEVEL_CAP,
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModuleSpace,
    enumerate_basis,
    state_charge,
    state_level,
)
from ..voa.trace import DEFAULT_HEADROOM, TraceWeights, npoint_trace, working_module


@dataclass(frozen=True)
class JacobiParams:
    """Flux and trace-grading parameters of a torus trace.

    zeta = e(z) is the flux; supertrace inserts the parity sign;
    include_c_shift uses q^{L(0) - c/24}; charge_weight_shift adds the
    given multiple of the charge to the weight exponent (charge-regraded
    traces).  z and charge_weight_shift must be finite."""

    z: complex
    tau: ModularPoint
    supertrace: bool = False
    include_c_shift: bool = False
    charge_weight_shift: float = 0.0

    def __post_init__(self):
        if not (cmath.isfinite(self.z) and math.isfinite(self.charge_weight_shift)):
            got = f"{self.z}, {self.charge_weight_shift}"
            raise DomainViolation(f"z and charge_weight_shift must be finite, got {got}")

    def trace_weights(self) -> TraceWeights:
        return TraceWeights(
            flux_z=self.z,
            supertrace=self.supertrace,
            include_c_shift=self.include_c_shift,
            charge_weight_shift=self.charge_weight_shift,
        )


@dataclass(frozen=True)
class Branch:
    kind: str  # "generic" | "lattice"
    lam: int = 0
    mu: int = 0


LATTICE_TOL = 1e-9
SUSPICION_BAND = 1e-5


def select_branch(alpha: float, z: complex, tau: ModularPoint) -> Branch:
    """Classify the flux alpha*z of a distinguished insertion.

    Writing alpha z = lam tau + mu in lattice coordinates, a distance to
    the nearest integer pair at most LATTICE_TOL selects the lattice
    branch.  Distances inside the wider SUSPICION_BAND are rejected with
    BranchUnresolved rather than guessed; beyond the band the generic
    branch applies."""
    az = alpha * complex(z)
    t = tau.tau
    lam_f = az.imag / t.imag
    mu_f = az.real - lam_f * t.real
    lam_r = round(lam_f)
    mu_r = round(mu_f)
    d = math.hypot(lam_f - lam_r, mu_f - mu_r)
    if d <= LATTICE_TOL:
        return Branch(kind="lattice", lam=lam_r, mu=mu_r)
    if d <= SUSPICION_BAND:
        raise BranchUnresolved(
            f"flux {az} sits {d:.2e} from the lattice, inside the suspicion band"
        )
    return Branch(kind="generic")


@dataclass(frozen=True)
class NPointRequest:
    """An n-point trace to evaluate: ordered insertions (v_i, w_i) with
    0 < Im w_1 < ... < Im w_n < Im tau, over the sector Fock module of
    `spec` truncated at level `cap`.  The sector entries and the
    coefficients of the elements must be finite."""

    spec: AlgebraSpec
    sector: tuple[float, ...]
    cap: float
    insertions: tuple[tuple[AlgebraElement, complex], ...]
    params: JacobiParams
    truncation: Truncation = field(default_factory=Truncation)
    headroom: int = DEFAULT_HEADROOM

    def __post_init__(self):
        if not self.cap <= MAX_LEVEL_CAP:
            raise DomainViolation(f"level cap must be at most {MAX_LEVEL_CAP}, got {self.cap}")
        if not all(map(math.isfinite, self.sector)):
            raise DomainViolation(f"sector entries must be finite, got {self.sector}")
        for v, _ in self.insertions:
            for state in v.terms:
                if any(not 0 <= f < self.spec.rank for f, _ in state.boson):
                    raise DomainViolation(
                        f"boson flavor in {state.boson} is out of range for rank {self.spec.rank}"
                    )
        for v, _ in self.insertions:
            for state, c in v.terms.items():
                labels = [l for _, l in state.boson] + list(state.ferm_b + state.ferm_c)
                if labels and min(labels) < 1:
                    raise DomainViolation(f"creator labels must be at least 1, got {state}")
                if not cmath.isfinite(c):
                    raise DomainViolation(f"insertion coefficients must be finite, got {c}")
        ws = [complex(w) for _, w in self.insertions]
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                d = ws[i] - ws[j]
                if abs(d.imag) < 1e-12 and abs(d.real - round(d.real)) < 1e-12:
                    raise DomainViolation(
                        f"positions {ws[i]} and {ws[j]} coincide modulo the lattice"
                    )

    @property
    def n(self) -> int:
        return len(self.insertions)

    def module(self) -> ModuleSpace:
        return _cached_working_module(self.spec, self.sector, self.cap, self.headroom)

    def with_insertions(
        self, insertions: tuple[tuple[AlgebraElement, complex], ...]
    ) -> "NPointRequest":
        return replace(self, insertions=insertions)


@lru_cache(maxsize=64)
def _cached_working_module(
    spec: AlgebraSpec, sector: tuple[float, ...], cap: float, headroom: int
) -> ModuleSpace:
    return working_module(spec, sector, cap, headroom)


@lru_cache(maxsize=64)
def vacuum_module(spec: AlgebraSpec, cap: float = 6.0) -> ModuleSpace:
    """Small vacuum-sector module used for square-bracket images."""
    sector = tuple(0.0 for _ in range(spec.rank)) if spec.kind == "heisenberg" else ()
    return enumerate_basis(spec, sector, cap)


def npoint_oracle(req: NPointRequest) -> complex:
    """Direct Fock-space evaluation of the requested trace."""
    return npoint_trace(req.module(), req.insertions, req.params.tau, req.params.trace_weights())


def _grade(spec: AlgebraSpec, state: BasisState) -> tuple[float, float, int]:
    """(weight, charge, parity) of a vacuum-module basis state."""
    vac_sector = tuple(0.0 for _ in range(spec.rank)) if spec.kind == "heisenberg" else ()
    return (
        round(state_level(spec, state) * 2) / 2.0,
        state_charge(spec, vac_sector, state),
        state.parity,
    )


def element_weight_charge(spec: AlgebraSpec, v: AlgebraElement) -> tuple[float, float, int]:
    """(weight, charge, parity) of a homogeneous vacuum-module element."""
    if v.is_zero():
        raise UnsupportedInsertion("zero insertion has no defined weight")
    grades = {_grade(spec, state) for state in v.terms}
    if len(grades) != 1:
        raise UnsupportedInsertion("insertion must be homogeneous in weight, charge, parity")
    return grades.pop()


def homogeneous_parts(spec: AlgebraSpec, v: AlgebraElement) -> tuple[AlgebraElement, ...]:
    """v split into parts homogeneous in (weight, charge, parity), in the
    order of those grades, each keeping v's term order; (v,) when v is
    homogeneous already.  An n-point function is linear in each slot, so
    it is the sum of its values at the parts."""
    parts: dict[tuple, dict] = {}
    for state, c in v.terms.items():
        parts.setdefault(_grade(spec, state), {})[state] = c
    if len(parts) < 2:
        return (v,)
    return tuple(AlgebraElement(parts[g]) for g in sorted(parts))


# ---------------------------------------------------------------------------
# Coefficient ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerTerm:
    """One contribution of a reduction stage.

    contribution = scale * kernel * child_value, where `kernel` is the
    special-function value recomputable from (name, args) and `scale`
    collects parity signs, binomials, and exponential prefactors."""

    kind: str  # "kernel" | "zero_scalar" | "zero_trace"
    k: int
    m: int
    name: str
    args: dict
    scale: complex
    kernel: complex
    child: "CoefficientLedger | None"
    child_value: complex

    @property
    def contribution(self) -> complex:
        return self.scale * self.kernel * self.child_value


@dataclass(frozen=True, eq=False, slots=True)
class CoefficientLedger:
    """Evaluation tree of a full reduction.

    Leaves are zero-point functions (or directly evaluated traces); every
    internal node stores its stage terms ordered by (k, m).  reduce_full
    returns views of its reduction plan, which build `terms` on each read;
    ledgers compare equal when their n, value, is_leaf and terms do."""

    n: int
    value: complex
    terms: tuple[LedgerTerm, ...]
    is_leaf: bool

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientLedger):
            return NotImplemented
        return (self.n, self.value, self.is_leaf, self.terms) == (
            other.n, other.value, other.is_leaf, other.terms
        )

    def reevaluate(self, tr: Truncation) -> complex:
        """Recompute the value with fresh kernel evaluations, reusing the
        stored leaf traces."""
        if self.is_leaf:
            return self.value
        total = 0.0 + 0.0j
        for t in self.terms:
            kernel = specfun_kernel(t.name, t.args, tr)
            child_value = t.child.reevaluate(tr) if t.child is not None else t.child_value
            total += t.scale * kernel * child_value
        return total

    def walk(self):
        yield self
        for t in self.terms:
            if t.child is not None:
                yield from t.child.walk()
