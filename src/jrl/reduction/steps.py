"""Reduction of an (n+1)-point trace to n-point traces.

The distinguished insertion is the last one (innermost in the trace,
largest Im w).  One step rewrites the trace as

    Z(x_1, ..., x_{n+1}) = [zero-mode term]
        + sum_{k=1}^{n} sum_{m>=0} s_k * K_{m+1}(w_{n+1} - w_k) * Z((v_{n+1}[m].)_k x_n)

with kernel family K chosen by branch:

  generic     K_{m+1} = Ptilde_{m+1}(w_diff, alpha z, tau), alpha the charge
              of v_{n+1}; no zero-mode term.
  lattice     alpha z = lam tau + mu: K_{m+1} = P_{m+1,lam}(w_diff, tau) plus
              the zero-mode term e(-w_{n+1} lam) Tr(o_lam(v_{n+1}) Y(...) ...).
  deformed    non-integer weight: K_{m+1} = P_{m+1}[theta; phi](w_diff, tau)
              with theta = zeta^{-alpha}, phi = e(wt).

In every branch the term of slot k carries the parity factor
(-1)^{p(v_{n+1}) (p(v_1) + ... + p(v_{k-1}))} of moving v_{n+1} past the
slots before it, and all right-hand terms carry the global sign
(-1)^{p(v_{n+1})} fixed by matching direct supertraces of fermion
two-point functions.

This right-hand side is written down once, as the stage table
`stage_rows`: `reduce_step` wraps its "simplest" rows with child requests
and `coboundary.stage_contributions` evaluates the rows of any variant on
a FunctionFamily.  The negative-mode rule and the identity residuals
sweep the same square-bracket images (`bracket_images`) and zero modes.
Every kernel value comes from `specfun_kernel(*kernel_spec(...), tr)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import (
    AdmissibilityViolation,
    DegenerateInsertion,
    DomainViolation,
    UnsupportedInsertion,
)
from ..specfun.points import AnnulusPoint, TwistPair, phase
from ..voa.algebra import VACUUM, AlgebraElement, AlgebraSpec
from ..voa.squarebracket import last_mode, shifted_square_bracket_image, square_bracket_image
from ..voa.trace import graded_trace, partition_function
from .types import (
    Branch,
    BranchSelector,
    CoefficientLedger,
    LedgerTerm,
    NPointRequest,
    element_weight_charge,
    npoint_oracle,
    specfun_kernel,
    vacuum_module,
)

VARIANTS = ("main", "simplest", "shifted", "super")
ONE = 1.0 + 0.0j


@dataclass(frozen=True)
class StepTerm:
    kind: str
    k: int
    m: int
    name: str
    args: dict
    scale: complex
    kernel: complex
    child: NPointRequest | None
    leaf_value: complex | None = None


@dataclass(frozen=True)
class StepResult:
    branch: Branch | None
    phi: complex
    theta: complex
    terms: tuple[StepTerm, ...]


def _select_branch(req: NPointRequest, alpha: float, integer_weight: bool) -> Branch | None:
    if not integer_weight:
        return None
    if req.params.shift is not None:
        lam, mu = req.params.shift
        return Branch(kind="lattice", lam=int(lam), mu=int(mu))
    return BranchSelector().classify(alpha, req.params.z, req.params.tau)


# ---------------------------------------------------------------------------
# Stage table
# ---------------------------------------------------------------------------


def bracket_images(
    spec: AlgebraSpec,
    v: AlgebraElement,
    wt: float,
    par: int,
    elements: tuple[AlgebraElement, ...],
    first: int = 0,
    last: int | None = None,
    shift: int | None = None,
    strict: bool = False,
):
    """Yield (k, m, v[m].x_k, sign) for every nonzero image, k from 1 and m rising.

    m runs from `first` to `last`, by default to `last_mode(spec, wt, x_k)`,
    past which v[m] annihilates x_k; with `shift` the lattice-shifted modes
    v[m]_shift are used.  sign = (-1)^{par (p(x_1) + ... + p(x_{k-1}))}.
    The parity of x_k is read after its images when a later sign needs it,
    and always when `strict`, so that a zero or inhomogeneous x_k raises."""
    vac = vacuum_module(spec)
    prefix = 0
    for k, x in enumerate(elements, start=1):
        sign = -1.0 if par and prefix % 2 else 1.0
        stop = last_mode(spec, wt, x) if last is None else last
        for m in range(first, stop + 1):
            if shift is None:
                img = square_bracket_image(vac, v, m, x)
            else:
                img = shifted_square_bracket_image(vac, v, m, shift, x)
            if not img.is_zero():
                yield k, m, img, sign
        if strict or (par and k < len(elements)):
            prefix += element_weight_charge(spec, x)[2]


def with_slot(req: NPointRequest, k: int, img: AlgebraElement) -> NPointRequest:
    """req with the element in slot k (from 1) replaced by img."""
    ins = req.insertions
    return req.with_insertions(ins[: k - 1] + ((img, ins[k - 1][1]),) + ins[k:])


def zero_mode_scalar(req: NPointRequest, v: AlgebraElement) -> complex | None:
    """o_0(v) as a number, when v is built from the vacuum and weight-one
    bosons, whose zero modes act on the sector by scalars; else None."""
    scalar = 0.0 + 0.0j
    for state, cv in v.terms.items():
        if state == VACUUM:
            scalar += cv  # o_0(1) = id
        elif req.spec.kind == "heisenberg" and len(state.boson) == 1 and state.boson[0][1] == 1:
            scalar += cv * req.sector[state.boson[0][0]]
        else:
            return None
    return scalar


def zero_mode_trace(req: NPointRequest, v: AlgebraElement, lam: int, insertions) -> complex:
    """Tr o_lam(v) Y(x_1, w_1) ... zeta^J q^L over the working module of req."""
    tw = req.params.trace_weights()
    return graded_trace(req.module(), list(insertions), req.params.tau, tw, zero_mode=(v, lam))


def kernel_spec(
    order: int,
    tau: complex,
    w: complex | None = None,
    branch: Branch | None = None,
    twist: TwistPair | None = None,
    az: complex = 0j,
) -> tuple[str, dict]:
    """(name, args) of a stage kernel for `specfun_kernel`.

    P_order at separation w, or E_order when w is None: deformed with a
    twist, plain without a branch, else twisted (lattice lam) or tilde
    (flux az = alpha z)."""
    if w is None:
        name, args = "eisenstein", {"m": order, "tau": tau}
    else:
        name, args = "weier_p", {"m": order, "w": w, "tau": tau}
    if twist is not None:
        args.update(theta=twist.theta, phi=twist.phi, lam=twist.lam)
        return name + "_deformed", args
    if branch is None:
        return name, args
    if branch.kind == "lattice":
        args["lam"] = branch.lam
        return name + "_twisted", args
    args["z"] = az
    return name + "_tilde", args


def stage_rows(variant: str, context: NPointRequest, vs: tuple, ws: tuple):
    """The stage table of one coboundary variant at insertions (vs, ws).

    vs/ws carry n+1 entries, the last distinguished; context supplies the
    spec, sector, flux, truncation and module (its insertions are not
    read).  Returns (branch, phi, theta, rows); rows lazily yields

        (kind, k, m, name, args, scale, kernel, image, leaf)

    for the term scale * kernel * child, where child is the ready trace
    `leaf` when it is not None, else the n-point function at vs[:-1] with
    slot k replaced by image (k = 0: unchanged).  The `main` admissibility
    check and the branch selection run before this returns."""
    if variant not in VARIANTS:
        raise DomainViolation(f"unknown variant {variant!r}")
    spec = context.spec
    tau = context.params.tau
    v_d, w_d = vs[-1], complex(ws[-1])
    base_vs, base_ws = vs[:-1], tuple(map(complex, ws[:-1]))
    wt_d, ch_d, par_d = element_weight_charge(spec, v_d)
    phi = phase(complex(wt_d))
    theta = phase(-ch_d * complex(context.params.z))
    integer_weight = abs(phi - 1.0) <= 1e-12
    global_sign = -1.0 if par_d else 1.0

    if variant == "main":
        for _, m, _, _ in bracket_images(spec, v_d, wt_d, 0, base_vs, first=1):
            raise AdmissibilityViolation(
                f"v[{m}].v_k is nonzero; the plain-coefficient variant does not apply"
            )
    if variant != "super":
        branch = _select_branch(context, ch_d, integer_weight)
    elif integer_weight and abs(theta - 1.0) <= 1e-12:
        # super zero-mode term is gated by delta_{theta,1} delta_{phi,1}
        branch = _select_branch(context, ch_d, True)
    else:
        branch = None

    def rows():
        lattice = branch is not None and branch.kind == "lattice"
        if lattice and (variant != "super" or branch.lam == 0):
            if variant == "shifted":
                val = zero_mode_trace(context, v_d, branch.mu, zip(base_vs, base_ws))
                yield "zero_trace", 0, 0, "one", {}, global_sign, ONE, None, val
            else:
                pref = global_sign * phase(-w_d * branch.lam)
                scalar = zero_mode_scalar(context, v_d) if branch.lam == 0 else None
                if scalar is not None:
                    yield "zero_scalar", 0, 0, "one", {}, pref * scalar, ONE, None, None
                else:
                    val = zero_mode_trace(context, v_d, branch.lam, zip(base_vs, base_ws))
                    yield "zero_trace", 0, 0, "one", {}, pref, ONE, None, val

        for w_k in base_ws:
            AnnulusPoint(w_d - w_k, tau)  # validates each separation, also of slots without images
        deformed = variant == "super" or branch is None
        twist = TwistPair.from_theta_phi(theta, phi) if deformed and base_vs else None
        if variant == "shifted":
            shift, k_branch, k_twist = (branch.lam if branch is not None else 0), None, None
        else:
            shift, k_branch, k_twist = None, branch, twist
        az = ch_d * complex(context.params.z)
        tr = context.truncation
        for k, m, img, sign in bracket_images(
            spec, v_d, wt_d, par_d, base_vs, shift=shift, strict=True
        ):
            name, args = kernel_spec(m + 1, tau.tau, w_d - base_ws[k - 1], k_branch, k_twist, az)
            scale = global_sign * sign
            yield "kernel", k, m, name, args, scale, specfun_kernel(name, args, tr), img, None

    return branch, phi, theta, rows()


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def reduce_step(req: NPointRequest) -> StepResult:
    """One reduction stage acting on the last insertion: the "simplest"
    stage rows, each with its child request."""
    if req.n < 1:
        raise UnsupportedInsertion("nothing to reduce in a zero-point request")
    base = req.insertions[:-1]
    vs, ws = zip(*req.insertions)
    branch, phi, theta, rows = stage_rows("simplest", req, vs, ws)
    terms: list[StepTerm] = []
    for kind, k, m, name, args, scale, kernel, img, leaf in rows:
        if leaf is not None:
            child = None
        elif k == 0:
            child = req.with_insertions(base)
        else:
            child = req.with_insertions(base[: k - 1] + ((img, base[k - 1][1]),) + base[k:])
        terms.append(StepTerm(kind, k, m, name, args, scale, kernel, child, leaf))
    return StepResult(branch=branch, phi=phi, theta=theta, terms=tuple(terms))


def reduce_full(req: NPointRequest) -> tuple[complex, CoefficientLedger]:
    """Full recursive reduction down to zero-point traces.

    Raises DegenerateInsertion when a stage with nonzero contributions
    sums to a value smaller than roundoff allows ratios to survive."""
    if req.n == 0:
        value = partition_function(req.module(), req.params.tau, req.params.trace_weights())
        return value, CoefficientLedger(n=0, value=value, terms=(), is_leaf=True)

    step = reduce_step(req)
    ledger_terms: list[LedgerTerm] = []
    total = 0.0 + 0.0j
    scale_sum = 0.0
    for t in step.terms:
        if t.child is not None:
            child_value, child_ledger = reduce_full(t.child)
        else:
            child_value, child_ledger = t.leaf_value, None
        contrib = t.scale * t.kernel * child_value
        total += contrib
        scale_sum += abs(contrib)
        ledger_terms.append(
            LedgerTerm(
                kind=t.kind,
                k=t.k,
                m=t.m,
                name=t.name,
                args=t.args,
                scale=t.scale,
                kernel=t.kernel,
                child=child_ledger,
                child_value=child_value,
            )
        )
    coeff_weight = sum(abs(t.scale * t.kernel) for t in step.terms)
    if coeff_weight > req.truncation.tol and scale_sum > 0.0 and abs(total) < 1e-12 * scale_sum:
        raise DegenerateInsertion(
            "reduction stage vanished although nonzero coefficients contributed"
        )
    return total, CoefficientLedger(
        n=req.n - 1, value=total, terms=tuple(ledger_terms), is_leaf=False
    )


def reduce_negative_mode(
    req: NPointRequest, v: AlgebraElement, l: int
) -> tuple[complex, CoefficientLedger]:
    """Evaluate Z((v[-l].x_1), x_2, ..., x_n) by pushing the negative mode out.

    generic branch (alpha z off the lattice):

        sum_{m>=0} (-1)^{m+1} C(m+l-1, m) Etilde_{m+l}(alpha z) Z(v[m].x_1, ...)
      + sum_{k>=2} sum_m (-1)^{l+1} C(m+l-1, m) Ptilde_{m+l}(w_1 - w_k, alpha z) Z(v[m].x_k ...)

    lattice branch adds the head trace
        (-1)^{l+1} (lam^{l-1}/(l-1)!) Tr(v(lam + wt - 1) Y(...) zeta^{J} q^{L})
    and replaces Etilde/Ptilde by E_{m+l,lam}/P_{m+l,lam}.

    Only even v is supported for n >= 2; the pairwise parity bookkeeping
    of odd insertions across other slots is not validated.
    """
    if l < 1:
        raise UnsupportedInsertion("negative-mode index must be >= 1")
    if req.n < 1:
        raise UnsupportedInsertion("need a slot to attach the negative mode")
    spec = req.spec
    wt_v, ch_v, par_v = element_weight_charge(spec, v)
    if par_v and req.n >= 2:
        raise UnsupportedInsertion("odd insertions with extra slots are not supported here")
    branch = _select_branch(req, ch_v, True) if abs(phase(complex(wt_v)) - 1.0) <= 1e-12 else None
    if branch is None:
        raise UnsupportedInsertion("negative-mode rules need an integer-weight insertion")
    tau = req.params.tau
    tr = req.truncation
    w_1 = complex(req.insertions[0][1])
    az = ch_v * complex(req.params.z)

    terms: list[LedgerTerm] = []
    total = 0.0 + 0.0j

    if branch.kind == "lattice":
        head_scale = (-1.0) ** (l + 1) * branch.lam ** (l - 1) / math.factorial(l - 1)
        if head_scale != 0.0:
            head = zero_mode_trace(req, v, branch.lam, req.insertions)
            total += head_scale * head
            terms.append(
                LedgerTerm("head_trace", 0, 0, "one", {}, complex(head_scale), ONE, None, head)
            )

    vs = tuple(u for u, _ in req.insertions)
    for k, m, img, _ in bracket_images(spec, v, wt_v, 0, vs):
        binom = math.comb(m + l - 1, m)
        if k == 1:  # E_{m+l}
            scale, w = (-1.0) ** (m + 1) * binom, None
        else:
            scale, w = (-1.0) ** (l + 1) * binom, w_1 - complex(req.insertions[k - 1][1])
        name, args = kernel_spec(m + l, tau.tau, w, branch, az=az)
        kernel = specfun_kernel(name, args, tr)
        child_value = npoint_oracle(with_slot(req, k, img))
        total += scale * kernel * child_value
        terms.append(
            LedgerTerm(
                "eisen" if k == 1 else "kernel",
                k, m, name, args, complex(scale), kernel, None, child_value,
            )
        )

    return total, CoefficientLedger(n=req.n, value=total, terms=tuple(terms), is_leaf=False)
