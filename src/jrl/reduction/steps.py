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

This right-hand side is written down once, as the position-free stage
table `stage_table`, and a row is read at the positions by `StageRow.at`:
`reduce_step` reads the "simplest" rows, each with its child request,
and `coboundary.stage_contributions` reads the rows of any variant on a
FunctionFamily.  `reduce_full` builds the whole tree of "simplest" tables
once per request family, as a `ReductionPlan`, and evaluates it at each
request's positions.  The negative-mode rule and the identity residuals
read the same square-bracket images (`bracket_images`) and zero modes:
the negative-mode rule sweeps v[m].x_k over m, the identities read one
lattice-shifted image v[0]_beta.x_k per slot, and the "shifted" rows
take v[m]_lam.x_k, all from the one `square_bracket_image`.
Every zero-mode trace, the leaf of a zero row, is a cached `TraceTensor`
evaluated at the positions (`zero_mode_trace`).
Every kernel value comes from `specfun_kernel(*kernel_spec(...), tr)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

from ..errors import (
    AdmissibilityViolation,
    DegenerateInsertion,
    DomainViolation,
    UnsupportedInsertion,
)
from ..specfun.points import AnnulusPoint, TwistPair, phase
from ..voa.algebra import VACUUM, AlgebraElement, AlgebraSpec, state_level
from ..voa.squarebracket import last_mode, square_bracket_image
from ..voa.trace import TraceTensor, partition_function, trace_tensor
from .types import (
    Branch,
    CoefficientLedger,
    LedgerTerm,
    NPointRequest,
    _cached_working_module,
    element_weight_charge,
    homogeneous_parts,
    npoint_oracle,
    select_branch,
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


# ---------------------------------------------------------------------------
# Stage table
# ---------------------------------------------------------------------------


def _bracket_image(spec: AlgebraSpec, v: AlgebraElement, m: int, x: AlgebraElement, shift):
    """v[m]_shift.x, which is v[m].x at shift 0, on a vacuum module that
    holds x and the image.

    v(j) lowers the level by j - wt + 1 with j >= m, so the image lies at
    most wt - 1 - m levels above the top level of x; the cap is the
    smallest integer that covers x and that level, so the round modes of
    v emit only the monomials that can reach x."""
    top = max((state_level(spec, s) for s in x.terms), default=0.0)
    wt = max((state_level(spec, s) for s in v.terms), default=0.0)
    vac = vacuum_module(spec, float(math.ceil(top + max(wt - 1 - m, 0))))
    return square_bracket_image(vac, v, m, x, shift)


def bracket_images(
    spec: AlgebraSpec,
    v: AlgebraElement,
    wt: float,
    par: int,
    elements: tuple[AlgebraElement, ...],
    last: int | None = None,
    shift: float = 0,
    strict: bool = False,
):
    """Yield (k, m, v[m]_shift.x_k, sign) for every nonzero image, k from 1
    and m rising; at shift 0 the images are v[m].x_k.

    m runs from 0 to `last`, by default to `last_mode(spec, wt, x_k)`,
    past which v[m]_shift annihilates x_k.
    sign = (-1)^{par (p(x_1) + ... + p(x_{k-1}))}.  The parity of x_k is
    read after its images when a later sign needs it, and always when
    `strict`, so that a zero or inhomogeneous x_k raises."""
    prefix = 0
    for k, x in enumerate(elements, start=1):
        sign = -1.0 if par and prefix % 2 else 1.0
        stop = last_mode(spec, wt, x) if last is None else last
        for m in range(stop + 1):
            img = _bracket_image(spec, v, m, x, shift)
            if not img.is_zero():
                yield k, m, img, sign
        if strict or (par and k < len(elements)):
            prefix += element_weight_charge(spec, x)[2]


def _slot(items: tuple, k: int, x) -> tuple:
    """items with the entry in slot k (from 1) replaced by x."""
    return items[: k - 1] + (x,) + items[k:]


def with_slot(req: NPointRequest, k: int, img: AlgebraElement) -> NPointRequest:
    """req with the element in slot k (from 1) replaced by img."""
    ins = req.insertions
    return req.with_insertions(_slot(ins, k, (img, ins[k - 1][1])))


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


TENSOR_CACHE_SIZE = 64


@lru_cache(maxsize=TENSOR_CACHE_SIZE)
def _cached_tensor(module_key: tuple, keys: tuple, v_key: tuple, lam: int) -> TraceTensor:
    """The trace tensor of Tr o_lam(v) Y(x_1, .) ... on the working module
    of module_key = (spec, sector, cap, headroom), with the keys of the
    x_i and of v.  The key holds no tau, flux or position, so one tensor
    serves every evaluation of its family; the cache holds the last
    TENSOR_CACHE_SIZE families."""
    elements = tuple(AlgebraElement(dict(key)) for key in keys)
    module = _cached_working_module(*module_key)
    return trace_tensor(module, elements, (AlgebraElement(dict(v_key)), lam))


def zero_mode_trace(req: NPointRequest, v: AlgebraElement, lam: int, insertions) -> complex:
    """Tr o_lam(v) Y(x_1, w_1) ... zeta^J q^L over the working module of req.

    This is the leaf of the stage zero rows, the plans' zero rows,
    `reduce_negative_mode` and `identity_rec1`.  It reads the cached
    tensor of (module, x_1 ... x_n, v, lam) and evaluates it at the tau,
    flux and positions of the call, so only a family's first call walks
    the mode paths."""
    insertions = tuple(insertions)
    module_key = (req.spec, req.sector, req.cap, req.headroom)
    keys = tuple(x.key() for x, _ in insertions)
    tensor = _cached_tensor(module_key, keys, v.key(), lam)
    ws = [w for _, w in insertions]
    return tensor.evaluate(req.params.tau, req.params.trace_weights(), ws)


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


@dataclass(frozen=True)
class StageRow:
    """One row of a stage table, free of the positions.

    Its term is scale * kernel * child.  A "kernel" row's kernel is
    specfun_kernel(name, args) with args["w"] = w_d - w_k, k its slot and
    d the distinguished one; its child is the n-point function at vs[:-1]
    with slot k replaced by `image`.  A zero row ("zero_scalar",
    "zero_trace") has kernel 1 and its scale times e(-w_d phase_lam) when
    phase_lam is set, times `scalar` when that is set; its child is then
    the n-point function at vs[:-1], else the zero-mode trace
    Tr o_trace_lam(v_d) Y(x_1, w_1) ... at the positions."""

    kind: str
    k: int
    m: int
    name: str
    args: dict
    scale: complex
    image: AlgebraElement | None = None
    phase_lam: int | None = None
    scalar: complex | None = None
    trace_lam: int | None = None

    def zero_term(self, context: NPointRequest, vs: tuple, ws: tuple):
        """(scale, leaf) of a zero row at complex positions ws; leaf is the
        zero-mode trace, or None where the child is the n-point function."""
        scale = self.scale
        if self.phase_lam is not None:
            scale = scale * phase(-ws[-1] * self.phase_lam)
        if self.scalar is not None:
            return scale * self.scalar, None
        return scale, zero_mode_trace(context, vs[-1], self.trace_lam, zip(vs[:-1], ws[:-1]))

    def kernel_args(self, ws: tuple) -> dict:
        """The kernel arguments at complex positions ws."""
        args = dict(self.args)
        args["w"] = ws[-1] - ws[self.k - 1]
        return args

    def at(self, context: NPointRequest, vs: tuple, ws: tuple):
        """(scale, kernel, args, child, leaf) of the row at elements vs and
        complex positions ws: its term is scale * kernel * leaf, or, where
        leaf is None, scale * kernel times the n-point function of the
        elements child at ws[:-1]."""
        if self.kind == "kernel":
            args = self.kernel_args(ws)
            kernel = specfun_kernel(self.name, args, context.truncation)
            return self.scale, kernel, args, _slot(vs[:-1], self.k, self.image), None
        scale, leaf = self.zero_term(context, vs, ws)
        return scale, ONE, self.args, vs[:-1] if leaf is None else None, leaf


def _check_separations(ws: tuple, tau) -> None:
    """Validate w_d - w_k of every slot k, also of slots without images."""
    for w_k in ws[:-1]:
        AnnulusPoint(ws[-1] - w_k, tau)


def stage_table(variant: str, context: NPointRequest, vs: tuple, ws: tuple):
    """The position-free stage table of one coboundary variant at insertion
    elements vs (n+1 entries, the last distinguished).

    context supplies the spec, sector and flux (its insertions are not
    read).  Returns the rows, a tuple of StageRow: the zero rows first,
    then the kernel rows by (k, m).  The branch selection runs here, then
    the check of the separations w_d - w_k at the complex positions ws,
    before any image is taken.  A `main` table raises
    AdmissibilityViolation at its first kernel row with m >= 1: that
    variant applies only where v_d[m].x_k = 0 for m >= 1."""
    if variant not in VARIANTS:
        raise DomainViolation(f"unknown variant {variant!r}")
    spec = context.spec
    tau = context.params.tau
    v_d, base_vs = vs[-1], vs[:-1]
    wt_d, ch_d, par_d = element_weight_charge(spec, v_d)
    phi = phase(complex(wt_d))
    theta = phase(-ch_d * complex(context.params.z))
    integer_weight = wt_d % 1 == 0
    global_sign = -1.0 if par_d else 1.0

    if variant != "super":
        branch = select_branch(ch_d, context.params.z, tau) if integer_weight else None
    elif integer_weight and abs(theta - 1.0) <= 1e-12:
        # super zero-mode term is gated by delta_{theta,1} delta_{phi,1}
        branch = select_branch(ch_d, context.params.z, tau)
    else:
        branch = None
    _check_separations(ws, tau)

    rows: list[StageRow] = []
    lattice = branch is not None and branch.kind == "lattice"
    if lattice and (variant != "super" or branch.lam == 0):
        if variant == "shifted":
            rows.append(StageRow("zero_trace", 0, 0, "one", {}, global_sign, trace_lam=branch.mu))
        else:
            scalar = zero_mode_scalar(context, v_d) if branch.lam == 0 else None
            if scalar is None:
                kind, trace_lam = "zero_trace", branch.lam
            else:
                kind, trace_lam = "zero_scalar", None
            rows.append(
                StageRow(kind, 0, 0, "one", {}, global_sign, phase_lam=branch.lam, scalar=scalar,
                         trace_lam=trace_lam)
            )

    deformed = variant == "super" or branch is None
    twist = TwistPair.from_theta_phi(theta, phi) if deformed and base_vs else None
    if variant == "shifted":
        shift, k_branch, k_twist = (branch.lam if branch is not None else 0), None, None
    else:
        shift, k_branch, k_twist = 0, branch, twist
    az = ch_d * complex(context.params.z)
    images = bracket_images(spec, v_d, wt_d, par_d, base_vs, shift=shift, strict=True)
    for k, m, img, sign in images:
        if m and variant == "main":
            raise AdmissibilityViolation(
                f"v[{m}].v_k is nonzero; the plain-coefficient variant does not apply"
            )
        # w = 0 holds the place of the separation, filled in at the positions
        name, args = kernel_spec(m + 1, tau.tau, 0j, k_branch, k_twist, az)
        rows.append(StageRow("kernel", k, m, name, args, global_sign * sign, image=img))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Reduction plans
# ---------------------------------------------------------------------------


class _PlanNode:
    """The reduction of one tuple of elements: its "simplest" stage rows,
    each with the plan of its child (None for a zero-mode trace), or the
    zero-point value at n = 0.

    `size` counts the numbers an evaluation records for the subtree: per
    row its kernel (a zero row: its scale), the child's records and the
    child's value.  Rows with an inhomogeneous image come once per
    homogeneous part of it.  The positions ws of the build only serve the
    separation checks of `stage_table`."""

    __slots__ = ("n", "vs", "rows", "leaf", "size")

    def __init__(self, family: NPointRequest, vs: tuple, ws: tuple, nodes: dict, leaf_value):
        self.n = len(vs)
        self.vs = vs
        self.leaf = leaf_value() if not vs else None
        rows = []
        for row in stage_table("simplest", family, vs, ws[: self.n]) if vs else ():
            # (row, child node, kernel key): the kernel key names the kernel
            # of a kernel row, which is the same wherever (name, args, d, k) are
            if row.kind == "kernel":
                base = vs[:-1]
                kkey = (row.name, self.n, row.k, tuple(row.args.items()))
                for part in homogeneous_parts(family.spec, row.image):
                    child = _node(family, _slot(base, row.k, part), ws, nodes, leaf_value)
                    rows.append((row, child, kkey))
            elif row.trace_lam is not None:
                rows.append((row, None, None))
            else:
                rows.append((row, _node(family, vs[:-1], ws, nodes, leaf_value), None))
        self.rows = tuple(rows)
        self.size = sum(2 + (child.size if child is not None else 0) for _, child, _ in rows)


def _node(family: NPointRequest, vs: tuple, ws: tuple, nodes: dict, leaf_value) -> _PlanNode:
    """The node of vs, shared by every occurrence in one plan."""
    key = tuple(v.key() for v in vs)
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = _PlanNode(family, vs, ws, nodes, leaf_value)
    return node


class ReductionPlan:
    """The reduce_full tree of one request family: everything but the
    positions.

    The family is a request without insertions (spec, sector, cap,
    headroom, flux, tau, truncation), together with the insertion
    elements.  The plan holds the branch, the square-bracket images, the
    child structure and the zero-point value; `evaluate` adds the kernels
    at w_d - w_k, the position-dependent zero rows, the separation checks
    and the degeneracy test, in the order and with the arithmetic of a
    direct recursion, so its values are the same bit for bit."""

    __slots__ = ("family", "vs", "root")

    def __init__(self, family: NPointRequest, vs: tuple[AlgebraElement, ...]):
        self.family = family
        self.vs = vs
        self.root = None

    def _build(self, ws: tuple) -> _PlanNode:
        family, params = self.family, self.family.params
        # one zero-point function per plan, computed when a leaf needs it:
        # every leaf has the family's module, tau and trace weights
        leaf_value = cache(
            lambda: partition_function(family.module(), params.tau, params.trace_weights())
        )
        return _node(family, self.vs, ws, {}, leaf_value)

    def evaluate(self, ws) -> tuple[complex, CoefficientLedger]:
        """(value, ledger) of the reduction at positions ws, one per insertion.

        The first evaluation builds the tree, stage by stage as a direct
        recursion meets them, so a request with bad positions raises where
        that recursion would; a build that raises leaves no tree behind."""
        ws = tuple(map(complex, ws))
        if len(ws) != len(self.vs):
            raise DomainViolation(f"plan expects {len(self.vs)} positions, got {len(ws)}")
        if self.root is None:
            self.root = self._build(ws)
        if not ws:
            leaf = self.root.leaf
            return leaf, CoefficientLedger(n=0, value=leaf, terms=(), is_leaf=True)
        out: list = []
        value = _evaluate(self.root, ws, self.family, {}, out)
        return value, _PlanLedger.view(self.root, ws, tuple(out), 0, value)


def _evaluate(node: _PlanNode, ws: tuple, family: NPointRequest, kernels: dict, out: list):
    """The value of node at ws[:node.n], recording into out; kernels
    memoises the kernel values of one evaluation."""
    if node.leaf is not None:
        return node.leaf
    ws_n = ws[: node.n]
    tr = family.truncation
    # as in a direct stage: the zero rows (they come first), the
    # separations, then the kernels, each distinct one once per evaluation
    xs: list = []
    leaves: list = []
    for row, _, kkey in node.rows:
        if kkey is not None:
            break
        scale, leaf = row.zero_term(family, node.vs, ws_n)
        xs.append(scale)
        leaves.append(leaf)
    _check_separations(ws_n, family.params.tau)
    for row, _, kkey in node.rows[len(xs) :]:
        kernel = kernels.get(kkey)
        if kernel is None:
            kernel = kernels[kkey] = specfun_kernel(row.name, row.kernel_args(ws_n), tr)
        xs.append(kernel)
        leaves.append(None)

    total = 0.0 + 0.0j
    scale_sum = 0.0
    coeff_weight = 0
    for (row, child, kkey), x, leaf in zip(node.rows, xs, leaves):
        scale, kernel = (x, ONE) if kkey is None else (row.scale, x)
        out.append(x)
        child_value = leaf if child is None else _evaluate(child, ws, family, kernels, out)
        out.append(child_value)
        contrib = scale * kernel * child_value
        total += contrib
        scale_sum += abs(contrib)
        coeff_weight += abs(scale * kernel)
    if coeff_weight > tr.tol and scale_sum > 0.0 and abs(total) < 1e-12 * scale_sum:
        raise DegenerateInsertion(
            "reduction stage vanished although nonzero coefficients contributed"
        )
    return total


class _PlanLedger(CoefficientLedger):
    """A CoefficientLedger as a view of a plan node at one position: the
    positions and the numbers the evaluation recorded, from which `terms`
    is built on each read (the terms slot stays empty)."""

    __slots__ = ("_node", "_ws", "_record", "_start")

    @classmethod
    def view(cls, node: _PlanNode, ws: tuple, record: tuple, start: int, value: complex):
        self = object.__new__(cls)
        fields = {"n": node.n - 1, "value": value, "is_leaf": False,
                  "_node": node, "_ws": ws, "_record": record, "_start": start}
        for name, x in fields.items():
            object.__setattr__(self, name, x)
        return self

    def __getattr__(self, name: str):
        if name != "terms":
            raise AttributeError(name)
        node, ws, record = self._node, self._ws[: self._node.n], self._record
        at = self._start
        terms = []
        for row, child, kkey in node.rows:
            x = record[at]
            end = at + 1 + (child.size if child is not None else 0)
            child_value = record[end]
            if child is None:
                ledger = None
            elif child.leaf is not None:
                ledger = CoefficientLedger(n=0, value=child_value, terms=(), is_leaf=True)
            else:
                ledger = _PlanLedger.view(child, self._ws, record, at + 1, child_value)
            if kkey is None:
                scale, kernel, args = x, ONE, row.args
            else:
                scale, kernel, args = row.scale, x, row.kernel_args(ws)
            terms.append(LedgerTerm(
                row.kind, row.k, row.m, row.name, args, scale, kernel, ledger, child_value
            ))
            at = end + 1
        return tuple(terms)


PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(family: NPointRequest, keys: tuple) -> ReductionPlan:
    """The plan of a family, a request without insertions, and the keys of
    its elements; the cache holds the last PLAN_CACHE_SIZE families."""
    return ReductionPlan(family, tuple(AlgebraElement(dict(key)) for key in keys))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def reduce_step(req: NPointRequest) -> tuple[StepTerm, ...]:
    """One reduction stage acting on the last insertion: the "simplest"
    stage rows at the request's positions, each with its child request."""
    if req.n < 1:
        raise UnsupportedInsertion("nothing to reduce in a zero-point request")
    vs = tuple(v for v, _ in req.insertions)
    ws = tuple(complex(w) for _, w in req.insertions)
    terms: list[StepTerm] = []
    for row in stage_table("simplest", req, vs, ws):
        scale, kernel, args, child, leaf = row.at(req, vs, ws)
        child = None if child is None else req.with_insertions(tuple(zip(child, ws)))
        terms.append(StepTerm(row.kind, row.k, row.m, row.name, args, scale, kernel, child, leaf))
    return tuple(terms)


def reduce_full(req: NPointRequest) -> tuple[complex, CoefficientLedger]:
    """Full recursive reduction down to zero-point traces: the cached plan
    of the request's family (`ReductionPlan`) evaluated at its positions.
    Inhomogeneous square-bracket images are reduced part by part.

    Raises DegenerateInsertion when a stage with nonzero contributions
    sums to a value smaller than roundoff allows ratios to survive."""
    plan = _cached_plan(req.with_insertions(()), tuple(v.key() for v, _ in req.insertions))
    return plan.evaluate(w for _, w in req.insertions)


def reduce_negative_mode(req: NPointRequest, v: AlgebraElement, l: int) -> complex:
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
    if wt_v % 1:
        raise UnsupportedInsertion("negative-mode rules need an integer-weight insertion")
    branch = select_branch(ch_v, req.params.z, req.params.tau)
    tau = req.params.tau
    tr = req.truncation
    w_1 = complex(req.insertions[0][1])
    az = ch_v * complex(req.params.z)

    total = 0.0 + 0.0j
    if branch.kind == "lattice":
        head_scale = (-1.0) ** (l + 1) * branch.lam ** (l - 1) / math.factorial(l - 1)
        if head_scale != 0.0:
            total += head_scale * zero_mode_trace(req, v, branch.lam, req.insertions)

    vs = tuple(u for u, _ in req.insertions)
    for k, m, img, _ in bracket_images(spec, v, wt_v, 0, vs):
        binom = math.comb(m + l - 1, m)
        if k == 1:  # E_{m+l}
            scale, w = (-1.0) ** (m + 1) * binom, None
        else:
            scale, w = (-1.0) ** (l + 1) * binom, w_1 - complex(req.insertions[k - 1][1])
        name, args = kernel_spec(m + l, tau.tau, w, branch, az=az)
        kernel = specfun_kernel(name, args, tr)
        total += scale * kernel * npoint_oracle(with_slot(req, k, img))
    return total
