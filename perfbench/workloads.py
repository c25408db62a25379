"""The four seeded workloads: their inputs, operations and correctness checks.

A workload turns a seed into an endless, deterministic stream of
operations.  An operation is a plain JSON-able dict, so that a failing
input can be printed as it was drawn.  `prepare` turns it into a
zero-argument callable, which is the only thing the benchmark times;
`check` compares that callable's result with an independent reference
outside the timed region and returns None or the reason it failed.

Requests are drawn in blocks: every block holds each request class of the
workload once, in a seeded order, so that the mix of classes is the same
for every seed and medians and tails do not move with the luck of the
draw.  Within a class the seed draws tau, the flux and the positions.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from jrl.cli import CHECKS
from jrl.cli import main as cli_main
from jrl.reduction import (
    JacobiParams,
    NPointRequest,
    chain_condition_residual,
    identity_rec1,
    identity_zero_res,
    npoint_oracle,
    reduce_full,
    reduction_family,
    stage_contributions,
)
from jrl.specfun import ModularPoint
from jrl.voa import AlgebraSpec, current_state, oscillator_state
from jrl.voa.algebra import AlgebraElement, BasisState

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOLS = HERE / "data" / "pools.json"
POOL_SEED = 0x6A726C

HEIS = AlgebraSpec(kind="heisenberg", rank=1)
HEIS2 = AlgebraSpec(kind="heisenberg", rank=2)
CFERM = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
RFERM = AlgebraSpec(kind="real_fermion")

STATES = {
    "J": current_state(HEIS),
    "a(-2)": oscillator_state("a", 2, 0),
    "a0": oscillator_state("a", 1, 0),
    "a1": oscillator_state("a", 1, 1),
    "a0a1": AlgebraElement.from_state(BasisState(boson=((0, 1), (1, 1)))),
    "b": oscillator_state("b", 1),
    "b(-2)": oscillator_state("b", 2),
    "c": oscillator_state("c", 1),
    "Jbc": current_state(CFERM),
}

# Modules as (spec, sector, cap, headroom).  The large Im tau of the draws
# (0.75 to 0.85) lets a modest headroom keep the direct trace and the
# reduction within 1e-6 of each other, far inside the 1e-4 gate.  Within a
# workload the modules are sized so that every request class costs about
# the same, which keeps the median and the tail off class boundaries.
MODULES = {
    "h1": (HEIS, (0.6,), 3.0, 8),
    "h1.4": (HEIS, (0.6,), 4.0, 10),
    "h2": (HEIS2, (0.7, 0.3), 3.0, 6),
    "h2.1pt": (HEIS2, (0.7, 0.3), 4.0, 9),
    "h2s": (HEIS2, (0.7, 0.3), 2.0, 5),
    "cf": (CFERM, (), 3.0, 7),
    "rf": (RFERM, (), 7.5, 11),
    # all reduction classes but the two real-fermion ones cost about the same
    "h1.red2": (HEIS, (0.6,), 8.0, 10),
    "h1.red3": (HEIS, (0.6,), 6.0, 10),
    "h1.red4": (HEIS, (0.6,), 4.0, 9),
    "cf.red2": (CFERM, (), 6.0, 10),
    "cf.red4": (CFERM, (), 5.0, 9),
    "rf.red": (RFERM, (), 9.5, 12),
    "cf.stage": (CFERM, (), 2.0, 4),
    "h2.chain": (HEIS2, (0.7, 0.0), 4.0, 5),
    "h1.rec": (HEIS, (0.6,), 5.0, 8),
    "cf.res": (CFERM, (), 7.0, 11),
    # the cap-8 requests of the frozen TRACE_* oracles
    "h1.anchor": (HEIS, (0.6,), 8.0, 12),
    "cf.anchor": (CFERM, (), 8.0, 12),
    "rf.anchor": (RFERM, (), 7.5, 12),
}

ANCHOR_TAU = 0.5j
ANCHOR_Z = 0.23 - 0.11j
# name -> (module, states, positions, supertrace, tolerance); the
# tolerances are the ones the repository's tests hold these values to
ANCHORS = {
    "TRACE_Z0_HEISENBERG": ("h1.anchor", (), (), False, 1e-10),
    "TRACE_J_HEISENBERG": ("h1.anchor", ("J",), (0.12j,), False, 1e-12),
    "TRACE_JJ_HEISENBERG": ("h1.anchor", ("J", "J"), (0.12j, 0.31j), False, 1e-12),
    "TRACE_BC_COMPLEX_FERMION": ("cf.anchor", ("b", "c"), (0.12j, 0.31j), True, 1e-12),
    "TRACE_BB_REAL_FERMION": ("rf.anchor", ("b", "b"), (0.12j, 0.31j), True, 1e-12),
}

REL_TOL_TRACE = 1e-4  # reduction vs direct trace, as acceptance criterion 3
REL_TOL_STAGE = 1e-10  # stage sums vs reduce_full of the extended request


def check_tolerance(name: str) -> float:
    return next(c.tolerance for c in CHECKS if c.name == name)


def load_oracles():
    """The frozen reference values in tests/oracles.py of this checkout."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("jrl_frozen_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def c2l(z: complex) -> list[float]:
    return [z.real, z.imag]


def l2c(v) -> complex:
    return complex(v[0], v[1])


def draw_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.75, 0.85))


def draw_flux(rng: random.Random) -> complex:
    """A flux well off the lattice: |Im z| >= 0.03 keeps alpha z for
    alpha = +-1 at least 0.035 from every lattice point."""
    return complex(rng.uniform(-0.45, 0.45), rng.choice((-1.0, 1.0)) * rng.uniform(0.03, 0.1))


def nested_positions(rng: random.Random, n: int, im_tau: float) -> list[complex]:
    """n positions with 0 < Im w_1 < ... < Im w_n < Im tau whose cyclic gaps,
    the wrap-around gap included, are all at least 0.85 Im tau / n."""
    if n == 1:
        return [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.9) * im_tau)]
    weights = [rng.random() for _ in range(n)]
    spare = 0.15 * im_tau
    gaps = [0.85 * im_tau / n + spare * x / sum(weights) for x in weights]
    ims = [rng.uniform(0.1, 0.9) * gaps[-1]]
    for g in gaps[:-1]:
        ims.append(ims[-1] + g)
    return [complex(rng.uniform(-0.5, 0.5), y) for y in ims]


def draw_request(rng: random.Random, n: int) -> dict:
    tau = draw_tau(rng)
    return {"tau": c2l(tau), "z": c2l(draw_flux(rng)), "ws": [c2l(w) for w in nested_positions(rng, n, tau.imag)]}


def build_request(module: str, states, op: dict, supertrace: bool, z=None) -> NPointRequest:
    spec, sector, cap, headroom = MODULES[module]
    ws = [l2c(w) if isinstance(w, list) else w for w in op["ws"]]
    return NPointRequest(
        spec=spec,
        sector=sector,
        cap=cap,
        headroom=headroom,
        insertions=tuple((STATES[s], w) for s, w in zip(states, ws)),
        params=JacobiParams(
            z=l2c(op["z"]) if z is None else z,
            tau=ModularPoint(l2c(op["tau"])),
            supertrace=supertrace,
        ),
    )


def build_module(module: str) -> None:
    """Enumerate a working module into the reduction's module cache."""
    spec, sector, cap, headroom = MODULES[module]
    NPointRequest(
        spec=spec, sector=sector, cap=cap, headroom=headroom, insertions=(),
        params=JacobiParams(z=ANCHOR_Z, tau=ModularPoint(ANCHOR_TAU)),
    ).module()


def rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


class Workload:
    """Base class; subclasses fill in `classes` and the per-class hooks."""

    name = ""
    modules: tuple[str, ...] = ()
    classes: tuple[str, ...] = ()
    # operations per second at the commit that defined the benchmark; it
    # fixes how many operations the traced run replays, so that its counts
    # compare across commits
    trace_rate = 1.0

    def build(self) -> None:
        for m in self.modules:
            build_module(m)

    def stream(self, seed: int):
        rng = random.Random(seed)
        while True:
            block = list(self.classes)
            rng.shuffle(block)
            for cls in block:
                yield self.draw(rng, cls)

    def warmup_ops(self, seed: int) -> list[dict]:
        rng = random.Random(seed ^ 0x5EED)
        return [self.draw(rng, cls) for cls in self.classes]

    def draw(self, rng: random.Random, cls: str) -> dict:
        raise NotImplementedError

    def prepare(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, result) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# direct_trace
# ---------------------------------------------------------------------------


class DirectTrace(Workload):
    """npoint_oracle on 1- to 3-point requests over a fixed module pool."""

    name = "direct_trace"
    modules = ("h1", "h1.4", "h2", "h2.1pt", "h2s", "cf", "rf", "h1.anchor", "cf.anchor", "rf.anchor")
    trace_rate = 5.0
    # class -> (module, states, supertrace)
    table = {
        "h1.a(-2)J": ("h1.4", ("a(-2)", "J"), False),
        "h1.JJJ": ("h1", ("J", "J", "J"), False),
        "h2.a0": ("h2.1pt", ("a0",), False),
        "h2.a0a1": ("h2", ("a0", "a1"), False),
        "h2s.a0a0a1": ("h2s", ("a0", "a0", "a1"), False),
        "cf.bc": ("cf", ("b", "c"), True),
        "cf.cb": ("cf", ("c", "b"), True),
        "rf.bb": ("rf", ("b", "b"), True),
        "rf.b(-2)b": ("rf", ("b(-2)", "b"), True),
    }
    classes = tuple(table)

    def __init__(self):
        self.oracles = load_oracles()

    def warmup_ops(self, seed: int) -> list[dict]:
        return [{"cls": "anchor", "name": a} for a in ANCHORS] + super().warmup_ops(seed)

    def draw(self, rng, cls):
        return {"cls": cls, **draw_request(rng, len(self.table[cls][1]))}

    def request(self, op: dict) -> NPointRequest:
        if op["cls"] == "anchor":
            module, states, ws, supertrace, _ = ANCHORS[op["name"]]
            anchor = {"tau": c2l(ANCHOR_TAU), "z": c2l(ANCHOR_Z), "ws": list(ws)}
            return build_request(module, states, anchor, supertrace)
        module, states, supertrace = self.table[op["cls"]]
        return build_request(module, states, op, supertrace)

    def prepare(self, op):
        req = self.request(op)
        return lambda: npoint_oracle(req)

    def check(self, op, result):
        req = self.request(op)
        if op["cls"] == "anchor":
            frozen = getattr(self.oracles, op["name"])
            tol = ANCHORS[op["name"]][4]
            if not abs(result - frozen) <= tol:
                return f"frozen {op['name']}: |{result} - {frozen}| > {tol}"
        ref, _ = reduce_full(req)
        err = rel_err(result, ref)
        if not err <= REL_TOL_TRACE:
            return f"reduce_full {ref}: relative error {err:.2e} > {REL_TOL_TRACE}"
        return None


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def load_pools() -> dict:
    with open(POOLS, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Reduction(Workload):
    """reduce_full with its ledger on 2- to 4-point requests.

    Each class has a few (tau, z) families with several positions each, as
    a position scan has.  The direct trace of every request is ten to a
    hundred times dearer than its reduction, so the references are direct
    traces computed once into data/pools.json (see --regenerate)."""

    name = "reduction"
    modules = ("h1.red2", "h1.red3", "h1.red4", "cf.red2", "cf.red4", "rf.red")
    trace_rate = 24.0
    table = {
        "lattice.JJ": ("h1.red2", ("J", "J"), False),
        "lattice.JJJ": ("h1.red3", ("J", "J", "J"), False),
        "lattice.JJJJ": ("h1.red4", ("J", "J", "J", "J"), False),
        "generic.bc": ("cf.red2", ("b", "c"), True),
        "generic.bcbc": ("cf.red4", ("b", "c", "b", "c"), True),
        "deformed.bb": ("rf.red", ("b", "b"), True),
        "deformed.bbbb": ("rf.red", ("b", "b", "b", "b"), True),
    }
    classes = tuple(table)
    families, positions = 4, 8

    def __init__(self):
        self.pool = load_pools()["reduction"]

    def draw(self, rng, cls):
        i = rng.randrange(len(self.pool[cls]))
        return {"cls": cls, "index": i, **self.pool[cls][i]}

    def request(self, op):
        module, states, supertrace = self.table[op["cls"]]
        return build_request(module, states, op, supertrace)

    def prepare(self, op):
        req = self.request(op)
        return lambda: reduce_full(req)

    def check(self, op, result):
        value, ledger = result
        if ledger.value != value or ledger.n != len(op["ws"]) - 1:
            return "ledger does not carry the returned value"
        err = rel_err(value, l2c(op["ref"]))
        if not err <= REL_TOL_TRACE:
            return f"direct trace {op['ref']}: relative error {err:.2e} > {REL_TOL_TRACE}"
        return None

    @classmethod
    def generate_pool(cls, rng: random.Random, log) -> dict:
        pool = {}
        for name, (module, states, supertrace) in cls.table.items():
            entries = []
            for _ in range(cls.families):
                family = draw_request(rng, len(states))
                for _ in range(cls.positions):
                    tau = l2c(family["tau"])
                    op = {**family, "ws": [c2l(w) for w in nested_positions(rng, len(states), tau.imag)]}
                    req = build_request(module, states, op, supertrace)
                    ref = npoint_oracle(req)
                    err = rel_err(reduce_full(req)[0], ref)
                    if err > REL_TOL_TRACE / 10:
                        raise RuntimeError(f"{name} {op}: reduction misses the direct trace by {err:.2e}")
                    entries.append({**op, "ref": c2l(ref)})
            log(f"reduction pool {name}: {len(entries)} requests")
            pool[name] = entries
        return pool


# ---------------------------------------------------------------------------
# coboundary
# ---------------------------------------------------------------------------


class Coboundary(Workload):
    """Coboundary stages, the chain condition and the identity residuals.

    The three stage variants run on the complex-fermion request (b, c, J)
    whose distinguished insertion is the b-c bilinear; its zero-mode term is
    a graded trace with a zero-mode operator.  rec1.pair puts the boson
    pair a0(-1)a1(-1) into the same position."""

    name = "coboundary"
    modules = ("cf.stage", "h2.chain", "h1.rec", "h2s", "cf.res")
    trace_rate = 8.0
    classes = (
        "stage.simplest",
        "stage.super",
        "stage.shifted",
        "chain",
        "rec1.J",
        "rec1.pair",
        "zero_res",
    )
    families, positions = 6, 6

    def __init__(self):
        self.pool = load_pools()["coboundary"]

    def draw(self, rng, cls):
        if cls.startswith("stage."):
            i = rng.randrange(len(self.pool))
            return {"cls": cls, "index": i, **self.pool[i]}
        op = {"cls": cls, **draw_request(rng, 1)}
        if cls == "chain":
            op["grid_seed"] = rng.randrange(1 << 30)
        elif cls.startswith("rec1."):
            op["beta"] = rng.choice((1, 2))
        else:  # zero_res takes the lattice flux tau + mu, not the drawn one
            del op["z"]
            op["mu"] = rng.choice((-1, 0, 1))
        return op

    @staticmethod
    def stage_base(op) -> NPointRequest:
        return build_request("cf.stage", ("b", "c"), {**op, "ws": op["ws"][:2]}, True)

    def prepare(self, op):
        cls = op["cls"]
        if cls.startswith("stage."):
            base = self.stage_base(op)
            vs = (STATES["b"], STATES["c"], STATES["Jbc"])
            ws = tuple(l2c(w) for w in op["ws"])
            variant = cls.split(".", 1)[1]
            return lambda: stage_contributions(variant, base, reduction_family(base), vs, ws)
        if cls == "chain":
            base = build_request("h2.chain", ("a0",), op, False)
            a0, a1 = STATES["a0"], STATES["a1"]
            return lambda: chain_condition_residual(
                "simplest", a0, a1, reduction_family(base), base, n_samples=4, seed=op["grid_seed"]
            )
        if cls == "rec1.J":
            req = build_request("h1.rec", ("J",), op, False)
            return lambda: identity_rec1(req, STATES["J"], op["beta"])
        if cls == "rec1.pair":
            req = build_request("h2s", ("a0",), op, False)
            return lambda: identity_rec1(req, STATES["a0a1"], op["beta"])
        # alpha z = tau + mu for the charge-one b
        z = l2c(op["tau"]) + op["mu"]
        req = build_request("cf.res", ("c",), op, True, z=z)
        return lambda: identity_zero_res(req, STATES["b"])

    def check(self, op, result):
        cls = op["cls"]
        if cls.startswith("stage."):
            total = sum((c.value for c in result), 0.0 + 0.0j)
            err = rel_err(total, l2c(op["ref"]))
            if not err <= REL_TOL_STAGE:
                return f"reduce_full of the extended request {op['ref']}: relative error {err:.2e}"
            return None
        tol = check_tolerance(
            {"chain": "chain_cross_flavor", "zero_res": "zero_res_lattice_flux"}.get(cls, "rec1_beta_one")
        )
        if not (isinstance(result, float) and result <= tol):
            return f"residual {result!r} > {tol}"
        return None

    @classmethod
    def generate_pool(cls, rng: random.Random, log) -> list:
        entries = []
        vs = (STATES["b"], STATES["c"], STATES["Jbc"])
        for _ in range(cls.families):
            family = draw_request(rng, 3)
            for _ in range(cls.positions):
                tau = l2c(family["tau"])
                op = {**family, "ws": [c2l(w) for w in nested_positions(rng, 3, tau.imag)]}
                base = cls.stage_base(op)
                ws = tuple(l2c(w) for w in op["ws"])
                ref, _ = reduce_full(base.with_insertions(base.insertions + ((vs[2], ws[2]),)))
                for variant in ("simplest", "super", "shifted"):
                    got = sum(c.value for c in stage_contributions(variant, base, reduction_family(base), vs, ws))
                    if rel_err(got, ref) > REL_TOL_STAGE:
                        raise RuntimeError(f"stage {variant} {op}: misses reduce_full")
                entries.append({**op, "ref": c2l(ref)})
        log(f"coboundary pool: {len(entries)} requests")
        return entries


def regenerate_pools(log=print) -> None:
    """Recompute data/pools.json: seeded requests and their references."""
    rng = random.Random(POOL_SEED)
    for m in Reduction.modules + Coboundary.modules:
        build_module(m)
    pools = {"seed": POOL_SEED, "reduction": Reduction.generate_pool(rng, log),
             "coboundary": Coboundary.generate_pool(rng, log)}
    POOLS.parent.mkdir(parents=True, exist_ok=True)
    with open(POOLS, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# cli_eval
# ---------------------------------------------------------------------------

EVAL_FNS = ("B", "E", "Etwist", "Etilde", "P", "Ptwist", "Ptilde", "Pdef", "laurentP")
W_THETA = [0.1, 0.08]
E_ANCHORS = (  # (oracle name, k, tau)
    ("E2_AT_I", 2, [0.0, 1.0]),
    ("E4_AT_I", 4, [0.0, 1.0]),
    ("E2_AT_HALF_I", 2, [0.0, 0.5]),
    ("E4_AT_HALF_I", 4, [0.0, 0.5]),
    ("E6_AT_HALF_I", 6, [0.0, 0.5]),
    ("E8_AT_HALF_I", 8, [0.0, 0.5]),
    ("E2_AT_GENERIC", 2, [0.3, 0.4]),
    ("E4_AT_GENERIC", 4, [0.3, 0.4]),
)


def eval_entry_for(rng: random.Random, fn: str) -> dict:
    tau = draw_tau(rng)
    w = nested_positions(rng, 1, tau.imag)[0]
    z = draw_flux(rng)
    e: dict = {"fn": fn}
    if fn == "B":
        e["k"] = rng.randrange(0, 40, 2)
    elif fn == "E":
        e.update(k=rng.randrange(2, 13, 2), tau=c2l(tau))
    elif fn == "Etwist":
        e.update(k=rng.randrange(1, 7), lam=rng.choice((1, 2, 3)), tau=c2l(tau))
    elif fn == "Etilde":
        e.update(k=rng.randrange(1, 7), z=c2l(z), tau=c2l(tau))
    elif fn == "P":
        e.update(m=rng.randrange(1, 5), w=c2l(w), tau=c2l(tau))
    elif fn == "Ptwist":
        e.update(m=rng.randrange(1, 5), lam=rng.choice((-2, -1, 1, 2)), w=c2l(w), tau=c2l(tau))
    elif fn == "Ptilde":
        e.update(m=rng.randrange(1, 5), z=c2l(z), w=c2l(w), tau=c2l(tau))
    elif fn == "Pdef":
        theta = cmath.exp(2j * math.pi * rng.random())
        e.update(k=rng.randrange(1, 5), theta=c2l(theta), phi=[-1.0, 0.0], w=c2l(w), tau=c2l(tau))
    else:
        kind = rng.choice(("plain", "twisted", "tilde"))
        e.update(kind=kind, k=rng.randrange(4, 9), tau=c2l(tau))
        if kind == "twisted":
            e["lam"] = rng.choice((1, 2))
        elif kind == "tilde":
            e["z"] = c2l(z)
    return e


def make_batch(rng: random.Random, n_q: int, cycles: int) -> tuple[dict, list]:
    """An eval request of `cycles` rounds over the nine functions, led by the
    frozen-oracle points, plus (P index, Ptwist index) pairs at one w."""
    evals = [{"fn": "P", "m": m, "w": W_THETA, "tau": [0.0, 0.5]} for m in range(1, 5)]
    if n_q == 48:  # the frozen E values hold to 1e-15 only at the tests' n_q
        evals += [{"fn": "E", "k": k, "tau": tau} for _, k, tau in E_ANCHORS]
    pairs = []
    for _ in range(cycles):
        for fn in EVAL_FNS:
            evals.append(eval_entry_for(rng, fn))
        p = eval_entry_for(rng, "P")
        p["m"] = 1
        pairs.append((len(evals), len(evals) + 1))
        evals += [p, {**p, "fn": "Ptwist", "lam": rng.choice((-2, -1, 1, 2, 3))}]
    return {"schema": 1, "evals": evals, "truncation": {"n_q": n_q, "n_mode": 96}}, pairs


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    out = subprocess.run([sys.executable, "-m", "jrl", *argv], capture_output=True, env=cli_env(), timeout=120)
    return out.returncode, out.stdout, out.stderr


def run_cli_in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().encode(), b""


class CliEval(Workload):
    """One `jrl eval --request <batch>` subprocess per operation.

    A seed makes two batches, one at n_q 12 and one at n_q 48, sized so that
    both take about the same time and the kernels outweigh the 0.33 s of
    interpreter start and imports."""

    name = "cli_eval"
    classes = ("nq12", "nq48")
    cycles = {"nq12": 85, "nq48": 44}
    trace_rate = 1.8

    def __init__(self, workdir: Path, seed: int):
        self.oracles = load_oracles()
        rng = random.Random(seed)
        self.batches, self.paths = {}, {}
        workdir.mkdir(parents=True, exist_ok=True)
        for cls in self.classes:
            n_q = int(cls[2:])
            doc, pairs = make_batch(rng, n_q, self.cycles[cls])
            path = workdir / f"eval-{seed}-{cls}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.batches[cls] = (doc, pairs)
            self.paths[cls] = path
        self.first_output: dict[str, bytes] = {}

    def close(self):
        for path in self.paths.values():
            path.unlink(missing_ok=True)

    def draw(self, rng, cls):
        return {"cls": cls, "path": str(self.paths[cls])}

    def argv(self, op) -> list[str]:
        return ["eval", "--request", op["path"]]

    def prepare(self, op):
        argv = self.argv(op)
        return lambda: run_cli(argv)

    def prepare_in_process(self, op):
        """The same batch through jrl.cli.main, for the traced run."""
        argv = self.argv(op)
        return lambda: run_cli_in_process(argv)

    def check(self, op, result):
        code, stdout, stderr = result
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace')[-300:]}"
        first = self.first_output.setdefault(op["cls"], stdout)
        if stdout != first:
            return "output bytes differ from an earlier run of the same batch"
        return self.check_report(op["cls"], stdout)

    def check_report(self, cls: str, out: bytes) -> str | None:
        doc, pairs = self.batches[cls]
        try:
            rep = json.loads(out)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        if set(rep) != {"schema", "command", "checks", "summary"} or rep["schema"] != 1 or rep["command"] != "eval":
            return "report does not follow schema 1"
        checks = rep["checks"]
        n = len(doc["evals"])
        if len(checks) != n or rep["summary"] != {"passed": n, "failed": 0, "runtime": None}:
            return "report summary does not match the batch"
        for entry, chk in zip(doc["evals"], checks):
            if chk.get("name") != entry["fn"] or chk.get("pass") is not True:
                return f"malformed check for {entry}"
            shape = chk.get("coefficients") if entry["fn"] == "laurentP" else [chk.get("value")]
            if not shape or not all(isinstance(v, list) and len(v) == 2 for v in shape):
                return f"malformed value for {entry}"
        value = lambda i: l2c(checks[i]["value"])
        for m in range(1, 5):
            frozen = getattr(self.oracles, f"P{m}_THETA")
            if not abs(value(m - 1) - frozen) <= 1e-13:
                return f"P{m}_THETA: {value(m - 1)} vs frozen {frozen}"
        if doc["truncation"]["n_q"] == 48:
            for i, (name, _, _) in enumerate(E_ANCHORS, start=4):
                frozen = getattr(self.oracles, name)
                if not abs(value(i) - frozen) <= 1e-15:
                    return f"{name}: {value(i)} vs frozen {frozen}"
        for i, j in pairs:
            lam = checks[j]["parameters"]["lam"]
            q_w = cmath.exp(2j * math.pi * l2c(checks[i]["parameters"]["w"]))
            want = q_w ** (-lam) * (value(i) + 0.5)
            if not rel_err(value(j), want) <= check_tolerance("twisted_shift_identity"):
                return f"twisted shift identity fails at entries {i}, {j}"
        return None


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "cli_eval":
        return CliEval(workdir, seed)
    return {"direct_trace": DirectTrace, "reduction": Reduction, "coboundary": Coboundary}[name]()


WORKLOADS = ("direct_trace", "reduction", "coboundary", "cli_eval")
