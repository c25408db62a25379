"""Write the bit-identity battery of a checkout to one text file.

    python3 tools/value_battery.py OUT

Every value is written as its repr, and every CLI run as its exit code,
stdout and stderr, so two checkouts (say a commit and its parent) are
compared with one `diff` of their files.  The battery runs the program in
`src/` of the checkout that holds this script:

- `jrl eval --request` on the perfbench `cli_eval` batches of seeds 61-64
  and 301, at n_q 12 and 48, and on the README's `eval` examples and
  exit-2 inputs;
- `jrl verify --suite all` and `jrl verify --suite reduction --nq 4`;
- `jrl reduce --ledger --oracle` on the README request, and with
  `--variant main|shifted|super --oracle`;
- the value, `ledger_to_json` and `reevaluate` of `reduce_full` on every
  request of the perfbench `reduction` pool;
- the stage contributions of the four variants on every request of the
  perfbench `coboundary` pool, and the residuals of drawn `chain`,
  `rec1` and `zero_res` operations;
- the "shifted" stage contributions on the complex fermion at the
  lattice fluxes z = tau, tau + 1 and -tau (shift lam = +-1), on the
  reduction and on the oracle, and the `rec1` and `zero_res` residuals of
  a(-2) over the slots (J, a(-2)), whose mode sweeps have two nonzero
  traces per slot;
- the zero-mode traces of the five tensor families of the perfbench
  `coboundary` workload (the stage zero rows, `rec1.J` and `rec1.pair`
  at beta 1 and 2) and of the zero-trace leaves of the
  `tests/test_plans.py` families, at six drawn (tau, flux, positions)
  each, once with a warm tensor cache and once cold, the cache cleared
  before each call (a checkout without the cache computes both afresh);
- the basis of every perfbench working module and of the modules of the
  `jrl.checks` partition and commutator checks: its dimension and the
  sha256 of the repr of its states and of its `FockArrays` keys, so the
  diff shows a change of the module order;
- the twisted kernels P_{m,lam} at m = 1..5, lam in {-70, -60, -3, 0, 1,
  5, 60, 300} and three w at tau = 0.5i, the last at Im w = 0.9 Im tau,
  each as its repr or its typed error.
- the terms of `reduce_step` (kind, k, m, name, args, scale, kernel,
  leaf value and child positions), recursively down to zero points, on
  the `tests/test_plans.py` families at their three position scans and
  on every request of the perfbench `reduction` pool;
- `reduce_negative_mode` on the cases of `tests/test_reduction.py`, and
  at l = 1..3 on the lattice branch of the complex fermion at z = tau,
  each as its repr or its typed error;
- the outcome of inadmissible `main` stages: Heisenberg (J | J) at the
  flux of the tests, inside the suspicion band of the lattice and with
  its positions swapped, and the complex fermion (c(-2) | b), whose b is
  charged, at the same two fluxes, each as its values or its typed error;
- `cohomology_probe` rank, kernel dimension and singular values on the
  two cases of `tests/test_coboundary.py`, and the clean `kz_residual` of
  the `tests/test_acceptance.py` criterion-6 cases;
- `jrl reduce` on the README request with a non-finite `sector` entry,
  `charge_weight_shift` or insertion `coefficient`, and with
  `charge_weight_shift` -1000; on the charge-shifted complex fermion
  (b, c) at tau = 0.6i and z = tau + 1e-7 and tau + 1e-3;
  `jrl eval --fn laurentP --kind twisted --lambda 1e29`; `jrl reduce` with
  and without `--oracle` on the `tests/test_cli_fuzz.py` Heisenberg
  request whose second coefficient is 1e300 or 1e200; and P_{1,lam} at lam
  = inf, -inf, NaN and 1.5, each as its repr or its error;
- the square-bracket images v[m]_shift.x that the reduction takes
  (`steps._bracket_image`) for the shapes v of
  `tests/test_composite_insertions.py` `BOUND_CASES`, every basis state x
  up to level 4, m from 0 to `last_mode` and shift in {0, 0.7, -1}, as
  the repr of their terms.

Each CLI command runs in a fresh interpreter.  It takes under a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import test_cli_fuzz  # noqa: E402
import test_composite_insertions  # noqa: E402
import test_plans  # noqa: E402
import test_reduction  # noqa: E402
import workloads  # noqa: E402
from jrl.cli import ledger_to_json  # noqa: E402
from jrl.reduction import (  # noqa: E402
    JacobiParams,
    NPointRequest,
    cohomology_probe,
    identity_rec1,
    identity_zero_res,
    kz_residual,
    oracle_family,
    reduce_full,
    reduce_negative_mode,
    reduce_step,
    reduction_family,
    sample_grid,
    stage_contributions,
)
from jrl.reduction import steps  # noqa: E402
from jrl.reduction.steps import VARIANTS  # noqa: E402
from jrl.errors import JrlError  # noqa: E402
from jrl.specfun import AnnulusPoint, ModularPoint, Truncation, weier_p_twisted  # noqa: E402
from jrl.voa import (  # noqa: E402
    VACUUM,
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    current_state,
    enumerate_basis,
    oscillator_state,
    state_level,
    working_module,
)
from jrl.voa.squarebracket import last_mode  # noqa: E402

EVAL_SEEDS = (61, 62, 63, 64, 301)
README_REQUEST = {
    "schema": 1,
    "algebra": {"kind": "heisenberg", "rank": 1},
    "sector": [0.6],
    "cap": 8.0,
    "params": {"z": [0.23, -0.11], "tau": [0.0, 0.5]},
    "insertions": [{"state": "J", "z": [0.0, 0.12]}, {"state": "J", "z": [0.0, 0.31]}],
}
EVAL_COMMANDS = (
    "--fn E --k 4 --tau 0.2+0.9i --nq 24",
    "--fn B --k 12",
    "--fn P --m 2 --w 0.1+0.08i --tau 0.5i",
    "--fn E --k 128 --tau 0.01i --nq 512",
    "--fn E --k 128 --tau 0.026i --nq 512",
    "--fn E --k 128 --tau 0.5i --nq 512",
    "--fn Etilde --k 2 --z 0.3i --tau 0.5i --nq 512",
    "--fn laurentP --kind tilde --z 0.49i --k 2 --tau 0.5i --nq 512",
    "--fn E --k 400 --tau 0.5i",
    "--fn P --m 0 --w 0.1+0.08i --tau 0.5i",
    "--fn P --m 200 --nmode 2 --w 0.1+0.2i --tau 0.5i",
    "--fn Ptwist --m 1 --lambda 2.5 --w 0.1+0.2i --tau 0.5i",
    "--fn laurentP --kind plain --k 13 --tau 0.5i",
    "--fn E --k 4 --tau 1e-20i",
    "--fn E --k 4 --tau 200i",
    "--fn Ptilde --m 2 --z 400i --w 0.1+0.2i --tau 0.5i",
)
DRAWN_OPS = 8  # per non-stage coboundary class
# (spec, sector, cap) of the enumerate_basis modules of jrl/checks.py
CHECK_MODULES = (
    (AlgebraSpec(kind="heisenberg", rank=1), (0.4,), 12),
    (AlgebraSpec(kind="real_fermion", grading="natural"), (), 11.5),
    (AlgebraSpec(kind="complex_fermion", grading="charge_shifted"), (), 12),
    (AlgebraSpec(kind="heisenberg", rank=1), (0.3,), 6),
)

# (name, module (spec, sector, cap, headroom), supertrace, flux z = tau,
# zero mode v, lam, field elements) of the zero-mode trace families
_S = workloads.STATES
_CF_PLANS = (workloads.CFERM, (), 2.0, 8)
ZERO_TRACE_FAMILIES = (
    ("stage", workloads.MODULES["cf.stage"], True, False, _S["Jbc"], 0, (_S["b"], _S["c"])),
    ("rec1.J 1", workloads.MODULES["h1.rec"], False, False, _S["J"], 1, (_S["J"],)),
    ("rec1.J 2", workloads.MODULES["h1.rec"], False, False, _S["J"], 2, (_S["J"],)),
    ("rec1.pair 1", workloads.MODULES["h2s"], False, False, _S["a0a1"], 1, (_S["a0"],)),
    ("rec1.pair 2", workloads.MODULES["h2s"], False, False, _S["a0a1"], 2, (_S["a0"],)),
    ("plans shifted b", _CF_PLANS, True, True, _S["b"], 1, (_S["b"], _S["c"], _S["c"])),
    ("plans shifted c.b1", _CF_PLANS, True, True, _S["c"], -1,
     (_S["b"], AlgebraElement.from_state(VACUUM))),
    ("plans shifted c.b", _CF_PLANS, True, True, _S["c"], -1, (_S["b"],)),
    ("plans lattice_flux", (workloads.CFERM, (), 3.0, 8), True, True, _S["c"], -1, (_S["b"],)),
)


def cli(out, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, "-m", "jrl", *argv], capture_output=True, text=True, env=env
    )
    # the request files live in a temporary directory: leave their paths out
    out.write(f"## jrl {' '.join(a for a in argv if not a.endswith('.json'))}\n")
    out.write(f"exit {r.returncode}\n{r.stdout}stderr: {r.stderr!r}\n")


def cli_battery(out, tmp: Path) -> None:
    for seed in EVAL_SEEDS:
        rng = random.Random(seed)
        for cls in workloads.CliEval.classes:
            doc, _ = workloads.make_batch(rng, int(cls[2:]), workloads.CliEval.cycles[cls])
            path = tmp / f"eval-{seed}-{cls}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out.write(f"# eval batch seed {seed} {cls}\n")
            cli(out, ["eval", "--request", str(path)])
    for command in EVAL_COMMANDS:
        cli(out, ["eval", *command.split()])
    cli(out, ["verify", "--suite", "all"])
    cli(out, ["verify", "--suite", "reduction", "--nq", "4"])
    path = tmp / "readme-request.json"
    path.write_text(json.dumps(README_REQUEST), encoding="utf-8")
    cli(out, ["reduce", "--ledger", "--oracle", "--request", str(path)])
    for variant in ("main", "shifted", "super"):
        cli(out, ["reduce", "--variant", variant, "--oracle", "--request", str(path)])


def reduction_battery(out) -> None:
    red = workloads.Reduction()
    for cls, entries in red.pool.items():
        for i, entry in enumerate(entries):
            req = red.request({"cls": cls, **entry})
            value, ledger = reduce_full(req)
            out.write(f"## reduction {cls} {i}\n{value!r}\n")
            out.write(json.dumps(ledger_to_json(ledger), sort_keys=True) + "\n")
            out.write(f"{ledger.reevaluate(req.truncation)!r}\n")


def coboundary_battery(out) -> None:
    cob = workloads.Coboundary()
    vs = tuple(workloads.STATES[s] for s in ("b", "c", "Jbc"))
    for i, entry in enumerate(cob.pool):
        base = cob.stage_base(entry)
        ws = tuple(workloads.l2c(w) for w in entry["ws"])
        for variant in VARIANTS:
            contribs = stage_contributions(variant, base, reduction_family(base), vs, ws)
            out.write(f"## coboundary stage {i} {variant}\n")
            out.write(f"{[c.value for c in contribs]!r}\n{sum(c.value for c in contribs)!r}\n")
    rng = random.Random(7)
    for cls in cob.classes:
        if cls.startswith("stage."):
            continue
        for i in range(DRAWN_OPS):
            op = cob.draw(rng, cls)
            out.write(f"## coboundary {cls} {i}\n{cob.prepare(op)()!r}\n")


SHIFT_TAU = ModularPoint(0.2 + 0.8j)
SHIFT_WS = (0.1j, 0.2 + 0.3j, 0.45 + 0.45j, 0.6j)
HEIS1 = AlgebraSpec(kind="heisenberg", rank=1)


def shifted_battery(out) -> None:
    b, c = _S["b"], _S["c"]
    for z in (SHIFT_TAU.tau, SHIFT_TAU.tau + 1, -SHIFT_TAU.tau):
        params = JacobiParams(z=z, tau=SHIFT_TAU, supertrace=True)
        for vs in ((b, c), (c, b), (b, c, c, b)):
            ws = SHIFT_WS[-len(vs):]
            base = NPointRequest(spec=workloads.CFERM, sector=(), cap=2.0, headroom=8,
                                 insertions=tuple(zip(vs[:-1], ws)), params=params)
            names = "".join("b" if v is b else "c" for v in vs)
            for fam, family in (("reduction", reduction_family), ("oracle", oracle_family)):
                contribs = stage_contributions("shifted", base, family(base), vs, ws)
                values = [x.value for x in contribs]
                out.write(f"## shifted stage z {z!r} {names} {fam}\n")
                out.write(f"{values!r}\n{sum(values)!r}\n")
    a2 = oscillator_state("a", 2)
    req = NPointRequest(spec=HEIS1, sector=(0.6,), cap=8.0,
                        insertions=((current_state(HEIS1), 0.12j), (a2, 0.31j)),
                        params=JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j)))
    for beta in (1, 2):
        out.write(f"## rec1 a(-2) beta {beta}\n{identity_rec1(req, a2, beta)!r}\n")
    out.write(f"## zero_res a(-2)\n{identity_zero_res(req, a2)!r}\n")


def zero_mode_trace_battery(out) -> None:
    cache = getattr(steps, "_cached_tensor", None)
    rng = random.Random(7)
    for name, module, supertrace, lattice, v, lam, fields in ZERO_TRACE_FAMILIES:
        spec, sector, cap, headroom = module
        reqs = []
        for _ in range(6):
            op = workloads.draw_request(rng, len(fields))
            tau = workloads.l2c(op["tau"])
            params = JacobiParams(z=tau if lattice else workloads.l2c(op["z"]),
                                  tau=ModularPoint(tau), supertrace=supertrace)
            ins = tuple(zip(fields, map(workloads.l2c, op["ws"])))
            reqs.append(NPointRequest(spec=spec, sector=sector, cap=cap, headroom=headroom,
                                      insertions=ins, params=params))
        warm = [steps.zero_mode_trace(req, v, lam, req.insertions) for req in reqs]
        cold = []
        for req in reqs:
            if cache is not None:
                cache.cache_clear()
            cold.append(steps.zero_mode_trace(req, v, lam, req.insertions))
        out.write(f"## zero_mode_trace {name}\nwarm {warm!r}\ncold {cold!r}\n")


def basis_battery(out) -> None:
    modules = [
        (f"perfbench {name}", working_module(*entry))
        for name, entry in workloads.MODULES.items()
    ]
    modules += [(f"checks {i}", enumerate_basis(*entry)) for i, entry in enumerate(CHECK_MODULES)]
    for name, module in modules:
        states = hashlib.sha256(repr(module.states).encode()).hexdigest()
        keys = hashlib.sha256(module.arrays.key.tobytes()).hexdigest()
        out.write(f"## basis {name}\ndim {module.dim}\nstates {states}\nkeys {keys}\n")


TWIST_TAU = ModularPoint(0.5j)
TWIST_WS = (0.1 + 0.2j, -0.35 + 0.3j, 0.2 + 0.45j)
TWIST_LAMS = (-70, -60, -3, 0, 1, 5, 60, 300)


def twisted_battery(out) -> None:
    tr = Truncation()
    for w in TWIST_WS:
        p = AnnulusPoint(w, TWIST_TAU)
        for lam in TWIST_LAMS:
            for m in range(1, 6):
                try:
                    value = repr(weier_p_twisted(m, lam, p, tr))
                except JrlError as exc:
                    value = f"{type(exc).__name__}: {exc}"
                out.write(f"## twisted m {m} lam {lam} w {w!r}\n{value}\n")


def _step_terms(out, req) -> None:
    """The reduce_step terms of req and, depth first, of their children."""
    step = reduce_step(req)
    for t in getattr(step, "terms", step):  # older checkouts wrap the terms
        child = None if t.child is None else [w for _, w in t.child.insertions]
        out.write(f"{t.kind} {t.k} {t.m} {t.name} {sorted(t.args.items())!r} {t.scale!r} "
                  f"{t.kernel!r} {t.leaf_value!r} {child!r}\n")
        if t.child is not None and t.child.n:
            _step_terms(out, t.child)


def step_battery(out) -> None:
    for name, fam in sorted(test_plans.FAMILIES.items()):
        for i, ws in enumerate(test_plans.SCAN):
            out.write(f"## reduce_step plans {name} {i}\n")
            _step_terms(out, test_plans.at(fam, ws))
    red = workloads.Reduction()
    for cls, entries in red.pool.items():
        for i, entry in enumerate(entries):
            out.write(f"## reduce_step reduction {cls} {i}\n")
            _step_terms(out, red.request({"cls": cls, **entry}))


def negative_mode_battery(out) -> None:
    tests = test_reduction
    b, c = oscillator_state("b", 1), oscillator_state("c", 1)
    J = current_state(tests.HEIS)
    lattice = tests.cferm_request(z=tests.TAU.tau).with_insertions(((c, 0.12j),))
    cases = [
        ("current_squared", tests.heis_request(n=1, alpha=0.6), J, 1),
        ("fermion_bilinear", tests.cferm_request().with_insertions(((c, 0.12j),)), b, 1),
        ("deep_fermion_stack", tests.cferm_request(), b, 2),
    ]
    cases += [(f"lattice_flux l {l}", lattice, b, l) for l in (1, 2, 3)]
    for name, req, v, l in cases:
        try:
            value = reduce_negative_mode(req, v, l)
            value = repr(value[0] if isinstance(value, tuple) else value)  # (value, ledger)
        except JrlError as exc:
            value = f"{type(exc).__name__}: {exc}"
        out.write(f"## reduce_negative_mode {name}\n{value}\n")


def _outcome(fn) -> str:
    try:
        return repr(fn())
    except JrlError as exc:
        return f"{type(exc).__name__}: {exc}"


# tau and flux of tests/test_coboundary.py, and a flux 1e-7 from the lattice point tau
TESTS_TAU = ModularPoint(0.5j)
TESTS_Z = 0.23 - 0.11j
BAND_Z = TESTS_TAU.tau + 1e-7


def _main_stage(spec, sector, z, vs, ws):
    params = JacobiParams(z=z, tau=TESTS_TAU, supertrace=spec.kind == "complex_fermion")
    base = NPointRequest(spec=spec, sector=sector, cap=6.0,
                         insertions=tuple(zip(vs[:-1], ws[:-1])), params=params)
    return [c.value for c in stage_contributions("main", base, reduction_family(base), vs, ws)]


def admissibility_battery(out) -> None:
    J = current_state(HEIS1)
    c2, b = AlgebraElement.from_state(BasisState(ferm_c=(2,))), _S["b"]
    cases = (
        ("heisenberg (J | J)", HEIS1, (0.6,), TESTS_Z, (J, J), (0.12j, 0.31j)),
        ("heisenberg (J | J) band", HEIS1, (0.6,), BAND_Z, (J, J), (0.12j, 0.31j)),
        ("heisenberg (J | J) swapped", HEIS1, (0.6,), TESTS_Z, (J, J), (0.31j, 0.12j)),
        ("complex fermion (c(-2) | b)", workloads.CFERM, (), TESTS_Z, (c2, b), (0.12j, 0.31j)),
        ("complex fermion (c(-2) | b) band", workloads.CFERM, (), BAND_Z, (c2, b),
         (0.12j, 0.31j)),
    )
    for name, *case in cases:
        out.write(f"## main stage {name}\n{_outcome(lambda: _main_stage(*case))}\n")


def probe_battery(out) -> None:
    grid = sample_grid(1, TESTS_TAU.tau, n_samples=6, seed=0x4A43)
    params = JacobiParams(z=TESTS_Z, tau=TESTS_TAU)
    cases = (
        ("complex fermion b",
         NPointRequest(spec=workloads.CFERM, sector=(), cap=8.0, insertions=(),
                       params=replace(params, supertrace=True)),
         _S["b"]),
        ("heisenberg J", NPointRequest(spec=HEIS1, sector=(0.6,), cap=8.0, insertions=(),
                                       params=params), current_state(HEIS1)),
    )
    for name, base, v in cases:
        res = cohomology_probe("simplest", v, [oracle_family(base)], base, grid)
        out.write(f"## cohomology_probe {name}\n{res.rank} {res.kernel_dim} "
                  f"{res.singular_values!r}\n")
    heis2 = AlgebraSpec(kind="heisenberg", rank=2)
    kz_cases = (
        (NPointRequest(spec=HEIS1, sector=(0.6,), cap=8.0,
                       insertions=((current_state(HEIS1), 0.12j),), params=params),
         current_state(HEIS1), 0.31j),
        (NPointRequest(spec=heis2, sector=(0.7, 0.3), cap=6.0,
                       insertions=((oscillator_state("a", 1, flavor=0), 0.12j),), params=params),
         oscillator_state("a", 1, flavor=1), 0.42j),
    )
    for i, (base, v, w) in enumerate(kz_cases):
        out.write(f"## kz_residual criterion 6 case {i}\n{kz_residual(base, v, w)!r}\n")


def refusal_battery(out, tmp: Path) -> None:
    docs = []
    nan, inf = float("nan"), float("inf")
    for section, field, value in (
        (None, "sector", [nan]),
        (None, "sector", [inf]),
        ("params", "charge_weight_shift", nan),
        ("params", "charge_weight_shift", -1000),
        ("insertions", 1, {"state": "J", "coefficient": [inf, 0], "z": [0.0, 0.31]}),
    ):
        doc = json.loads(json.dumps(README_REQUEST))
        (doc if section is None else doc[section])[field] = value
        docs.append((f"{section}.{field} = {value}", doc))
    for offset in (1e-7, 1e-3):
        docs.append((f"complex fermion z = tau + {offset}", {
            "schema": 1, "algebra": {"kind": "complex_fermion", "grading": "charge_shifted"},
            "cap": 3.0, "params": {"z": [offset, 0.6], "tau": [0.0, 0.6]},
            "insertions": [{"state": "b", "z": [0.0, 0.12]}, {"state": "c", "z": [0.3, 0.31]}],
        }))
    for i, (name, doc) in enumerate(docs):
        path = tmp / f"refusal-{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out.write(f"# reduce {name}\n")
        cli(out, ["reduce", "--request", str(path)])
    cli(out, ["eval", *"--fn laurentP --kind twisted --lambda 1e29 --k 2 --tau 0.5i".split()])
    fuzz = test_cli_fuzz.REDUCE[0]
    for coefficient in (1e300, 1e200):
        doc = json.loads(json.dumps(fuzz))
        doc["insertions"][1]["coefficient"] = [coefficient, 0.0]
        path = tmp / f"coefficient-{coefficient:g}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out.write(f"# reduce fuzz request, coefficient {coefficient:g}\n")
        cli(out, ["reduce", "--oracle", "--request", str(path)])
        cli(out, ["reduce", "--request", str(path)])
    p = AnnulusPoint(TWIST_WS[0], TWIST_TAU)
    for lam in (float("inf"), float("-inf"), float("nan"), 1.5):
        try:
            value = repr(weier_p_twisted(1, lam, p, Truncation()))
        except Exception as exc:  # a checkout may raise an untyped error here
            value = f"{type(exc).__name__}: {exc}"
        out.write(f"## twisted m 1 lam {lam!r}\n{value}\n")


def sized_image_battery(out) -> None:
    for kind, (spec, sector, shapes) in sorted(test_composite_insertions.BOUND_CASES.items()):
        targets = [AlgebraElement.from_state(s) for s in enumerate_basis(spec, sector, 4.0).states]
        for i, v in enumerate(shapes):
            h = max(state_level(spec, s) for s in v.terms)
            out.write(f"## bracket images {kind} shape {i}\n")
            for x in targets:
                for m in range(last_mode(spec, h, x) + 1):
                    for shift in (0, 0.7, -1):
                        img = steps._bracket_image(spec, v, m, x, shift)
                        out.write(f"{m} {shift} {x.key()!r} {img.key()!r}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "w", encoding="utf-8") as out, tempfile.TemporaryDirectory() as tmp:
        cli_battery(out, Path(tmp))
        reduction_battery(out)
        coboundary_battery(out)
        shifted_battery(out)
        zero_mode_trace_battery(out)
        basis_battery(out)
        twisted_battery(out)
        step_battery(out)
        negative_mode_battery(out)
        admissibility_battery(out)
        probe_battery(out)
        refusal_battery(out, Path(tmp))
        sized_image_battery(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
