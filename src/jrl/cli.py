"""Command-line front end: eval, reduce, verify.

Reports are JSON with a fixed schema (schema: 1), complex numbers as
[re, im] pairs, and byte-stable formatting: two runs with the same
arguments emit identical bytes.  Timings are therefore omitted unless
--timing is passed.  Exit codes: 0 success, 1 check failure, 2
usage/domain error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import DomainViolation, JrlError
from .specfun import (
    ModularPoint,
    Truncation,
    TwistPair,
    bernoulli,
    default_truncation,
    laurent_coeffs_p1,
    specfun_kernel,
)

if TYPE_CHECKING:
    from .reduction import NPointRequest
    from .voa import AlgebraElement, AlgebraSpec

SCHEMA = 1


class UsageError(Exception):
    """Malformed flags or request documents (exit code 2)."""


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' shorthand (also accepts 'j')."""
    s = text.strip().replace(" ", "").replace("I", "i").replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc


def c2l(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def l2c(v) -> complex:
    if isinstance(v, complex):
        return v
    if isinstance(v, (int, float)):
        return complex(v)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, (int, float)) for x in v)
    ):
        return complex(v[0], v[1])
    raise UsageError(f"expected a number or [re, im], got {v!r}")


def _check_fields(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise UsageError(f"missing fields in {where}: {sorted(missing)}")


def _get(obj: dict, key: str, convert, where: str, default=None):
    """convert(obj[key]), or convert(default) when key is absent; a
    malformed value is a UsageError naming its field."""
    value = obj.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError, OverflowError, UsageError) as exc:
        raise UsageError(f"malformed {where}.{key}: {value!r}") from exc


def _floats(value) -> tuple[float, ...]:
    return tuple(float(x) for x in value)


def _truncation_from_json(t, tr: Truncation, where: str) -> Truncation:
    """A truncation document over the defaults tr."""
    _check_fields(t, {"n_q", "n_mode", "tol"}, set(), where)
    return Truncation(
        n_q=_get(t, "n_q", _integer, where, tr.n_q),
        n_mode=_get(t, "n_mode", _integer, where, tr.n_mode),
        tol=_get(t, "tol", float, where, tr.tol),
    )


def _default_truncation() -> Truncation:
    """default_truncation(), with a malformed JRL_DEFAULT_NQ or
    JRL_DEFAULT_TOL reported as a UsageError."""
    try:
        return default_truncation()
    except ValueError as exc:
        raise UsageError(f"malformed JRL_DEFAULT_NQ or JRL_DEFAULT_TOL: {exc}") from exc


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Request documents
# ---------------------------------------------------------------------------


def element_from_json(spec: AlgebraSpec, desc, where: str) -> AlgebraElement:
    from .voa import AlgebraElement, BasisState, current_state, oscillator_state

    if isinstance(desc, str):
        if desc == "1":
            return AlgebraElement.from_state(BasisState())
        if desc == "J":
            return current_state(spec)
        if desc in ("b", "c"):
            return oscillator_state(desc, 1)
        if desc == "a":
            return oscillator_state("a", 1, 0)
        raise UsageError(f"unknown state descriptor {desc!r} in {where}")
    where = f"{where}.state"
    _check_fields(desc, {"boson", "ferm_b", "ferm_c"}, set(), where)
    # one spelling per state: integer labels, boson pairs in sorted order
    # (the creators commute); fermion labels distinct and ascending, as
    # reordering anticommuting creators would change the sign
    pairs = _get(
        desc, "boson", lambda ps: sorted((_integer(f), _integer(l)) for f, l in ps), where, ()
    )
    fermions = {}
    for species in ("ferm_b", "ferm_c"):
        labels = _get(desc, species, lambda xs: [_integer(x) for x in xs], where, ())
        if len(set(labels)) != len(labels):
            raise DomainViolation(f"{where}.{species} repeats a fermion label: {labels}")
        if labels != sorted(labels):
            raise UsageError(f"{where}.{species} labels must be ascending, got {labels}")
        fermions[species] = tuple(labels)
    return AlgebraElement.from_state(BasisState(boson=tuple(pairs), **fermions))


def request_from_json(doc: dict) -> NPointRequest:
    from .reduction import JacobiParams, NPointRequest
    from .voa import AlgebraSpec

    _check_fields(
        doc,
        {"schema", "algebra", "sector", "cap", "params", "insertions", "truncation"},
        {"schema", "algebra", "cap", "params", "insertions"},
        "request",
    )
    if doc["schema"] != SCHEMA:
        raise UsageError(f"unsupported schema {doc['schema']!r}")

    alg = doc["algebra"]
    _check_fields(
        alg, {"kind", "rank", "grading", "current"}, {"kind"}, "request.algebra"
    )
    spec = AlgebraSpec(
        kind=alg["kind"],
        rank=_get(alg, "rank", _integer, "request.algebra", 1),
        current=_get(alg, "current", _floats, "request.algebra") if "current" in alg else None,
        grading=alg.get("grading", "natural"),
    )

    sector = _get(doc, "sector", _floats, "request", ())
    if spec.kind == "heisenberg" and len(sector) != spec.rank:
        raise DomainViolation("sector length must match rank")

    par = doc["params"]
    _check_fields(
        par,
        {"z", "zeta", "tau", "supertrace", "include_c_shift", "charge_weight_shift"},
        {"tau"},
        "request.params",
    )
    if ("z" in par) == ("zeta" in par):
        raise UsageError("request.params needs exactly one of z, zeta")
    if "z" in par:
        z = l2c(par["z"])
    else:
        zeta = l2c(par["zeta"])
        if zeta == 0:
            raise UsageError("zeta must be nonzero")
        z = cmath.log(zeta) / (2j * math.pi)
    params = JacobiParams(
        z=z,
        tau=ModularPoint(l2c(par["tau"])),
        supertrace=bool(par.get("supertrace", False)),
        include_c_shift=bool(par.get("include_c_shift", False)),
        charge_weight_shift=_get(par, "charge_weight_shift", float, "request.params", 0.0),
    )

    insertions = []
    for i, ins in enumerate(_get(doc, "insertions", list, "request")):
        where = f"request.insertions[{i}]"
        _check_fields(ins, {"state", "coefficient", "z"}, {"state", "z"}, where)
        v = element_from_json(spec, ins["state"], where)
        coeff = l2c(ins.get("coefficient", 1.0))
        if coeff != 1.0:
            v = v.scaled(coeff)
        insertions.append((v, l2c(ins["z"])))

    tr = _default_truncation()
    if "truncation" in doc:
        tr = _truncation_from_json(doc["truncation"], tr, "request.truncation")

    return NPointRequest(
        spec=spec,
        sector=sector,
        cap=_get(doc, "cap", float, "request"),
        insertions=tuple(insertions),
        params=params,
        truncation=tr,
    )


def ledger_to_json(ledger) -> dict:
    terms = []
    for t in ledger.terms:
        entry = {
            "kind": t.kind,
            "k": t.k,
            "m": t.m,
            "name": t.name,
            "scale": c2l(t.scale),
            "kernel": c2l(t.kernel),
            "contribution": c2l(t.contribution),
        }
        if t.child is not None:
            entry["child"] = ledger_to_json(t.child)
        elif t.child_value is not None:
            entry["child_value"] = c2l(t.child_value)
        terms.append(entry)
    return {"n": ledger.n, "value": c2l(ledger.value), "terms": terms}


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _integer(value) -> int:
    """An int, or a float without fractional part; anything else, a bool
    included, is malformed rather than truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _strip_position(value) -> complex:
    """A position normalised into the fundamental strip (positions are
    1-periodic)."""
    w = l2c(value)
    return complex(w.real - math.floor(w.real), w.imag)


# fn -> (specfun_kernel name, fields read after tau, each as (entry field,
# kernel argument, converter)).  Kernels are named, never held, so every
# call goes through the bindings of jrl.specfun.
_K, _M = ("k", "m", _integer), ("m", "m", _integer)
_W, _Z = ("w", "w", _strip_position), ("z", "z", l2c)
EVAL_KERNELS = {
    "E": ("eisenstein", (_K,)),
    "Etwist": ("eisenstein_twisted", (_K, ("lam", "lam", float))),
    "Etilde": ("eisenstein_tilde", (_K, _Z)),
    "P": ("weier_p", (_W, _M)),
    "Ptwist": ("weier_p_twisted", (_W, _M, ("lam", "lam", _integer))),
    "Ptilde": ("weier_p_tilde", (_W, _M, _Z)),
    "Pdef": ("weier_p_deformed", (_W, _K, ("theta", "theta", l2c), ("phi", "phi", l2c))),
}
EVAL_FNS = ("B", *EVAL_KERNELS, "laurentP")


def _check_row(name: str, parameters: dict, value, residual=None, tolerance=None, ok=True) -> dict:
    """One entry of a report's checks list."""
    return {
        "name": name,
        "parameters": parameters,
        "value": value,
        "residual": residual,
        "tolerance": tolerance,
        "pass": ok,
    }


def _write_report(command: str, checks: list[dict], t0: float, timing: bool, **extra) -> int:
    """Write a command's report; the exit code is 1 when a check failed."""
    failed = sum(not c["pass"] for c in checks)
    runtime = round(time.monotonic() - t0, 6) if timing else None
    summary = {"passed": len(checks) - failed, "failed": failed, "runtime": runtime}
    report = {"schema": SCHEMA, "command": command, "checks": checks, **extra, "summary": summary}
    sys.stdout.write(dump_report(report))
    return 1 if failed else 0


def eval_entry(entry: dict, tr: Truncation) -> dict:
    _check_fields(
        entry,
        {"fn", "k", "m", "lam", "theta", "phi", "w", "z", "tau", "kind"},
        {"fn"},
        "eval entry",
    )
    fn = entry["fn"]
    if fn not in EVAL_FNS:
        raise UsageError(f"unknown fn {fn!r}; choose from {', '.join(EVAL_FNS)}")

    def need(name, convert):
        if entry.get(name) is None:
            raise UsageError(f"--fn {fn} needs --{name}")
        return _get(entry, name, convert, "eval entry")

    def result(params, value, error_estimate, **extra):
        truncation = {"n_q": tr.n_q, "n_mode": tr.n_mode, "tol": tr.tol}
        return {**_check_row(fn, params, value), "truncation": truncation,
                "error_estimate": error_estimate, **extra}

    if fn == "B":
        k = need("k", _integer)
        b = bernoulli(k)
        return result({"k": k, "exact": f"{b.numerator}/{b.denominator}"}, c2l(complex(b)), 0.0)

    tau = ModularPoint(need("tau", l2c))
    params = {"tau": c2l(tau.tau)}
    error_scale = tr.error_scale(tau)
    if fn == "laurentP":
        kind = entry.get("kind", "plain")
        k = need("k", _integer)
        fit_params = {}
        if kind == "twisted":
            fit_params["lam"] = params["lam"] = need("lam", _integer)
        elif kind == "tilde":
            fit_params["z"] = need("z", l2c)
            params["z"] = c2l(fit_params["z"])
        elif kind != "plain":
            raise UsageError(f"unknown laurentP kind {kind!r}")
        fit = laurent_coeffs_p1(kind, fit_params, tau, k, tr)
        params.update(kind=kind, k=k)
        return result(params, None, error_scale,
                      pole_coefficient=c2l(fit.pole_coefficient),
                      coefficients=[c2l(c) for c in fit.coefficients])

    name, fields = EVAL_KERNELS[fn]
    args = {"tau": tau.tau}
    for field, arg, convert in fields:
        args[arg] = need(field, convert)
    if fn == "Pdef":
        twist = TwistPair.from_theta_phi(args["theta"], args["phi"])
        args.update(theta=twist.theta, phi=twist.phi, lam=twist.lam)
    for field, arg, _ in fields:
        params[field] = c2l(args[arg]) if isinstance(args[arg], complex) else args[arg]
    return result(params, c2l(specfun_kernel(name, args, tr)), error_scale)


def cmd_eval(args) -> int:
    tr = _truncation_from_args(args)
    if args.request:
        with open(args.request, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        _check_fields(doc, {"schema", "evals", "truncation"}, {"schema", "evals"}, "eval request")
        if doc["schema"] != SCHEMA:
            raise UsageError(f"unsupported schema {doc['schema']!r}")
        if "truncation" in doc:
            tr = _truncation_from_json(doc["truncation"], tr, "eval request.truncation")
        entries = _get(doc, "evals", list, "eval request")
    else:
        if args.fn is None:
            raise UsageError("eval needs --fn or --request")
        entry = {"fn": args.fn, "k": args.k, "m": args.m, "lam": args.lam, "kind": args.kind}
        for key in ("theta", "phi", "w", "z", "tau"):
            if getattr(args, key):
                entry[key] = parse_complex(getattr(args, key))
        entries = [{k: v for k, v in entry.items() if v is not None}]

    t0 = time.monotonic()
    return _write_report("eval", [eval_entry(e, tr) for e in entries], t0, args.timing)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def cmd_reduce(args) -> int:
    from .reduction import coboundary_apply, npoint_oracle, reduce_full, reduction_family

    with open(args.request, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    req = request_from_json(doc)

    t0 = time.monotonic()
    ledger_json = None
    if args.variant == "simplest":
        value, ledger = reduce_full(req)
        if args.ledger:
            ledger_json = ledger_to_json(ledger)
    else:
        if args.ledger:
            raise UsageError("--ledger is only available for the simplest variant")
        if req.n == 0:
            value = npoint_oracle(req)
        else:
            base = req.with_insertions(req.insertions[:-1])
            vs, ws = zip(*req.insertions)
            stage = coboundary_apply(args.variant, vs[-1], reduction_family(base), base)
            value = stage.evaluate(vs, ws)

    checks = [_check_row("reduce", {"variant": args.variant, "n": req.n}, c2l(value))]
    if args.oracle:
        ref = npoint_oracle(req)
        rel = abs(value - ref) / max(1.0, abs(ref))
        checks.append(
            _check_row("oracle_match", {"oracle": c2l(ref)}, c2l(value), rel, args.tol, rel <= args.tol)
        )
    return _write_report("reduce", checks, t0, args.timing, ledger=ledger_json)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .checks import CHECKS

    selected = [c for c in CHECKS if args.suite in ("all", c.suite)]
    tr = _truncation_from_args(args)

    t0 = time.monotonic()
    residuals = [c.fn(tr) for c in selected]
    checks = []
    for c, residual in zip(selected, residuals):
        tol = args.tol if args.tol is not None else c.tolerance
        checks.append(_check_row(c.name, {"suite": c.suite}, None, residual, tol, residual <= tol))
    return _write_report("verify", checks, t0, args.timing)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _truncation_from_args(args) -> Truncation:
    tr = _default_truncation()
    if getattr(args, "nq", None) is not None:
        tr = replace(tr, n_q=args.nq)
    if getattr(args, "nmode", None) is not None:
        tr = replace(tr, n_mode=args.nmode)
    if getattr(args, "tol", None) is not None and args.command == "eval":
        tr = replace(tr, tol=args.tol)
    return tr


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a special function")
    p_eval.add_argument("--fn", choices=EVAL_FNS)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--lambda", dest="lam", type=float)
    p_eval.add_argument("--theta")
    p_eval.add_argument("--phi")
    p_eval.add_argument("--w")
    p_eval.add_argument("--z")
    p_eval.add_argument("--tau")
    p_eval.add_argument("--kind", choices=("plain", "twisted", "tilde"))
    p_eval.add_argument("--request", help="JSON file with an evals list")
    p_eval.add_argument("--nq", type=int)
    p_eval.add_argument("--nmode", type=int)
    p_eval.add_argument("--tol", type=float)
    p_eval.add_argument("--timing", action="store_true")

    p_red = sub.add_parser("reduce", help="run a reduction request")
    p_red.add_argument("--request", required=True)
    p_red.add_argument("--variant", default="simplest", choices=("simplest", "main", "shifted", "super"))
    p_red.add_argument("--ledger", action="store_true")
    p_red.add_argument("--oracle", action="store_true")
    p_red.add_argument("--tol", type=float, default=1e-4)
    p_red.add_argument("--timing", action="store_true")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", default="all", choices=("specfun", "voa", "reduction", "all"))
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--nq", type=int)
    p_ver.add_argument("--nmode", type=int)
    p_ver.add_argument("--timing", action="store_true")

    return parser


def __getattr__(name: str):
    # jrl.cli.CHECKS stays importable without loading the checks, and with
    # them the trace stack, on every start-up
    if name == "CHECKS":
        from .checks import CHECKS

        return CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# eval flags whose value may start with "-", which argparse reads as an
# option unless it is a plain negative number (not -0.2+0.9i, not -1e-3)
SIGNED_FLAGS = ("--lambda", "--theta", "--phi", "--w", "--z", "--tau")


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with "--tau -0.2+0.9i" spelled "--tau=-0.2+0.9i" for each of SIGNED_FLAGS."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in SIGNED_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "reduce":
            return cmd_reduce(args)
        return cmd_verify(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except JrlError as exc:
        sys.stdout.write(_error_report(args.command, type(exc).__name__, str(exc)))
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug: exit 3 with a report, never a traceback
        message = f"{type(exc).__name__}: {exc}"
        sys.stdout.write(_error_report(args.command, "internal_error", message))
        return 3


def _error_report(command: str, kind: str, message: str) -> str:
    return dump_report(
        {"schema": SCHEMA, "command": command, "error": {"type": kind, "message": message}}
    )


if __name__ == "__main__":
    sys.exit(main())
