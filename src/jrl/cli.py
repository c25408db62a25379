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
from dataclasses import dataclass, replace
from typing import Callable

from .errors import JrlError
from .reduction import (
    JacobiParams,
    NPointRequest,
    chain_condition_residual,
    identity_rec1,
    identity_v0_sum,
    identity_zero_res,
    kz_residual,
    npoint_oracle,
    reduce_full,
    reduction_family,
    stage_contributions,
)
from .specfun.eisenstein import (
    eisenstein,
    eisenstein_tilde,
    eisenstein_twisted,
    p1_twisted_series_coefficient,
)
from .specfun.laurent import laurent_coeffs_p1
from .specfun.points import (
    AnnulusPoint,
    ModularPoint,
    SL2Element,
    Truncation,
    TwistPair,
    default_truncation,
    phase,
)
from .specfun.series import bernoulli
from .specfun.slash import jacobi_slash
from .specfun.weierstrass import (
    weier_p,
    weier_p_deformed,
    weier_p_tilde,
    weier_p_twisted,
)
from .voa.algebra import (
    AlgebraElement,
    AlgebraSpec,
    BasisState,
    ModeOp,
    apply_mode,
    enumerate_basis,
)
from .voa.squarebracket import kappa
from .voa.trace import TraceWeights, current_state, oscillator_state, partition_function

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
    except (TypeError, ValueError, IndexError, UsageError) as exc:
        raise UsageError(f"malformed {where}.{key}: {value!r}") from exc


def _floats(value) -> tuple[float, ...]:
    return tuple(float(x) for x in value)


def _shift_pair(value) -> tuple[int, int] | None:
    return None if value is None else (int(value[0]), int(value[1]))


def _truncation_from_json(t, tr: Truncation, where: str) -> Truncation:
    """A truncation document over the defaults tr."""
    _check_fields(t, {"n_q", "n_mode", "tol"}, set(), where)
    return Truncation(
        n_q=_get(t, "n_q", int, where, tr.n_q),
        n_mode=_get(t, "n_mode", int, where, tr.n_mode),
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
    _check_fields(
        desc, {"boson", "ferm_b", "ferm_c"}, set(), f"{where}.state"
    )
    pairs = _get(desc, "boson", lambda ps: tuple((f, l) for f, l in ps), f"{where}.state", ())
    ferm_b = _get(desc, "ferm_b", tuple, f"{where}.state", ())
    ferm_c = _get(desc, "ferm_c", tuple, f"{where}.state", ())
    if not all(isinstance(x, (int, float)) for x in sum(pairs, ()) + ferm_b + ferm_c):
        raise UsageError(f"malformed {where}.state: {desc!r}")
    return AlgebraElement.from_state(
        BasisState(boson=pairs, ferm_b=ferm_b, ferm_c=ferm_c)
    )


def request_from_json(doc: dict) -> NPointRequest:
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
        rank=_get(alg, "rank", int, "request.algebra", 1),
        current=_get(alg, "current", _floats, "request.algebra") if "current" in alg else None,
        grading=alg.get("grading", "natural"),
    )

    sector = _get(doc, "sector", _floats, "request", ())

    par = doc["params"]
    _check_fields(
        par,
        {"z", "zeta", "tau", "supertrace", "include_c_shift", "charge_weight_shift", "shift"},
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
        shift=_get(par, "shift", _shift_pair, "request.params"),
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


def _state_to_json(state: BasisState):
    return {
        "boson": [list(p) for p in state.boson],
        "ferm_b": list(state.ferm_b),
        "ferm_c": list(state.ferm_c),
    }


def request_to_json(req: NPointRequest) -> dict:
    insertions = []
    for v, w in req.insertions:
        items = sorted(v.terms.items())
        if len(items) != 1:
            raise UsageError("only single-state insertions serialize losslessly")
        state, coeff = items[0]
        insertions.append(
            {"state": _state_to_json(state), "coefficient": c2l(coeff), "z": c2l(w)}
        )
    out = {
        "schema": SCHEMA,
        "algebra": {
            "kind": req.spec.kind,
            "rank": req.spec.rank,
            "grading": req.spec.grading,
        },
        "sector": list(req.sector),
        "cap": req.cap,
        "params": {
            "z": c2l(req.params.z),
            "tau": c2l(req.params.tau.tau),
            "supertrace": req.params.supertrace,
            "include_c_shift": req.params.include_c_shift,
            "charge_weight_shift": req.params.charge_weight_shift,
        },
        "insertions": insertions,
        "truncation": {
            "n_q": req.truncation.n_q,
            "n_mode": req.truncation.n_mode,
            "tol": req.truncation.tol,
        },
    }
    if req.spec.current is not None:
        out["algebra"]["current"] = list(req.spec.current)
    if req.params.shift is not None:
        out["params"]["shift"] = list(req.params.shift)
    return out


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

EVAL_FNS = ("B", "E", "Etwist", "Etilde", "P", "Ptwist", "Ptilde", "Pdef", "laurentP")


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

    params: dict = {}
    error_scale = None
    if fn == "B":
        k = need("k", int)
        b = bernoulli(k)
        params = {"k": k, "exact": f"{b.numerator}/{b.denominator}"}
        value = complex(b)
        error_scale = 0.0
    else:
        tau = ModularPoint(need("tau", l2c))
        params["tau"] = c2l(tau.tau)
        error_scale = tr.error_scale(tau)
        if fn == "E":
            params["k"] = need("k", int)
            value = eisenstein(params["k"], tau, tr)
        elif fn == "Etwist":
            params["k"] = need("k", int)
            params["lam"] = need("lam", float)
            value = eisenstein_twisted(params["k"], params["lam"], tau, tr)
        elif fn == "Etilde":
            params["k"] = need("k", int)
            z = need("z", l2c)
            params["z"] = c2l(z)
            value = eisenstein_tilde(params["k"], z, tau, tr)
        elif fn == "laurentP":
            kind = entry.get("kind", "plain")
            k = need("k", int)
            fit_params = {}
            if kind == "twisted":
                fit_params["lam"] = params["lam"] = need("lam", int)
            elif kind == "tilde":
                fit_params["z"] = need("z", l2c)
                params["z"] = c2l(fit_params["z"])
            elif kind != "plain":
                raise UsageError(f"unknown laurentP kind {kind!r}")
            fit = laurent_coeffs_p1(kind, fit_params, tau, k, tr)
            params["kind"] = kind
            params["k"] = k
            return {
                "name": "laurentP",
                "parameters": params,
                "value": None,
                "pole_coefficient": c2l(fit.pole_coefficient),
                "coefficients": [c2l(c) for c in fit.coefficients],
                "truncation": {"n_q": tr.n_q, "n_mode": tr.n_mode, "tol": tr.tol},
                "error_estimate": error_scale,
                "residual": None,
                "tolerance": None,
                "pass": True,
            }
        else:
            w = need("w", l2c)
            order = "m" if fn in ("P", "Ptwist", "Ptilde") else "k"
            params[order] = need(order, int)
            # positions are 1-periodic; normalize into the fundamental strip
            w = complex(w.real - math.floor(w.real), w.imag)
            point = AnnulusPoint(w, tau)
            params["w"] = c2l(w)
            if fn == "P":
                value = weier_p(params["m"], point, tr)
            elif fn == "Ptwist":
                params["lam"] = need("lam", int)
                value = weier_p_twisted(params["m"], params["lam"], point, tr)
            elif fn == "Ptilde":
                zc = need("z", l2c)
                params["z"] = c2l(zc)
                value = weier_p_tilde(params["m"], point, zc, tr)
            else:  # Pdef
                twist = TwistPair.from_theta_phi(need("theta", l2c), need("phi", l2c))
                params["theta"] = c2l(twist.theta)
                params["phi"] = c2l(twist.phi)
                value = weier_p_deformed(params["k"], twist, point, tr)

    return {
        "name": fn,
        "parameters": params,
        "value": c2l(value),
        "truncation": {"n_q": tr.n_q, "n_mode": tr.n_mode, "tol": tr.tol},
        "error_estimate": error_scale,
        "residual": None,
        "tolerance": None,
        "pass": True,
    }


def cmd_eval(args) -> int:
    tr = _truncation_from_args(args)
    entries: list[dict]
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
        entries = [
            {
                "fn": args.fn,
                "k": args.k,
                "m": args.m,
                "lam": args.lam,
                "theta": parse_complex(args.theta) if args.theta else None,
                "phi": parse_complex(args.phi) if args.phi else None,
                "w": parse_complex(args.w) if args.w else None,
                "z": parse_complex(args.z) if args.z else None,
                "tau": parse_complex(args.tau) if args.tau else None,
                "kind": args.kind,
            }
        ]
        entries[0] = {k: v for k, v in entries[0].items() if v is not None}

    t0 = time.monotonic()
    checks = [eval_entry(e, tr) for e in entries]
    report = {
        "schema": SCHEMA,
        "command": "eval",
        "checks": checks,
        "summary": {
            "passed": len(checks),
            "failed": 0,
            "runtime": round(time.monotonic() - t0, 6) if args.timing else None,
        },
    }
    sys.stdout.write(dump_report(report))
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def cmd_reduce(args) -> int:
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
            vs = tuple(v for v, _ in req.insertions)
            ws = tuple(w for _, w in req.insertions)
            contribs = stage_contributions(args.variant, base, reduction_family(base), vs, ws)
            value = sum((c.value for c in contribs), 0.0 + 0.0j)

    checks = [
        {
            "name": "reduce",
            "parameters": {"variant": args.variant, "n": req.n},
            "value": c2l(value),
            "residual": None,
            "tolerance": None,
            "pass": True,
        }
    ]
    failed = 0
    if args.oracle:
        ref = npoint_oracle(req)
        rel = abs(value - ref) / max(1.0, abs(ref))
        ok = rel <= args.tol
        failed += 0 if ok else 1
        checks.append(
            {
                "name": "oracle_match",
                "parameters": {"oracle": c2l(ref)},
                "value": c2l(value),
                "residual": rel,
                "tolerance": args.tol,
                "pass": ok,
            }
        )

    report = {
        "schema": SCHEMA,
        "command": "reduce",
        "checks": checks,
        "ledger": ledger_json,
        "summary": {
            "passed": len(checks) - failed,
            "failed": failed,
            "runtime": round(time.monotonic() - t0, 6) if args.timing else None,
        },
    }
    sys.stdout.write(dump_report(report))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    tolerance: float
    fn: Callable[[Truncation], float]


def _fd_derivative(f: Callable[[complex], complex], w: complex, order: int, h: float) -> complex:
    """order-fold composition of the 5-point central first-derivative stencil."""
    if order == 0:
        return f(w)
    g = lambda u: _fd_derivative(f, u, order - 1, h)
    return (-g(w + 2 * h) + 8 * g(w + h) - 8 * g(w - h) + g(w - 2 * h)) / (12 * h)


def _truncated_product(factors, cap_units: int, q_unit: complex) -> complex:
    """Evaluate prod (1 + a_i q^{e_i}) keeping exponents <= cap_units."""
    poly = {0: 1.0 + 0.0j}
    for e, a in factors:
        if e > cap_units:
            continue
        for k in sorted(poly, reverse=True):
            ke = k + e
            if ke <= cap_units:
                poly[ke] = poly.get(ke, 0.0 + 0.0j) + poly[k] * a
    return sum(poly[k] * q_unit**k for k in sorted(poly))


def _chk_eisenstein_exact(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    r = abs(eisenstein(0, tau, tr) + 1.0)
    for k in (3, 5, 7, 9):
        r = max(r, abs(eisenstein(k, tau, tr)))
    return r


def _chk_twisted_shift(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    p = AnnulusPoint(0.1 + 0.08j, tau)
    base = weier_p(1, p, tr) + 0.5
    r = 0.0
    for lam in (-2, -1, 0, 1, 2, 3):
        r = max(r, abs(weier_p_twisted(1, lam, p, tr) - p.q_w ** (-lam) * base))
    return r


def _chk_twisted_expansion(tr: Truncation) -> float:
    # series coefficients of P_{1,lam} from the shift identity, via the
    # explicit Cauchy product of exp(-lam u) with 1/u + 1/2 - sum E_j u^{j-1}
    tau = ModularPoint(0.5j)
    es = [eisenstein(j, tau, tr) for j in range(0, 9)]
    r = 0.0
    for lam in (1, 2):
        for k in range(1, 9):
            conv = (-lam) ** k / math.factorial(k) + 0.5 * (-lam) ** (k - 1) / math.factorial(k - 1)
            for j in range(2, k + 1):
                conv -= es[j] * (-lam) ** (k - j) / math.factorial(k - j)
            r = max(r, abs(p1_twisted_series_coefficient(k, lam, tau, tr) + conv))
    return r


def _chk_twisted_laurent(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    fit = laurent_coeffs_p1("twisted", {"lam": 1}, tau, 6, tr)
    r = abs(fit.pole_coefficient - 1.0)
    for k in range(1, 7):
        r = max(r, abs(fit[k - 1] + p1_twisted_series_coefficient(k, 1, tau, tr)))
    return r


def _chk_tilde_laurent(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    z = 0.23 - 0.11j
    fit = laurent_coeffs_p1("tilde", {"z": z}, tau, 6, tr)
    r = abs(fit.pole_coefficient - 1.0)
    for k in range(1, 7):
        r = max(r, abs(fit[k - 1] + eisenstein_tilde(k, z, tau, tr)))
    return r


def _chk_e2_anomaly(tr: Truncation) -> float:
    tr60 = replace(tr, n_q=max(tr.n_q, 60))
    tau = 1.0j
    s = -1.0 / tau
    e2 = eisenstein(2, ModularPoint(tau), tr60)
    e2s = eisenstein(2, ModularPoint(s), tr60)
    return abs(e2s - tau * tau * e2 + tau / (2j * math.pi))


def _chk_e4_s_invariance(tr: Truncation) -> float:
    tr60 = replace(tr, n_q=max(tr.n_q, 60))
    tau = 0.2 + 0.9j
    s = -1.0 / tau
    return abs(eisenstein(4, ModularPoint(s), tr60) - tau**4 * eisenstein(4, ModularPoint(tau), tr60))


def _chk_slash_e4(tr: Truncation) -> float:
    tr60 = replace(tr, n_q=max(tr.n_q, 60))
    gamma = SL2Element(0, -1, 1, 0)
    f = lambda z, t: eisenstein(4, ModularPoint(t), tr60)
    tau = 0.1 + 1.1j
    got = jacobi_slash(f, 4, 0.0, gamma, (0.0, 0.0), 0.0, tau)
    return abs(got - eisenstein(4, ModularPoint(tau), tr60))


def _chk_p_derivative_chain(tr: Truncation) -> float:
    tau = ModularPoint(0.5j)
    w0 = 0.31 + 0.07j
    h = 1e-3
    two_pi_i = 2j * math.pi
    r = 0.0
    fams = [
        (lambda u: weier_p(1, AnnulusPoint(u, tau), tr), lambda m, u: weier_p(m, AnnulusPoint(u, tau), tr)),
        (
            lambda u: weier_p_tilde(1, AnnulusPoint(u, tau), 0.23 - 0.11j, tr),
            lambda m, u: weier_p_tilde(m, AnnulusPoint(u, tau), 0.23 - 0.11j, tr),
        ),
    ]
    for f1, fm in fams:
        for m in range(1, 5):
            want = fm(m + 1, w0)
            got = (-1) ** m / math.factorial(m) * _fd_derivative(f1, w0, m, h) / two_pi_i**m
            r = max(r, abs(got - want) / max(1.0, abs(want)))
    return r


def _chk_heisenberg_partition(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    alpha = 0.4
    cap = 12
    module = enumerate_basis(spec, (alpha,), cap)
    tau = ModularPoint(0.5j)
    z = 0.23 - 0.11j
    got = partition_function(module, tau, TraceWeights(flux_z=z))
    q = tau.q
    poly = [1.0 + 0.0j] + [0.0j] * cap
    for n in range(1, cap + 1):
        # multiply by 1/(1-q^n) = sum_j q^{jn}
        for k in range(n, cap + 1):
            poly[k] += poly[k - n]
    series = sum(poly[k] * q**k for k in range(cap + 1))
    want = phase(z * alpha + tau.tau * alpha * alpha / 2.0) * series
    return abs(got - want) / max(1.0, abs(want))


def _chk_real_fermion_partition(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="real_fermion", grading="natural")
    cap = 11.5
    module = enumerate_basis(spec, (), cap)
    tau = ModularPoint(0.5j)
    got = partition_function(module, tau, TraceWeights())
    qh = phase(tau.tau / 2.0)
    units = int(2 * cap)
    want = _truncated_product(
        [(2 * n - 1, 1.0 + 0.0j) for n in range(1, units + 2)], units, qh
    )
    sup = partition_function(module, tau, TraceWeights(supertrace=True))
    want_sup = _truncated_product(
        [(2 * n - 1, -1.0 + 0.0j) for n in range(1, units + 2)], units, qh
    )
    return max(abs(got - want), abs(sup - want_sup)) / max(1.0, abs(want))


def _chk_complex_fermion_flux(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    cap = 12
    module = enumerate_basis(spec, (), cap)
    tau = ModularPoint(0.5j)
    z = 0.23 - 0.11j
    zeta = phase(z)
    got = partition_function(module, tau, TraceWeights(flux_z=z))
    factors = [(n, zeta) for n in range(1, cap + 1)]
    factors += [(n - 1, 1.0 / zeta) for n in range(1, cap + 2)]
    want = _truncated_product(factors, cap, tau.q)
    return abs(got - want) / max(1.0, abs(want))


def _chk_kappa_reference(tr: Truncation) -> float:
    r = abs(kappa(1.0, -1, 1) + 1.0 / 12.0)
    r = max(r, abs(kappa(1.0, -1, 0) - 0.5))
    r = max(r, abs(kappa(1.0, 0, 1)))
    return r


def _chk_mode_commutator(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    module = enumerate_basis(spec, (0.3,), 6)
    up = ModeOp("a", -2)
    dn = ModeOp("a", 2)
    r = 0.0
    for s in module.states:
        if module.level(s) > 4:
            continue  # keep a(-2) images inside the cap
        x = AlgebraElement.from_state(s)
        lhs = apply_mode(dn, apply_mode(up, x, module), module)
        rhs = apply_mode(up, apply_mode(dn, x, module), module).plus(x.scaled(2.0))
        r = max(r, lhs.plus(rhs.scaled(-1.0)).norm1())
    return r


def _heis_request(tr: Truncation, cap: float = 8.0, n: int = 1) -> NPointRequest:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    params = JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j))
    ws = [0.12j, 0.31j][:n]
    ins = tuple((current_state(spec), w) for w in ws)
    return NPointRequest(
        spec=spec, sector=(0.6,), cap=cap, insertions=ins, params=params, truncation=tr
    )


def _chk_one_point_current(tr: Truncation) -> float:
    req = _heis_request(tr)
    value, _ = reduce_full(req)
    ref = npoint_oracle(req)
    return abs(value - ref) / max(1.0, abs(ref))


def _chk_v0_sum(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    params = JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j), supertrace=True)
    req = NPointRequest(
        spec=spec,
        sector=(),
        cap=8.0,
        insertions=(
            (oscillator_state("b", 1), 0.12j),
            (oscillator_state("c", 1), 0.31j),
        ),
        params=params,
        truncation=tr,
    )
    return identity_v0_sum(req, current_state(spec))


def _chk_rec1(tr: Truncation) -> float:
    return identity_rec1(_heis_request(tr), current_state(AlgebraSpec(kind="heisenberg", rank=1)), 1)


def _chk_zero_res(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="complex_fermion", grading="charge_shifted")
    tau = ModularPoint(0.5j)
    params = JacobiParams(z=tau.tau, tau=tau, supertrace=True)
    req = NPointRequest(
        spec=spec,
        sector=(),
        cap=10.0,
        insertions=((oscillator_state("c", 1), 0.2j),),
        params=params,
        truncation=tr,
    )
    return identity_zero_res(req, oscillator_state("b", 1))


def _chk_chain(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=2)
    params = JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j))
    base = NPointRequest(
        spec=spec,
        sector=(0.7, 0.0),
        cap=6.0,
        insertions=((oscillator_state("a", 1, 0), 0.11j),),
        params=params,
        truncation=tr,
    )
    return chain_condition_residual(
        "simplest",
        oscillator_state("a", 1, 0),
        oscillator_state("a", 1, 1),
        reduction_family(base),
        base,
        n_samples=4,
    )


def _chk_kz(tr: Truncation) -> float:
    spec = AlgebraSpec(kind="heisenberg", rank=1)
    base = _heis_request(tr)
    return kz_residual(base, current_state(spec), 0.31j)


CHECKS: tuple[Check, ...] = (
    Check("eisenstein_odd_and_zero_index", "specfun", 0.0, _chk_eisenstein_exact),
    Check("twisted_shift_identity", "specfun", 1e-12, _chk_twisted_shift),
    Check("twisted_series_expansion", "specfun", 1e-12, _chk_twisted_expansion),
    Check("twisted_laurent_fit", "specfun", 1e-8, _chk_twisted_laurent),
    Check("tilde_laurent_fit", "specfun", 1e-8, _chk_tilde_laurent),
    Check("e2_modular_anomaly", "specfun", 1e-10, _chk_e2_anomaly),
    Check("e4_s_invariance", "specfun", 1e-10, _chk_e4_s_invariance),
    Check("slash_action_e4", "specfun", 1e-10, _chk_slash_e4),
    Check("p_derivative_chain", "specfun", 1e-6, _chk_p_derivative_chain),
    Check("heisenberg_partition_product", "voa", 1e-10, _chk_heisenberg_partition),
    Check("real_fermion_partition_product", "voa", 1e-10, _chk_real_fermion_partition),
    Check("complex_fermion_flux_product", "voa", 1e-10, _chk_complex_fermion_flux),
    Check("kappa_reference_values", "voa", 1e-14, _chk_kappa_reference),
    Check("mode_commutator", "voa", 1e-12, _chk_mode_commutator),
    Check("one_point_current_match", "reduction", 1e-5, _chk_one_point_current),
    Check("v0_sum_complex_fermion", "reduction", 1e-10, _chk_v0_sum),
    Check("rec1_beta_one", "reduction", 1e-6, _chk_rec1),
    Check("zero_res_lattice_flux", "reduction", 1e-8, _chk_zero_res),
    Check("chain_cross_flavor", "reduction", 1e-8, _chk_chain),
    Check("kz_self_consistency", "reduction", 1e-8, _chk_kz),
)


def cmd_verify(args) -> int:
    if args.suite == "all":
        selected = list(CHECKS)
    else:
        selected = [c for c in CHECKS if c.suite == args.suite]
    tr = _truncation_from_args(args)

    t0 = time.monotonic()
    residuals = [c.fn(tr) for c in selected]

    checks = []
    failed = 0
    for c, residual in zip(selected, residuals):
        tol = args.tol if args.tol is not None else c.tolerance
        ok = residual <= tol
        failed += 0 if ok else 1
        checks.append(
            {
                "name": c.name,
                "parameters": {"suite": c.suite},
                "value": None,
                "residual": residual,
                "tolerance": tol,
                "pass": ok,
            }
        )

    report = {
        "schema": SCHEMA,
        "command": "verify",
        "checks": checks,
        "summary": {
            "passed": len(checks) - failed,
            "failed": failed,
            "runtime": round(time.monotonic() - t0, 6) if args.timing else None,
        },
    }
    sys.stdout.write(dump_report(report))
    return 1 if failed else 0


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(dump_report(report))
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
