import json
import math
import os
import subprocess
import sys

import pytest

from jrl.specfun import AnnulusPoint, ModularPoint, Truncation, weier_p
from jrl.specfun.points import MAX_ORDER, phase
from test_cli_fuzz import REDUCE as FUZZ_REDUCE, _refuse_constant

BASE_REQUEST = {
    "schema": 1,
    "algebra": {"kind": "heisenberg", "rank": 1},
    "sector": [0.6],
    "cap": 6.0,
    "params": {"z": [0.23, -0.11], "tau": [0.0, 0.5]},
    "insertions": [{"state": "J", "z": [0.0, 0.12]}],
}


def run_cli(*args, env_extra=None, request=None, tmp_path=None):
    cmd = [sys.executable, "-m", "jrl", *args]
    env = os.environ.copy()
    env.pop("JRL_DEFAULT_NQ", None)
    env.pop("JRL_DEFAULT_TOL", None)
    if env_extra:
        env.update(env_extra)
    if request is not None:
        path = tmp_path / "request.json"
        path.write_text(json.dumps(request))
        cmd += ["--request", str(path)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_eval_eisenstein_odd_is_zero():
    r = run_cli("eval", "--fn", "E", "--k", "3", "--tau", "0.5i")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == 1
    assert doc["command"] == "eval"
    chk = doc["checks"][0]
    assert chk["value"] == [0.0, 0.0]
    assert chk["truncation"]["n_q"] == 12


def test_eval_twisted_exact_value():
    r = run_cli("eval", "--fn", "Etwist", "--k", "1", "--lambda", "2", "--tau", "0.5i")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["checks"][0]["value"] == [-2.0, 0.0]


def test_eval_bernoulli_exact_fraction():
    r = run_cli("eval", "--fn", "B", "--k", "12")
    assert r.returncode == 0
    chk = json.loads(r.stdout)["checks"][0]
    assert chk["parameters"]["exact"] == "-691/2730"
    assert abs(chk["value"][0] + 691.0 / 2730.0) < 1e-15


def test_eval_periodicity_normalizes_w():
    a = run_cli("eval", "--fn", "P", "--m", "1", "--w", "0.1+0.08i", "--tau", "0.5i")
    b = run_cli("eval", "--fn", "P", "--m", "1", "--w", "1.1+0.08i", "--tau", "0.5i")
    assert a.returncode == 0 and b.returncode == 0
    va = json.loads(a.stdout)["checks"][0]["value"]
    vb = json.loads(b.stdout)["checks"][0]["value"]
    assert abs(complex(*va) - complex(*vb)) < 1e-12


def test_eval_env_default_truncation():
    r = run_cli(
        "eval",
        "--fn",
        "E",
        "--k",
        "4",
        "--tau",
        "0.5i",
        env_extra={"JRL_DEFAULT_NQ": "20"},
    )
    doc = json.loads(r.stdout)
    assert doc["checks"][0]["truncation"]["n_q"] == 20
    # explicit flag wins over the environment
    r2 = run_cli(
        "eval",
        "--fn",
        "E",
        "--k",
        "4",
        "--tau",
        "0.5i",
        "--nq",
        "25",
        env_extra={"JRL_DEFAULT_NQ": "20"},
    )
    doc2 = json.loads(r2.stdout)
    assert doc2["checks"][0]["truncation"]["n_q"] == 25


def test_eval_missing_fn_is_usage_error():
    r = run_cli("eval", "--k", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error" in r.stderr


def test_reduce_with_oracle_check(tmp_path):
    r = run_cli("reduce", "--oracle", request=BASE_REQUEST, tmp_path=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    doc = json.loads(r.stdout)
    names = [c["name"] for c in doc["checks"]]
    assert "oracle_match" in names
    match = next(c for c in doc["checks"] if c["name"] == "oracle_match")
    assert match["pass"] is True
    assert match["residual"] < 1e-4
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["runtime"] is None


def test_reduce_oracle_mismatch_exits_one(tmp_path):
    r = run_cli(
        "reduce", "--oracle", "--tol", "1e-30", request=BASE_REQUEST, tmp_path=tmp_path
    )
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    match = next(c for c in doc["checks"] if c["name"] == "oracle_match")
    assert match["pass"] is False
    assert doc["summary"]["failed"] >= 1


def test_reduce_ledger_lists_stage_terms(tmp_path):
    r = run_cli("reduce", "--ledger", request=BASE_REQUEST, tmp_path=tmp_path)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert "ledger" in doc
    kinds = [t["kind"] for t in doc["ledger"]["terms"]]
    assert kinds == ["zero_scalar"]


def test_reduce_ledger_only_for_simplest(tmp_path):
    r = run_cli(
        "reduce",
        "--ledger",
        "--variant",
        "super",
        request=BASE_REQUEST,
        tmp_path=tmp_path,
    )
    assert r.returncode == 2


def test_reduce_rejects_unknown_request_field(tmp_path):
    bad = dict(BASE_REQUEST)
    bad["twist_field"] = "J"
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2


def test_reduce_rejects_both_z_and_zeta(tmp_path):
    bad = dict(BASE_REQUEST)
    bad["params"] = {"z": [0.1, 0.0], "zeta": [1.0, 0.0], "tau": [0.0, 0.5]}
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2


def test_reduce_rejects_out_of_range_boson_flavor(tmp_path):
    bad = dict(BASE_REQUEST)
    bad["insertions"] = [{"state": {"boson": [[3, 1]]}, "z": [0.0, 0.12]}]
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "DomainViolation"


@pytest.mark.parametrize(
    "algebra, sector, state",
    [
        ({"kind": "heisenberg", "rank": 1}, [0.6], {"boson": [[0, 0]]}),
        ({"kind": "complex_fermion"}, [], {"ferm_b": [0]}),
    ],
    ids=["boson_level_zero", "fermion_label_zero"],
)
def test_reduce_rejects_creator_label_below_one(tmp_path, algebra, sector, state):
    # these used to reach the reduction and fail the oracle check (exit 1)
    bad = dict(BASE_REQUEST)
    bad["algebra"] = algebra
    bad["sector"] = sector
    bad["insertions"] = [{"state": state, "z": [0.0, 0.12]}]
    r = run_cli("reduce", "--oracle", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "DomainViolation"


@pytest.mark.parametrize(
    "section, field, value",
    [
        (None, "cap", "eight"),
        (None, "insertions", 5),
        ("algebra", "rank", "two"),
        (None, "sector", "x"),
        (None, "insertions", [{"state": {"boson": [[0, "a"]]}, "z": [0.0, 0.12]}]),
        (None, "truncation", {"n_q": "x"}),
        (None, "truncation", {"n_q": 12.7}),
        ("algebra", "rank", True),
    ],
    ids=[
        "cap", "insertions", "rank", "sector", "boson_label", "truncation",
        "truncation_fraction", "rank_bool",
    ],
)
def test_reduce_rejects_malformed_values(tmp_path, section, field, value):
    bad = json.loads(json.dumps(BASE_REQUEST))
    (bad if section is None else bad[section])[field] = value
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert "malformed" in r.stderr and field in r.stderr


@pytest.mark.parametrize("value", [[1, 0], [1.5, 0]], ids=["shift", "shift_fraction"])
def test_reduce_rejects_params_shift(tmp_path, value):
    # a forced lattice shift disagreed with the direct trace wherever the
    # flux selects another branch, so shift is not a request field
    bad = json.loads(json.dumps(BASE_REQUEST))
    bad["params"]["shift"] = value
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert "unknown fields in request.params: ['shift']" in r.stderr


README_REQUEST = {
    **BASE_REQUEST,
    "cap": 8.0,
    "insertions": [{"state": "J", "z": [0.0, 0.12]}, {"state": "J", "z": [0.0, 0.31]}],
}


@pytest.mark.parametrize(
    "section, field, value",
    [
        (None, "sector", [math.nan]),
        (None, "sector", [math.inf]),
        ("params", "charge_weight_shift", math.nan),
        ("insertions", 1, {"state": "J", "coefficient": [math.inf, 0], "z": [0.0, 0.31]}),
        # finite, but the trace weights q^{wt} overflow
        ("params", "charge_weight_shift", -1000),
    ],
    ids=[
        "sector_nan", "sector_inf", "charge_weight_shift_nan", "coefficient_inf",
        "charge_weight_shift_overflow",
    ],
)
def test_reduce_refuses_fields_that_would_report_nan(tmp_path, section, field, value):
    # each of these used to reduce to "value": [NaN, NaN] with exit 0
    bad = json.loads(json.dumps(README_REQUEST))
    (bad if section is None else bad[section])[field] = value
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "DomainViolation"


@pytest.mark.parametrize(
    "coefficient, oracle, code",
    [(1e300, True, 2), (1e300, False, 0), (1e200, True, 0), (1e200, False, 0)],
    ids=["1e300_oracle", "1e300", "1e200_oracle", "1e200"],
)
def test_reduce_refuses_an_oracle_past_the_float_range(tmp_path, coefficient, oracle, code):
    # at 1e300 the reduction is 6.98e299 + 8.23e299i, while the direct
    # trace's path amplitudes overflow: it used to report the oracle as NaN
    doc = json.loads(json.dumps(FUZZ_REDUCE[0]))
    doc["insertions"][1]["coefficient"] = [coefficient, 0.0]
    r = run_cli("reduce", *(["--oracle"] if oracle else []), request=doc, tmp_path=tmp_path)
    assert r.returncode == code, r.stdout + r.stderr
    assert r.stderr == ""
    report = json.loads(r.stdout, parse_constant=_refuse_constant)
    if code == 2:
        assert report["error"]["type"] == "DomainViolation"
    else:
        assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize(
    "offset, code, error",
    [(1e-7, 2, "BranchUnresolved"), (1e-3, 0, None)],
    ids=["inside_the_band", "outside_the_band"],
)
def test_reduce_flux_near_the_lattice(tmp_path, offset, code, error):
    # the distinguished c has charge -1, so alpha z = -(tau + offset): 1e-7
    # from the lattice is inside the suspicion band, which picks no branch
    doc = {
        "schema": 1,
        "algebra": {"kind": "complex_fermion", "grading": "charge_shifted"},
        "cap": 3.0,
        "params": {"z": [offset, 0.6], "tau": [0.0, 0.6]},
        "insertions": [{"state": "b", "z": [0.0, 0.12]}, {"state": "c", "z": [0.3, 0.31]}],
    }
    r = run_cli("reduce", request=doc, tmp_path=tmp_path)
    assert r.returncode == code, r.stdout + r.stderr
    assert json.loads(r.stdout).get("error", {}).get("type") == error


def test_reduce_oracle_takes_the_bilinear_field(tmp_path):
    # the direct trace takes the b-c bilinear as a field, so the oracle
    # check runs on a request whose distinguished insertion is J
    doc = {
        "schema": 1,
        "algebra": {"kind": "complex_fermion", "grading": "charge_shifted"},
        "cap": 3.0,
        "params": {"z": [0.23, -0.11], "tau": [0.0, 0.8], "supertrace": True},
        "insertions": [
            {"state": "b", "z": [0.0, 0.1]},
            {"state": "c", "z": [0.0, 0.35]},
            {"state": "J", "z": [0.0, 0.6]},
        ],
    }
    r = run_cli("reduce", "--oracle", request=doc, tmp_path=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    match = next(c for c in json.loads(r.stdout)["checks"] if c["name"] == "oracle_match")
    assert match["pass"] and match["residual"] <= match["tolerance"]


def test_reduce_oracle_past_level_six(tmp_path):
    # b(-7)vac and c(-7)vac: J[0] maps them to level-7 states, which the
    # images keep
    doc = {
        "schema": 1,
        "algebra": {"kind": "complex_fermion", "grading": "charge_shifted"},
        "cap": 12,
        "params": {"z": [0.23, -0.11], "tau": [0.0, 0.8], "supertrace": True},
        "insertions": [
            {"state": {"ferm_b": [7]}, "z": [0.0, 0.1]},
            {"state": {"ferm_c": [7]}, "z": [0.0, 0.2]},
            {"state": "J", "z": [0.0, 0.31]},
        ],
    }
    r = run_cli("reduce", "--oracle", request=doc, tmp_path=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    match = next(c for c in json.loads(r.stdout)["checks"] if c["name"] == "oracle_match")
    assert match["pass"] and match["residual"] <= match["tolerance"]


def test_reduce_accepts_zeta_alias(tmp_path):
    import cmath
    import math

    via_zeta = dict(BASE_REQUEST)
    z = complex(0.23, -0.11)
    zeta = cmath.exp(2j * math.pi * z)
    via_zeta["params"] = {"zeta": [zeta.real, zeta.imag], "tau": [0.0, 0.5]}
    a = run_cli("reduce", request=BASE_REQUEST, tmp_path=tmp_path)
    b = run_cli("reduce", request=via_zeta, tmp_path=tmp_path)
    va = next(c for c in json.loads(a.stdout)["checks"] if c["name"] == "reduce")
    vb = next(c for c in json.loads(b.stdout)["checks"] if c["name"] == "reduce")
    assert abs(complex(*va["value"]) - complex(*vb["value"])) < 1e-10


def test_verify_specfun_passes_and_is_byte_stable():
    a = run_cli("verify", "--suite", "specfun")
    b = run_cli("verify", "--suite", "specfun")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["summary"]["failed"] == 0
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("flag, env", [(["--nq", "4"], {}), ([], {"JRL_DEFAULT_NQ": "4"})])
def test_verify_truncation_reaches_reduction_checks(monkeypatch, capsys, flag, env):
    # every request a reduction check builds carries the flag's n_q (the
    # residual that moves with it is tested below)
    from jrl import cli
    from jrl.reduction import NPointRequest

    monkeypatch.delenv("JRL_DEFAULT_NQ", raising=False)
    monkeypatch.delenv("JRL_DEFAULT_TOL", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    seen = []
    post_init = NPointRequest.__post_init__

    def record(self):
        seen.append(self.truncation.n_q)
        post_init(self)

    monkeypatch.setattr(NPointRequest, "__post_init__", record)
    assert cli.main(["verify", "--suite", "reduction", *flag]) == 0
    capsys.readouterr()
    assert seen and set(seen) == {4}


def test_verify_impossible_tolerance_fails():
    r = run_cli("verify", "--suite", "specfun", "--tol", "1e-30")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["summary"]["failed"] >= 1


def test_verify_report_is_sorted_json_with_newline():
    r = run_cli("verify", "--suite", "specfun")
    assert r.stdout.endswith("\n")
    doc = json.loads(r.stdout)
    assert r.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_missing_request_file_exits_two(tmp_path):
    r = run_cli("reduce", "--request", str(tmp_path / "absent.json"))
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("--fn", "P", "--m", "0", "--w", "0.1+0.2i", "--tau", "0.5i"),
        ("--fn", "laurentP", "--k", "13", "--tau", "0.5i"),
        ("--fn", "E", "--k", "-2", "--tau", "0.5i"),
        ("--fn", "B", "--k", "-1"),
        ("--fn", "P", "--m", "120", "--w", "0.1+0.2i", "--tau", "0.5i", "--nmode", "4096"),
        ("--fn", "E", "--k", str(MAX_ORDER + 1), "--tau", "0.5i"),
        ("--fn", "P", "--m", str(MAX_ORDER + 1), "--nmode", "2", "--w", "0.1+0.2i", "--tau", "0.5i"),
        ("--fn", "B", "--k", str(MAX_ORDER + 1)),
        ("--fn", "E", "--k", str(MAX_ORDER), "--tau", "0.01i", "--nq", "512"),
        ("--fn", "laurentP", "--kind", "plain", "--k", "4", "--tau", "6i", "--nq", "512"),
        ("--fn", "laurentP", "--kind", "tilde", "--z", "0.5i", "--k", "2", "--tau", "0.5i"),
        # lam^j and q_w^(-lam) pass the float range: a typed refusal, never
        # an OverflowError reported as internal_error
        ("--fn", "Etwist", "--k", "100", "--lambda", "1e5", "--tau", "0.5i"),
        ("--fn", "Ptwist", "--m", "1", "--lambda", "2000", "--w", "0.1+0.2i", "--tau", "0.5i"),
        # |q| rounds to 1 or q underflows, and q_z underflows or overflows;
        # these must not reach a division by zero or an OverflowError
        ("--fn", "E", "--k", "4", "--tau", "1e-20i"),
        ("--fn", "P", "--m", "2", "--w", "0.1+1e-21i", "--tau", "1e-20i"),
        ("--fn", "Pdef", "--k", "2", "--theta", "0.6+0.8i", "--phi", "-1", "--w", "0.1+100i",
         "--tau", "200i"),
        ("--fn", "E", "--k", "4", "--tau", "200i"),
        ("--fn", "Ptilde", "--m", "2", "--z", "400i", "--w", "0.1+0.2i", "--tau", "0.5i"),
        ("--fn", "Ptilde", "--m", "2", "--z=-400i", "--w", "0.1+0.2i", "--tau", "0.5i"),
        ("--fn", "laurentP", "--kind", "twisted", "--lambda", "1e29", "--k", "2",
         "--tau", "0.5i"),
    ],
    ids=[
        "P_order_zero", "laurent_order_13", "E_negative_index", "B_negative_index", "P_overflow",
        "E_past_max_order", "P_past_max_order", "B_past_max_order", "E_terms_overflow",
        "laurent_strip_overflow", "laurent_flux_off_strip", "Etwist_power_overflow",
        "Ptwist_power_overflow", "E_nome_rounds_to_one", "P_nome_rounds_to_one",
        "Pdef_nome_underflow", "E_nome_underflow", "Ptilde_flux_underflow",
        "Ptilde_flux_overflow", "laurent_twisted_power_overflow",
    ],
)
def test_eval_out_of_domain_is_typed_error(args):
    r = run_cli("eval", *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "DomainViolation"


def test_eval_twisted_kernel_past_the_power_of_q():
    # q^-300 alone passes the float range, but after the shift n -> n - lam
    # the one large factor is q_w^-300, the size of the value
    r = run_cli("eval", "--fn", "Ptwist", "--m", "1", "--lambda", "300", "--w", "0.1+0.2i",
                "--tau", "0.5i")
    assert r.returncode == 0, r.stdout + r.stderr
    got = complex(*json.loads(r.stdout)["checks"][0]["value"])
    p = AnnulusPoint(0.1 + 0.2j, ModularPoint(0.5j))
    want = phase(-300 * p.w) * (weier_p(1, p, Truncation()) + 0.5)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize(
    "args",
    [
        ("--fn", "Etilde", "--k", "2", "--z", "0.3i", "--tau", "0.5i", "--nq", "512"),
        ("--fn", "E", "--k", str(MAX_ORDER), "--tau", "0.5i", "--nq", "512"),
        (
            "--fn", "laurentP", "--kind", "tilde", "--z", "0.49i", "--k", "2", "--tau", "0.5i",
            "--nq", "512",
        ),
    ],
    ids=["Etilde_flux_overflow", "E_power_overflow", "laurent_tilde_nan"],
)
def test_eval_at_the_largest_truncation_is_finite(args):
    # each term is finite, but one of its factors alone overflows at
    # n_q 512; a non-finite number must never be reported as a pass
    r = run_cli("eval", *args)
    assert r.returncode == 0, r.stdout + r.stderr
    chk = json.loads(r.stdout)["checks"][0]
    numbers = [chk["value"]] if chk["value"] is not None else chk["coefficients"]
    assert chk["pass"] and all(math.isfinite(x) for pair in numbers for x in pair)


@pytest.mark.parametrize(
    "entry, env, field",
    [
        ({"fn": "E", "k": "x", "tau": [0, 0.5]}, None, "k"),
        ({"fn": "P", "m": 1, "w": "w", "tau": [0, 0.5]}, None, "w"),
        ({"fn": "Etwist", "k": 2, "lam": [1], "tau": [0, 0.5]}, None, "lam"),
        ({"fn": "E", "k": 4, "tau": [0, 0.5]}, {"JRL_DEFAULT_NQ": "x"}, "JRL_DEFAULT_NQ"),
        ({"fn": "E", "k": 2.7, "tau": [0, 0.5]}, None, "k"),
        ({"fn": "P", "m": True, "w": [0.1, 0.2], "tau": [0, 0.5]}, None, "m"),
        ({"fn": "Ptwist", "m": 1, "lam": 2.5, "w": [0.1, 0.2], "tau": [0, 0.5]}, None, "lam"),
        ({"fn": "laurentP", "kind": "twisted", "lam": 1.5, "k": 4, "tau": [0, 0.5]}, None, "lam"),
        ({"fn": "B", "k": "4"}, None, "k"),
    ],
    ids=["k", "w", "lam", "env_nq", "k_fraction", "m_bool", "Ptwist_lam", "laurentP_lam", "k_string"],
)
def test_eval_rejects_malformed_values(tmp_path, entry, env, field):
    doc = {"schema": 1, "evals": [entry]}
    r = run_cli("eval", env_extra=env, request=doc, tmp_path=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert "malformed" in r.stderr and field in r.stderr


@pytest.mark.parametrize(
    "state, stream, expect",
    [
        ({"ferm_b": [1.5]}, "stderr", "malformed request.insertions[0].state.ferm_b"),
        ({"ferm_b": [1, 1]}, "stdout", "repeats a fermion label"),
        # b(-2)b(-1) = -b(-1)b(-2): sorting would drop the sign
        ({"ferm_c": [2, 1]}, "stderr", "request.insertions[0].state.ferm_c labels must be ascending"),
    ],
    ids=["fractional_label", "repeated_label", "unsorted_labels"],
)
def test_reduce_rejects_malformed_fermion_labels(tmp_path, state, stream, expect):
    # the fraction used to end in a TypeError traceback with exit 1, the
    # repeat in "outside the supported families"
    bad = dict(BASE_REQUEST)
    bad["algebra"] = {"kind": "complex_fermion"}
    bad["sector"] = []
    bad["insertions"] = [{"state": state, "z": [0.0, 0.12]}]
    r = run_cli("reduce", "--oracle", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert expect in getattr(r, stream)


def test_state_labels_are_canonicalised(tmp_path):
    from jrl.cli import element_from_json
    from jrl.voa import AlgebraElement, AlgebraSpec, BasisState

    spec = AlgebraSpec(kind="heisenberg", rank=2)
    pair = AlgebraElement.from_state(BasisState(boson=((0, 1), (1, 1))))
    assert element_from_json(spec, {"boson": [[1, 1], [0, 1.0]]}, "x") == pair
    docs = []
    for boson in ([[0, 1], [1, 1]], [[1, 1], [0, 1]]):
        doc = json.loads(json.dumps(BASE_REQUEST))
        doc.update(algebra={"kind": "heisenberg", "rank": 2}, sector=[0.7, 0.3], cap=2.0)
        doc["insertions"] = [{"state": {"boson": boson}, "z": [0.0, 0.12]}]
        docs.append(run_cli("reduce", "--ledger", request=doc, tmp_path=tmp_path))
    assert docs[0].returncode == 0, docs[0].stdout + docs[0].stderr
    assert docs[0].stdout == docs[1].stdout


def test_verify_nq_moves_a_reduction_residual(capsys, monkeypatch):
    # two_current_negative_mode compares an E_2 kernel, a q-series cut at
    # n_q, with the direct trace
    from jrl import cli

    monkeypatch.delenv("JRL_DEFAULT_NQ", raising=False)
    reports = []
    for flag in ([], ["--nq", "4"]):
        assert cli.main(["verify", "--suite", "reduction", *flag]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    residuals = [
        next(c["residual"] for c in doc["checks"] if c["name"] == "two_current_negative_mode")
        for doc in reports
    ]
    assert residuals[0] < 1e-12 < 1e-7 < residuals[1] < 1e-5


def test_verify_nmode_fails_only_the_two_current_match(capsys, monkeypatch):
    # two_current_match reduces J J through a P_2 mode sum cut at n_mode
    # (residual 2.4e-4 at n_mode 8); no other reduction check reads n_mode
    from jrl import cli

    monkeypatch.delenv("JRL_DEFAULT_NQ", raising=False)
    monkeypatch.delenv("JRL_DEFAULT_TOL", raising=False)
    assert cli.main(["verify", "--suite", "reduction", "--nmode", "8"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["two_current_match"]
    assert doc["summary"]["failed"] == 1


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    from jrl import cli

    def boom(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "cmd_eval", boom)
    assert cli.main(["eval", "--fn", "B", "--k", "2"]) == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["command"] == "eval"
    assert doc["error"] == {"type": "internal_error", "message": "RuntimeError: bug"}
    assert "Traceback" not in captured.err


def test_verify_twisted_shift_identity_catches_a_scaled_mode_sum(capsys, monkeypatch):
    # the check sums the defining series of P_{1,lam} term by term, so an
    # error in the mode sum that every Weierstrass kernel shares shows
    from jrl import cli
    from jrl.specfun import weierstrass

    mode_sum = weierstrass._mode_sum
    monkeypatch.setattr(weierstrass, "_mode_sum", lambda *a, **kw: 1.01 * mode_sum(*a, **kw))
    monkeypatch.delenv("JRL_DEFAULT_NQ", raising=False)
    monkeypatch.delenv("JRL_DEFAULT_TOL", raising=False)
    assert cli.main(["verify", "--suite", "specfun"]) == 1
    doc = json.loads(capsys.readouterr().out)
    row = next(c for c in doc["checks"] if c["name"] == "twisted_shift_identity")
    assert not row["pass"] and row["residual"] > row["tolerance"] == 1e-12


@pytest.mark.parametrize(
    "flag, value, rest",
    [
        ("--tau", "-0.2+0.9i", ["--fn", "E", "--k", "4"]),
        ("--w", "-0.1+0.2i", ["--fn", "P", "--m", "2", "--tau", "0.5i"]),
        ("--z", "-0.1+0.3i", ["--fn", "Etilde", "--k", "2", "--tau", "0.5i"]),
        ("--theta", "-0.6+0.8i", ["--fn", "Pdef", "--k", "2", "--phi", "-1",
                                  "--w", "0.1+0.2i", "--tau", "0.5i"]),
        ("--phi", "-0.8-0.6i", ["--fn", "Pdef", "--k", "2", "--theta", "0.6+0.8i",
                                "--w", "0.1+0.2i", "--tau", "0.5i"]),
        ("--lambda", "-2.5e-1", ["--fn", "Etwist", "--k", "2", "--tau", "0.5i"]),
    ],
)
def test_eval_value_may_start_with_a_minus_sign(capsys, monkeypatch, flag, value, rest):
    from jrl import cli

    monkeypatch.delenv("JRL_DEFAULT_NQ", raising=False)
    monkeypatch.delenv("JRL_DEFAULT_TOL", raising=False)
    reports = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        assert cli.main(["eval", *rest, *spelling]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # a flag without its value is still a usage error
    for argv in (["eval", *rest, flag], ["eval", flag, *rest]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
