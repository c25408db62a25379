import json
import math
import os
import subprocess
import sys

import pytest

from jrl.specfun.points import MAX_ORDER

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
        ("params", "shift", [1]),
        (None, "insertions", 5),
        ("algebra", "rank", "two"),
        (None, "sector", "x"),
        (None, "insertions", [{"state": {"boson": [[0, "a"]]}, "z": [0.0, 0.12]}]),
        (None, "truncation", {"n_q": "x"}),
        (None, "truncation", {"n_q": 12.7}),
        ("algebra", "rank", True),
        ("params", "shift", [1.5, 0]),
    ],
    ids=[
        "cap", "shift", "insertions", "rank", "sector", "boson_label", "truncation",
        "truncation_fraction", "rank_bool", "shift_fraction",
    ],
)
def test_reduce_rejects_malformed_values(tmp_path, section, field, value):
    bad = json.loads(json.dumps(BASE_REQUEST))
    (bad if section is None else bad[section])[field] = value
    r = run_cli("reduce", request=bad, tmp_path=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert "malformed" in r.stderr and field in r.stderr


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
    # no reduction residual moves with n_q (both sides of the chain and kz
    # checks share their kernels), so the requests themselves are inspected
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
    ],
    ids=[
        "P_order_zero", "laurent_order_13", "E_negative_index", "B_negative_index", "P_overflow",
        "E_past_max_order", "P_past_max_order", "B_past_max_order", "E_terms_overflow",
        "laurent_strip_overflow", "laurent_flux_off_strip",
    ],
)
def test_eval_out_of_domain_is_typed_error(args):
    r = run_cli("eval", *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "DomainViolation"


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
