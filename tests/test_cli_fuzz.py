"""Boundary fuzz of the CLI request documents.

`main` runs in-process on `eval --request` and `reduce --request`
documents with one numeric field replaced by a magnitude from 1e-300 to
1e300 of either sign, or by NaN or Infinity, which `json.load` accepts.
Every document must end in exit 0, 1 or 2 with no traceback on stderr,
exit 1 only with a failed check in the report, and exit 0 only with a
report free of NaN and Infinity.  The `reduce` documents run once without
`--oracle` too: with it, a NaN value fails the oracle match and exits 1."""

import contextlib
import copy
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from jrl import cli

TRUNCATION = {"n_q": 12, "n_mode": 64, "tol": 1e-10}
EVALS = (
    {"fn": "B", "k": 12},
    {"fn": "E", "k": 4, "tau": [0.2, 0.9]},
    {"fn": "Etwist", "k": 2, "lam": 1.5, "tau": [0.0, 0.5]},
    {"fn": "Etilde", "k": 2, "z": [0.1, 0.3], "tau": [0.0, 0.5]},
    {"fn": "P", "m": 2, "w": [0.1, 0.08], "tau": [0.0, 0.5]},
    {"fn": "Ptwist", "m": 1, "lam": 2, "w": [0.1, 0.2], "tau": [0.0, 0.5]},
    {"fn": "Ptilde", "m": 2, "z": [0.0, 0.3], "w": [0.1, 0.2], "tau": [0.0, 0.5]},
    {"fn": "Pdef", "k": 2, "theta": [0.6, 0.8], "phi": [-1, 0], "w": [0.1, 0.2],
     "tau": [0.0, 0.5]},
    {"fn": "laurentP", "kind": "twisted", "lam": 1, "k": 2, "tau": [0.0, 0.5]},
    {"fn": "laurentP", "kind": "tilde", "z": [0.0, 0.2], "k": 2, "tau": [0.0, 0.5]},
)
REDUCE = (
    {"schema": 1, "algebra": {"kind": "heisenberg", "rank": 1}, "sector": [0.6], "cap": 4.0,
     "params": {"z": [0.23, -0.11], "tau": [0.0, 0.5], "charge_weight_shift": 0.0},
     "insertions": [{"state": "J", "z": [0.0, 0.12]},
                    {"state": "J", "coefficient": [1.0, 0.0], "z": [0.0, 0.31]}],
     "truncation": TRUNCATION},
    {"schema": 1, "algebra": {"kind": "complex_fermion", "grading": "charge_shifted"},
     "cap": 3.0, "params": {"zeta": [0.6, 0.8], "tau": [0.1, 0.6], "supertrace": True},
     "insertions": [{"state": "b", "z": [0.0, 0.12]}, {"state": "c", "z": [0.3, 0.31]}],
     "truncation": TRUNCATION},
)


def numeric_paths(doc, prefix=()):
    """The paths of every number in doc (bools are flags, not numbers)."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            yield prefix
        return
    for key, value in items:
        yield from numeric_paths(value, prefix + (key,))


def cases():
    """(argv without the request path, document, path of the number to perturb)."""
    out = []
    for entry in EVALS:
        doc = {"schema": 1, "evals": [entry], "truncation": TRUNCATION}
        out += [(["eval"], doc, path) for path in numeric_paths(doc)]
    for doc in REDUCE:
        variants = ("simplest", "main", "shifted", "super")
        for argv in (*(["reduce", "--oracle", "--variant", v] for v in variants), ["reduce"]):
            out += [(argv, doc, path) for path in numeric_paths(doc)]
    return out


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


CASES = cases()
MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from((1.0, -1.0)),
    st.floats(-300.0, 300.0),
)
VALUES = st.one_of(MAGNITUDES, st.sampled_from((math.nan, math.inf, -math.inf)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=VALUES)
def test_perturbed_request_documents_end_in_a_typed_outcome(tmp_path_factory, case, value):
    argv, doc, path = case
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    request = tmp_path_factory.getbasetemp() / "fuzz-request.json"
    request.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--request", str(request)])
    assert code in (0, 1, 2), out.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    if code == 1:
        assert any(not c["pass"] for c in json.loads(out.getvalue())["checks"])
