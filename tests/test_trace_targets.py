"""The traced benchmark run wraps library functions by (module, name) and
reads cache statistics of a few lru caches; a rename must fail here
rather than break `perfbench/run.py --trace 1` quietly."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, name, span", spans.TARGETS, ids=str)
def test_trace_target_is_callable(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("metric, target", sorted(spans.CACHES.items()))
def test_trace_cache_has_cache_info(metric, target):
    module, name = target
    assert callable(getattr(importlib.import_module(module), name).cache_info)


EVAL_BATCH = [
    {"fn": "B", "k": 12},
    {"fn": "E", "k": 4, "tau": [0.0, 0.5]},
    {"fn": "Etwist", "k": 3, "lam": 0.5, "tau": [0.0, 0.5]},
    {"fn": "Etilde", "k": 2, "z": [0.23, -0.11], "tau": [0.0, 0.5]},
    {"fn": "P", "m": 2, "w": [0.1, 0.2], "tau": [0.0, 0.5]},
    {"fn": "Ptwist", "m": 1, "lam": 2, "w": [0.1, 0.2], "tau": [0.0, 0.5]},
    {"fn": "Ptilde", "m": 3, "z": [0.23, -0.11], "w": [0.1, 0.2], "tau": [0.0, 0.5]},
    {"fn": "Pdef", "k": 2, "theta": [0.6, 0.8], "phi": [-1.0, 0.0], "w": [0.1, 0.2], "tau": [0.0, 0.5]},
    {"fn": "laurentP", "kind": "twisted", "lam": 1, "k": 6, "tau": [0.0, 0.5]},
]


def test_eval_loads_no_trace_stack():
    code = (
        "import contextlib, io, sys\n"
        "from jrl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['eval', '--fn', 'P', '--m', '2', '--w', '0.1+0.08i', '--tau', '0.5i']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('jrl.voa', 'jrl.reduction'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n", out.stderr


def test_checks_still_import_from_cli():
    from jrl import checks
    from jrl.cli import CHECKS

    assert CHECKS is checks.CHECKS and len({c.name for c in CHECKS}) == len(CHECKS) == 22


def test_traced_eval_calls_each_kernel_once_per_entry(tmp_path, capsys):
    from jrl.cli import EVAL_FNS, EVAL_KERNELS, main

    path = tmp_path / "evals.json"
    path.write_text(json.dumps({"schema": 1, "evals": EVAL_BATCH}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["eval", "--request", str(path)]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    # B evaluates no kernel; every other entry exactly one, as a child of its eval_entry span
    expected = {fn: [f"specfun.{name}"] for fn, (name, _) in EVAL_KERNELS.items()}
    expected.update(B=[], laurentP=["specfun.laurent_coeffs_p1"])
    entries = [s for s in tracer.spans if s[1] == "cli.eval_entry"]
    assert [e["fn"] for e in EVAL_BATCH] == list(EVAL_FNS) and len(entries) == len(EVAL_BATCH)
    for entry, span in zip(EVAL_BATCH, entries):
        children = [s[1] for s in tracer.spans if s[4] == span[0]]
        assert children == expected[entry["fn"]], entry["fn"]


def test_reduce_full_ledger_walks_as_the_traced_run_reads_it():
    # the traced run's ledger hook counts out[1].walk() nodes and their is_leaf
    from jrl.reduction import JacobiParams, NPointRequest, reduce_full
    from jrl.specfun import ModularPoint
    from jrl.voa import AlgebraSpec, current_state

    heis = AlgebraSpec(kind="heisenberg", rank=1)
    J = current_state(heis)
    req = NPointRequest(
        spec=heis, sector=(0.6,), cap=4.0,
        insertions=((J, 0.12j), (J, 0.31j), (J, 0.5 + 0.42j)),
        params=JacobiParams(z=0.23 - 0.11j, tau=ModularPoint(0.5j)),
    )
    nodes = list(reduce_full(req)[1].walk())
    assert len(nodes) > 1 and any(node.is_leaf for node in nodes)
    for node in nodes:
        assert isinstance(node.is_leaf, bool) and isinstance(node.terms, tuple)
