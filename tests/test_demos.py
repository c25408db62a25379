"""The narrated demos run end to end: exit 0, no traceback, and no file
left in the temp directory."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_collected():
    assert [p.name for p in DEMOS] == [
        "chain_and_stages.py",
        "cli_roundtrip.py",
        "kernel_identities.py",
        "reduce_vs_trace.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = os.environ.copy()
    env["TMPDIR"] = str(tmp_path)
    env.pop("JRL_DEFAULT_NQ", None)
    env.pop("JRL_DEFAULT_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "Traceback" not in r.stdout + r.stderr
    assert r.stdout.strip()
    assert not any(tmp_path.iterdir()), "the demo left files in the temp directory"
