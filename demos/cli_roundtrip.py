"""Round-trip the command-line interface: request file in, report out.

Writes a reduce request to a temp file, runs `jrl reduce` with the oracle
cross-check enabled, removes the temp file, and prints the machine-readable
report.  Exit code 0 means every check passed at the requested tolerance.
"""

import json
import os
import subprocess
import sys
import tempfile

REQUEST = {
    "schema": 1,
    "algebra": {"kind": "heisenberg", "rank": 1},
    "sector": [0.6],
    "cap": 8.0,
    "params": {"z": [0.23, -0.11], "tau": [0.0, 0.5]},
    "insertions": [
        {"state": "J", "z": [0.0, 0.12]},
        {"state": "J", "z": [0.0, 0.31]},
    ],
}


def main():
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(REQUEST, fh)
        path = fh.name

    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jrl", "reduce", "--request", path, "--oracle"],
            capture_output=True,
            text=True,
        )
    finally:
        os.remove(path)
    print(f"exit code: {proc.returncode}")
    report = json.loads(proc.stdout)
    for check in report["checks"]:
        res = check["residual"]
        tail = f" residual={res:.3e}" if res is not None else ""
        print(f"  {check['name']}: pass={check['pass']}{tail}")
    print(json.dumps(report["summary"], indent=2))


if __name__ == "__main__":
    main()
