"""Prove that the correctness gate bites.

Runs every workload for one second with ``--corrupt``, which falsifies the
first op's expectation (one expected exergy value moved by 1e-9, or one byte
of a CLI golden).  Each run must count that op as failed, so its error rate
is above 0 and its result is not correct.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--corrupt"],
            capture_output=True,
            text=True,
            check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        bites = result is not None and result["failed"] >= 1 and not result["correct"]
        if result is None:
            print(f"{workload}: benchmark exited with {proc.returncode}\n{proc.stderr[-2000:]}")
        else:
            print(f"{workload}: {result['failed']} of {result['attempted']} ops failed, "
                  f"error_rate {result['failed'] / result['attempted']:.6f}: "
                  f"{'gate bites' if bites else 'GATE DID NOT BITE'}")
        failures += not bites
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
