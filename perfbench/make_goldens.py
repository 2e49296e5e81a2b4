"""Capture the cli-fixtures goldens: the stdout of every CLI op.

Run from the root of a checkout whose CLI output is the reference (the
goldens in ``perfbench/goldens`` were captured at the commit that added the
benchmark), then check the result against the regression pins:

    python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path("src").resolve()), str(Path("tests").resolve()), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    env = run.pinned_env()
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in wl.cli_commands():
        proc = subprocess.run(
            [sys.executable, "-m", "thermorank.cli", *argv], capture_output=True, env=env, check=False
        )
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr.decode()}", file=sys.stderr)
            return 1
        wl.golden_path(name).write_bytes(proc.stdout)
    problems = wl.check_cli_pins()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(wl.cli_commands())} goldens written to {wl.GOLDEN_DIR}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
