"""thermorank benchmark: one workload, one seed, one run.

Usage, from the root of a thermorank checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This process makes the inputs from the seed, computes every expectation with
the numpy-free oracles in ``tests/_oracles.py`` (or reads the CLI goldens),
and feeds the ops one at a time to a fresh worker process (``worker.py``)
whose time and memory are what gets measured.  Set-up probes, spread over
the run, start the same way the worker does, so ``setup_s`` is a median.  Human-readable lines come
first; the last line of stdout is the JSON result.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  ``--corrupt`` falsifies
the first op's expectation; ``selfcheck.py`` uses it to prove the gate bites.

Results and spans are also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fuzzy-panels", "crisp-ingest", "whatif-sweep", "cli-fixtures")
# warm CLI commands (each with one fresh-interpreter probe) that the traced
# whatif-sweep run adds, so a declared workload measures the cli layer
CLI_SIDE_OPS = 12
SETUP_PROBES = 8  # set-up samples besides the measured worker's own
REQUIRED = ("src/thermorank/__init__.py", "tests/_oracles.py", "tests/test_regression.py")
OUT_DIR = Path(".perfbench")
# one thread each, so numpy's thread pool does not compete for the second core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"  # the package is used from source, not installed
    env["THERMORANK_NO_COLOR"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def environment() -> dict:
    """What the numbers were measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = Path(".git/packed-refs")
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


class Worker:
    """One worker process and the pipe protocol to it."""

    def __init__(self, mode: str, trace: int, env: dict):
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), repr(spawned), str(trace), mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def send(self, message: dict) -> None:
        message = dict(message)
        payload = [part.encode("utf-8") for part in message.pop("payload", ())]
        message["sizes"] = [len(part) for part in payload]
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        for part in payload:
            self.proc.stdin.write(part)
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()} before reporting")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def tail(times_ms, q):
    """The q-th percentile smoothed over a band around it, the percentile
    itself, and how many samples lie beyond it (nearest ranks).

    The band runs from percentile q - h to q + h, with h half the tail beyond
    q.  Its mean moves smoothly when the share of slow ops shifts, where the
    percentile alone can jump from one shape group to the next, and it leaves
    out the top of the tail, where pauses of the host sit.
    """
    ordered = sorted(times_ms)

    def rank(p):
        return max(1, math.ceil(p / 100 * len(ordered)))

    half = (100 - q) / 2
    band = ordered[rank(q - half) - 1 : rank(q + half)]
    return statistics.fmean(band), ordered[rank(q) - 1], len(ordered) - rank(q)


def cycle_median(times_ms, cycle_ends):
    """Median over the run's design cycles of the mean op time in each."""
    bounds = zip([0] + cycle_ends, cycle_ends)
    return statistics.median(statistics.fmean(times_ms[a:b]) for a, b in bounds)


def corrupt(op: dict) -> None:
    """Falsify one expected value, so a working gate must fail this op."""
    expect = op["expect"]
    if "stdout" in expect:
        expect["stdout"] = "#" + expect["stdout"][1:]
    else:
        expect["X"][0] += 1e-9


def op_source(workload, seed, wl):
    if workload == "fuzzy-panels":
        return (lambda i: wl.fuzzy_op(seed, i)), len(wl.FUZZY_SHAPES), {}
    if workload == "crisp-ingest":
        return (lambda i: wl.crisp_op(seed, i)), len(wl.CRISP_SHAPES), {}
    if workload == "whatif-sweep":
        from thermorank import load_fixture

        documents = {}
        for name in wl.WHATIF_FIXTURES:
            doc = load_fixture(name)
            documents[name] = {
                "mode": doc.mode,
                "decision_makers": list(doc.decision_makers),
                "alternatives": list(doc.alternatives),
                "criteria": [c.id for c in doc.criteria],
                "kinds": [c.kind.value for c in doc.criteria],
                "ratings": doc.ratings,
                "weights": doc.weights,
            }
        sweep = wl.WhatIf(seed, documents)
        pins = wl.pins()
        base = {name: sweep.base_expectation(name) for name in wl.WHATIF_FIXTURES}
        return sweep.op, len(wl.WHATIF_DESIGN), {"pins": pins, "base_expect": base}
    return (lambda i: wl.cli_op(seed, i)), 1, {}


def measure(args, wl, env):
    """The measured worker and the set-up probes; returns the raw summaries."""
    source, cycle, extra = op_source(args.workload, args.seed, wl)
    # tiny what-if ops run in batches, so the parent's oracle work between
    # them does not leave every op to start on cold caches
    batch = 50 if args.workload == "whatif-sweep" else 1
    init = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycle": cycle,
        "warmup": wl.warmup_op(args.workload, args.seed),
        **extra,
    }
    if args.trace and args.workload == "whatif-sweep":
        init["cli_side"] = [wl.cli_op(args.seed, i) for i in range(CLI_SIDE_OPS)]
    problems = wl.check_cli_pins() if args.workload in ("cli-fixtures", "whatif-sweep") else []

    setups = []

    def probe_setup():
        probe = Worker("probe", 0, env)
        try:
            probe.send(init)
            reply = probe.receive()
        finally:
            probe.close()
        setups.append(reply["setup_s"])
        problems.extend(reply["problems"])

    # the probes are spread over the run, one each time the worker's op time
    # passes another share of --seconds, so the set-up median spans the same
    # host phases as the op times do
    probe_at = [args.seconds * i / SETUP_PROBES for i in range(1, SETUP_PROBES)]
    probe_setup()
    op = source(0)  # made before the worker starts, so set-up does not wait on it
    if args.corrupt:
        corrupt(op)
    digests = []  # of the ops sent; the worker reports how many it ran
    worker = Worker("run", args.trace, env)
    try:
        worker.send(init)
        index = 0
        while True:
            # a whole batch is made before any of it is sent, so the oracles
            # never run while the worker is timing an op
            ops = [op] + [source(index + position) for position in range(1, batch)]
            index += batch
            ops[-1]["batch_end"] = True
            for op in ops:
                digests.append(op["digest"])
                worker.send(op)
            reply = worker.receive()
            if not reply["more"]:
                break
            while probe_at and reply["elapsed_s"] >= probe_at[0]:
                probe_at.pop(0)
                probe_setup()  # the worker waits for its next op meanwhile
            op = source(index)
        summary = worker.receive()["summary"]
    finally:
        worker.close()
    setups.append(summary["setup_s"])
    problems += summary["problems"]
    return summary, setups, digests, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="falsify the first op's expectation")
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not Path(path).is_file()]
    if missing:
        print(f"perfbench: run from the root of a thermorank checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = pinned_env()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:0] = [str(Path("src").resolve()), str(Path("tests").resolve()), str(HERE)]
    import workloads as wl

    summary, setups, digests, problems = measure(args, wl, env)

    times = summary["times_ms"]
    attempted, failed = len(times), len(summary["errors"])
    tail_q = wl.TAIL_PERCENTILE[args.workload]
    tail_ms, tail_percentile_ms, beyond = tail(times, tail_q)
    digests = digests[:attempted]
    repeat_share = 1 - len(set(digests)) / len(digests)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_cycle_p50": (cycle_median(times, summary["cycle_ends"]), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "cells_per_s": (summary["cells"] / summary["busy_s"], "cells/s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    if args.trace:
        layers = summary["layers"]
        layers["cells"] = (summary["cells"] / attempted, "count")
        layers["input_bytes"] = (summary["input_bytes"] / attempted, "bytes")
        layers["cli.stdout_bytes"] = (summary["stdout_bytes"] / attempted, "bytes")
        reported = {name: tuple(value) for name, value in layers.items()}
    else:
        reported = e2e

    env_info = environment()
    print(f"# environment: {json.dumps(env_info)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops in "
          f"{summary['busy_s']:.3f} s busy, closed loop, one client")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "op_ms_tail":
            half = (100 - tail_q) / 2
            note = (f"  (mean of p{tail_q - half:g}-p{tail_q + half:g}; p{tail_q:g} itself "
                    f"{tail_percentile_ms:.3f} ms, {beyond} of {attempted} samples beyond)")
        print(f"{name:>16} {value:14.6f} {unit}{note}")
    print(f"{'op_ms_p50':>16} {statistics.median(times):14.6f} ms  (median op, not a declared metric)")
    print(f"{'error_rate':>16} {failed / attempted:14.6f} ratio  ({failed} of {attempted} ops failed)")
    print(f"{'repeat_share':>16} {repeat_share:14.6f} ratio  (ops whose input repeats an earlier op's)")
    if args.trace:
        for name, (value, unit) in reported.items():
            print(f"{name:>40} {value:14.6f} {unit}")
    for problem in problems + summary["errors"][:5]:
        print(f"# problem: {problem}")

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "result": result,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()},
        "op_ms_p50": statistics.median(times),
        "op_ms_tail_percentile": tail_q,
        "op_ms_tail_percentile_ms": tail_percentile_ms,
        "op_ms_tail_samples_beyond": beyond,
        "error_rate": failed / attempted,
        "repeat_share": repeat_share,
        "setup_samples_s": setups,
        "op_times_ms": [round(t, 4) for t in times],
        "problems": problems,
        "errors": summary["errors"][:20],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
