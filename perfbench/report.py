"""Run workloads over several seeds and print each end-to-end metric's spread.

    python3 perfbench/report.py --seeds 1 --seconds 15
    python3 perfbench/report.py --seeds 501-510 --seconds 15 --json perfbench/baseline.json

Each run goes through ``run.py`` in its own process, one after another: all
seeds of one workload, then the next workload.  For every metric the table
shows the median over the seeds and, with two or more seeds, the spread: the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median.  That is how the bounds in ``BENCHMARK.json`` are
judged.  The workloads default to the ones ``BENCHMARK.json`` declares.
``--json`` also runs one traced run per workload (seed 1) and writes the
summary with its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    """``501-510`` or ``1,2,5``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads((OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarize(records: list[dict]) -> dict:
    names = list(records[0]["end_to_end"])
    return {
        "seeds": [record["seed"] for record in records],
        "seconds": records[0]["seconds"],
        "end_to_end": {
            name: {
                **spread([record["end_to_end"][name]["value"] for record in records]),
                "unit": records[0]["end_to_end"][name]["unit"],
            }
            for name in names
        },
        "op_ms_tail_percentile": records[0]["op_ms_tail_percentile"],
        "op_ms_tail_samples_beyond_min": min(record["op_ms_tail_samples_beyond"] for record in records),
        "ops_per_run": [record["result"]["attempted"] for record in records],
        "error_rate_max": max(record["error_rate"] for record in records),
        "repeat_share_max": max(record["repeat_share"] for record in records),
    }


def main() -> int:
    declared = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_list, default=[1], help="501-510 or 1,2,5")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=declared)
    parser.add_argument("--json", type=Path, help="write the summary (and traced seed-1 metrics) here")
    args = parser.parse_args()

    summaries, environment = {}, None
    for workload in args.workloads:
        records = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        environment = records[0]["environment"]
        summary = summaries[workload] = summarize(records)
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}, {args.seconds:g} s, "
              f"ops per run {min(summary['ops_per_run'])}-{max(summary['ops_per_run'])}, "
              f"tail p{summary['op_ms_tail_percentile']:g} (at least {summary['op_ms_tail_samples_beyond_min']} "
              f"beyond), error_rate max {summary['error_rate_max']:g}, "
              f"repeat_share max {summary['repeat_share_max']:g}")
        for name, stats in summary["end_to_end"].items():
            note = f"  spread {stats['spread']:.3f}" if "spread" in stats else ""
            print(f"  {name:>12} {stats['median']:16.4f} {stats['unit']:<8}{note}", flush=True)
        if not all(record["result"]["correct"] for record in records):
            print(f"{workload}: a run was not correct", file=sys.stderr)
            return 1
        if args.json:
            summary["traced_seed1"] = {
                name: metric["value"] for name, metric in run(workload, 1, args.seconds, 1)["result"]["metrics"].items()
            }
    print(f"# {json.dumps(environment)}")
    if args.json:
        args.json.write_text(json.dumps({"workloads": summaries, "environment": environment}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
