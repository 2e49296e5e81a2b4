"""The measured process: one closed-loop client driving thermorank.

Started by ``run.py`` once per workload (plus a few set-up probes), with the
environment pinned there.  It reads ops from stdin, runs each one only after
the previous one finished, checks every output off the clock and reports a
summary on stdout.  Inputs and oracle expectations arrive ready-made, so none
of their cost lands in this process's time or memory.

Messages from the parent are a JSON header line followed by the raw UTF-8
payload documents whose byte sizes the header lists.

Usage: worker.py SPAWN_TIME TRACE MODE, where SPAWN_TIME is the parent's
``time.perf_counter()`` when it started this process (CLOCK_MONOTONIC is
system-wide on Linux, so the two clocks agree), TRACE is 0 or 1 and MODE is
``run`` or ``probe`` (set up, warm up, report set-up time and exit).
"""

import functools
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

EXACT = 1e-12  # the acceptance suite's tolerance against the oracles
# how the CLI prints a NaN or infinite indicator in its three output formats
NON_FINITE = re.compile(rb"\b(nan|inf|infinity|n/a|null)\b")
OUT_DIR = Path(".perfbench")

CRISP_STAGES = ("normalize", "energy_matrix", "quality_matrix", "exergy_matrix", "aggregate", "rank")
FUZZY_STAGES = (
    "normalize_fuzzy",
    "fuzzy_energy",
    "fuzzy_quality",
    "fuzzy_exergy",
    "fuzzy_entropy",
    "aggregate_fuzzy",
)
LAYERS = ("io_model", "fixtures", "crisp", "fuzzy", "topsis", "cli")
PROBE_KINDS = ("interpreter", "import", "import_numpy", "import_click")
IMPORT_PROBES = {
    "import": "thermorank.cli",
    "import_numpy": "numpy",
    "import_click": "click",
}


def read_message():
    line = sys.stdin.buffer.readline()
    if not line:
        raise EOFError("parent closed the pipe")
    message = json.loads(line)
    message["payload"] = [sys.stdin.buffer.read(size).decode("utf-8") for size in message.pop("sizes", ())]
    return message


def send(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------- tracing


class NoTrace:
    """Tracing off: call straight through."""

    op = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, op]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.failures = Counter()

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failures[name.split(".")[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self):
        """(duration, self time) in ns per span index."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start, end - start - child[i]) for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------- checks


def ranks_agree(got, want, values) -> bool:
    """Equal ranks, or an order that the oracle values cannot tell apart."""
    got = tuple(int(r) for r in got)
    if got == tuple(want):
        return True
    if sorted(got) != list(range(1, len(values) + 1)):
        return False
    order = sorted(range(len(got)), key=got.__getitem__)
    return all(values[a] >= values[b] - EXACT for a, b in zip(order, order[1:]))


def check_report(report, expect, topsis=None):
    """None when the report matches the oracle, else the first problem."""
    for key, got in (("U", report.U), ("X", report.X), ("S", report.S)):
        got = [float(v) for v in got]
        if not all(math.isfinite(v) for v in got):
            return f"non-finite {key}"
        want = expect[key]
        if len(got) != len(want) or any(abs(a - b) > EXACT for a, b in zip(got, want)):
            return f"{key} differs from the oracle"
    if not ranks_agree(report.rank_by_U, expect["rank_U"], expect["U"]):
        return "rank_by_U differs from the oracle"
    if not ranks_agree(report.rank_by_X, expect["rank_X"], expect["X"]):
        return "rank_by_X differs from the oracle"
    if topsis is not None:
        got = [float(v) for v in topsis.closeness]
        if not all(math.isfinite(v) for v in got):
            return "non-finite TOPSIS closeness"
        if any(abs(a - b) > EXACT for a, b in zip(got, expect["closeness"])):
            return "TOPSIS closeness differs from the oracle"
        if not ranks_agree(topsis.ranks, expect["rank_T"], expect["closeness"]):
            return "TOPSIS ranks differ from the oracle"
    return None


def check_pins(report, pinned):
    for i, want in pinned["rows"]:
        got = (float(report.U[i]), float(report.X[i]), float(report.S[i]))
        if any(abs(g - w) > pinned["atol"] for g, w in zip(got, want)):
            return f"{report.alternatives[i]} differs from the regression pin"
    return None


# ---------------------------------------------------------------- library ops


class Library:
    """Ops that call thermorank's public API in-process."""

    def __init__(self, init):
        import thermorank

        self.lib = thermorank
        self.configs = {
            ref: thermorank.EngineConfig(quality_reference=ref)
            for ref in ("across_experts", "across_alternatives")
        }
        self.bases = {}
        self.pins = init.get("pins")
        self.base_expect = init.get("base_expect") or {}

    def engine(self, panel):
        if isinstance(panel, self.lib.CrispPanel):
            return "crisp.run_crisp", self.lib.run_crisp
        return "fuzzy.run_fuzzy", self.lib.run_fuzzy

    def setup(self, t):
        """Whatif bases: load, build and run the unedited fixtures once."""
        problems = []
        for name, expect in self.base_expect.items():
            doc = t.call("fixtures.load_fixture", self.lib.load_fixture, name)
            panel = self.lib.to_panel(doc)
            report = self.engine(panel)[1](panel)
            self.bases[name] = (doc, report)
            problems.append(check_report(report, expect) or check_pins(report, self.pins[name]))
        return [p for p in problems if p]

    def run(self, t, op):
        """One op; returns (panel, report, TOPSIS result or None, rank moves or None)."""
        lib = self.lib
        if op["kind"] == "whatif":
            doc, base = self.bases[op["fixture"]]
            for dm, alternative, criterion, value in [op["edit"]] if "edit" in op else op["edits"]:
                doc = t.call("io_model.replace_rating", doc.replace_rating, dm, alternative, criterion, value)
            panel = t.call("io_model.to_panel", lib.to_panel, doc)
            name, engine = self.engine(panel)
            report = t.call(name, engine, panel)
            moved = tuple(i for i, (a, b) in enumerate(zip(report.rank_by_X, base.rank_by_X)) if a != b)
            return panel, report, None, moved
        text = op["payload"][0]
        if op["format"] == "csv":
            doc = t.call("io_model.parse_document", lib.parse_document, text, "csv", criteria=op["payload"][1])
        else:
            doc = t.call("io_model.parse_document", lib.parse_document, text, "json")
        panel = t.call("io_model.to_panel", lib.to_panel, doc)
        name, engine = self.engine(panel)
        report = t.call(name, engine, panel, self.configs[op["reference"]])
        topsis = t.call("topsis.run_topsis", lib.run_topsis, panel)
        return panel, report, topsis, None

    def check(self, op, output):
        panel, report, topsis, moved = output
        if op["kind"] != "whatif":
            return check_report(report, op["expect"], topsis)
        if "edits" in op:  # the case2_modified experiment
            return check_pins(report, self.pins["case2_modified"])
        problem = check_report(report, op["expect"])
        if problem is None:
            base_ranks = self.base_expect[op["fixture"]]["rank_X"]
            want = tuple(i for i, (a, b) in enumerate(zip(op["expect"]["rank_X"], base_ranks)) if a != b)
            if moved != want:
                problem = "rank moves differ from the oracle"
        return problem

    def replay(self, t, op, panel):
        """Re-run the engine's public stages in the order run_* calls them."""
        lib = self.lib
        config = self.configs[op.get("reference", "across_experts")]
        if isinstance(panel, lib.CrispPanel):
            normalized = t.call("crisp.normalize", lib.normalize, panel)
            energy = t.call("crisp.energy_matrix", lib.energy_matrix, normalized, panel.weights)
            basis = panel.ratings if config.quality_reference.value == "across_experts" else normalized
            quality = t.call("crisp.quality_matrix", lib.quality_matrix, basis, config)
            exergy = t.call("crisp.exergy_matrix", lib.exergy_matrix, quality, energy)
            result = t.call("crisp.aggregate", lib.aggregate, energy, exergy, panel.weights, config)
            t.call("crisp.rank", lib.rank, result.U)
            t.call("crisp.rank", lib.rank, result.X)
        else:
            normalized = t.call("fuzzy.normalize_fuzzy", lib.normalize_fuzzy, panel)
            energy = t.call("fuzzy.fuzzy_energy", lib.fuzzy_energy, normalized, panel.weights)
            quality = t.call("fuzzy.fuzzy_quality", lib.fuzzy_quality, normalized, config)
            exergy = t.call("fuzzy.fuzzy_exergy", lib.fuzzy_exergy, quality, energy)
            t.call("fuzzy.fuzzy_entropy", lib.fuzzy_entropy, energy, exergy)
            t.call("fuzzy.aggregate_fuzzy", lib.aggregate_fuzzy, energy, exergy, config, weights=panel.weights)

    def allocations(self, op, peaks):
        """Peak traced allocation of the parse and engine calls, in bytes."""
        lib = self.lib

        def peak_of(fn, *args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            if op["kind"] == "whatif":
                doc = self.bases[op["fixture"]][0]
                dm, alternative, criterion, value = op["edit"]
                panel = lib.to_panel(doc.replace_rating(dm, alternative, criterion, value))
            else:
                kwargs = {"criteria": op["payload"][1]} if op["format"] == "csv" else {}
                doc, peak = peak_of(lib.parse_document, op["payload"][0], op["format"], **kwargs)
                peaks["io_model.parse_document"] = max(peaks["io_model.parse_document"], peak)
                panel = lib.to_panel(doc)
            name, engine = self.engine(panel)
            _, peak = peak_of(engine, panel, self.configs[op.get("reference", "across_experts")])
            peaks[name] = max(peaks[name], peak)
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------- CLI ops


def cli_child(args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, check=False, **kwargs)


class Cli:
    """Ops that start a cold ``python -m thermorank.cli`` process each."""

    def __init__(self):
        self.runner = None

    def setup(self, t):
        return []

    def run(self, t, op):
        return cli_child(["-m", "thermorank.cli", *op["argv"]])

    def check(self, op, proc):
        expect = op["expect"]
        if proc.returncode != expect["exit_code"]:
            return f"exit code {proc.returncode}"
        return stdout_problem(proc.stdout, expect)

    def in_process(self, t, op):
        """Warm call through click's CliRunner; layer calls traced by name."""
        if self.runner is None:
            from click.testing import CliRunner

            import thermorank.cli
            import thermorank.io_model

            self.runner = CliRunner()
            self.cli = thermorank.cli
            self.targets = [
                (thermorank.cli, "load_fixture", "fixtures.load_fixture"),
                (thermorank.cli, "parse_document", "io_model.parse_document"),
                (thermorank.cli, "to_panel", "io_model.to_panel"),
                (thermorank.io_model.PanelDocument, "replace_rating", "io_model.replace_rating"),
                (thermorank.cli, "run_crisp", "crisp.run_crisp"),
                (thermorank.cli, "run_fuzzy", "fuzzy.run_fuzzy"),
                (thermorank.cli, "run_topsis", "topsis.run_topsis"),
            ]
        originals = [getattr(owner, attr) for owner, attr, _ in self.targets]
        if isinstance(t, Tracer):
            for (owner, attr, name), fn in zip(self.targets, originals):
                setattr(owner, attr, t.wrap(name, fn))
        try:
            return t.call("cli.command", self.runner.invoke, self.cli.main, op["argv"])
        finally:
            for (owner, attr, _), fn in zip(self.targets, originals):
                setattr(owner, attr, fn)


def stdout_problem(stdout: bytes, expect):
    if stdout != expect["stdout"].encode("utf-8"):
        return "stdout differs from the golden"
    if NON_FINITE.search(stdout.lower()):
        return "non-finite indicator in the output"
    return None


def probe_import(kind):
    """Milliseconds a fresh interpreter spends on one import, or on nothing."""
    if kind == "interpreter":
        start = time.perf_counter()
        cli_child(["-c", "pass"])
        return (time.perf_counter() - start) * 1e3
    code = (
        "import time; t = time.perf_counter(); import {0}; "
        "print((time.perf_counter() - t) * 1e3)"
    ).format(IMPORT_PROBES[kind])
    return float(cli_child(["-c", code]).stdout)


# ---------------------------------------------------------------- main loop


def main() -> int:
    spawned, trace, mode = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    io_s = 0.0

    def receive():
        nonlocal io_s
        start = time.perf_counter()
        message = read_message()
        io_s += time.perf_counter() - start
        return message

    init = receive()
    workload, seconds = init["workload"], init["seconds"]
    tracer = Tracer() if trace else NoTrace()
    tracer.op = "setup"
    client = Cli() if workload == "cli-fixtures" else Library(init)
    problems = client.setup(tracer)

    warmup = init["warmup"]
    problems.append(client.check(warmup, client.run(NoTrace, warmup)))
    problems = [p for p in problems if p]

    if mode == "probe":
        send({"setup_s": time.perf_counter() - spawned - io_s, "problems": problems})
        return 0

    times, cells, input_bytes, stdout_bytes, errors = [], 0, 0, 0, []
    cycle_ends = []  # len(times) at the end of each design cycle
    traced_ms, untraced_ms, inproc_ms, peaks = [], [], [], Counter()
    probes = defaultdict(list)
    # whatif-sweep's traced run also measures the cli layer, on a few CLI
    # commands of its own, traced apart so they stay out of the per-op times
    cli_side = init.get("cli_side", [])
    side = (Cli(), Tracer(), []) if cli_side else None  # client, spans, command ms
    pending = []  # (op, output, problem), checked at the end of each batch
    busy = 0.0
    loop_start = None
    setup_s = None
    index = 0
    while True:
        op = receive()
        if setup_s is None:
            setup_s = time.perf_counter() - spawned - io_s
            loop_start = time.perf_counter()

        problem = None
        start = time.perf_counter()
        try:
            output = client.run(NoTrace, op)
        except Exception as exc:  # a failed op is counted, the loop goes on
            output, problem = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        times.append(elapsed * 1e3)
        if op["cycle_end"]:
            cycle_ends.append(len(times))
        cells += op["cells"]
        input_bytes += sum(len(p.encode("utf-8")) for p in op["payload"]) if op["payload"] else len(
            json.dumps(op.get("edit") or op.get("argv"))
        )
        if workload == "cli-fixtures" and output is not None:
            stdout_bytes += len(output.stdout)
        if trace and output is not None:
            problem = traced_op(client, tracer, op, index, output, elapsed, traced_ms, untraced_ms, inproc_ms)
            if workload == "cli-fixtures":
                kind = PROBE_KINDS[index % 4]
                probes[kind].append(probe_import(kind))
            elif index < init["cycle"]:
                client.allocations(op, peaks)
            if index < len(cli_side):
                problems += filter(None, [cli_side_op(side, cli_side[index], index, probes)])
        pending.append((op, output, problem))
        output = None
        index += 1

        elapsed_total = (time.perf_counter() - loop_start) if trace else busy
        done = op["cycle_end"] and elapsed_total >= seconds
        batch_end = op.get("batch_end")
        if done or batch_end:
            errors += check_all(client, pending)
            pending.clear()
        if done:
            while not batch_end:  # drain the rest of the batch unrun
                batch_end = receive().get("batch_end")
            send({"more": False})
            break
        if batch_end:
            send({"more": True, "elapsed_s": elapsed_total})
        # drop this op's input before the next one is read, so the peak
        # memory never holds two ops' inputs and results at once
        op = None

    if workload == "cli-fixtures":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    summary = {
        "setup_s": setup_s,
        "times_ms": times,
        "cycle_ends": cycle_ends,
        "busy_s": busy,
        "cells": cells,
        "input_bytes": input_bytes,
        "stdout_bytes": stdout_bytes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "errors": errors,
        "problems": problems,
    }
    if trace:
        summary["layers"] = layer_metrics(
            tracer, index, traced_ms, untraced_ms, inproc_ms, peaks, probes, times, workload, input_bytes, side
        )
        tracer.dump(OUT_DIR / f"spans-{workload}-seed{init['seed']}.jsonl")
    send({"summary": summary})
    return 0


def check_all(client, pending):
    """Problems of the finished ops, one entry per failed op."""
    problems = []
    for op, output, problem in pending:
        problem = problem or (output is not None and client.check(op, output)) or None
        if problem:
            problems.append(problem)
    return problems


def traced_op(client, tracer, op, index, output, untraced_elapsed, traced_ms, untraced_ms, inproc_ms):
    """Run the op again with spans on, and replay the engine stages."""
    tracer.op = index
    if isinstance(client, Cli):
        # untraced and traced warm in-process calls, in alternating order
        results = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            start = time.perf_counter()
            results[traced] = client.in_process(tracer if traced else NoTrace, op)
            (traced_ms if traced else inproc_ms).append((time.perf_counter() - start) * 1e3)
        result = results[True]
        if result.exit_code != op["expect"]["exit_code"]:
            return f"in-process exit code {result.exit_code}"
        return stdout_problem(result.stdout_bytes, op["expect"])

    # the untraced run already happened; time one more untraced run after the
    # traced one on odd ops, so neither side always runs second
    start = time.perf_counter()
    traced_output = tracer.call("op", client.run, tracer, op)
    traced_ms.append((time.perf_counter() - start) * 1e3)
    if index % 2:
        start = time.perf_counter()
        client.run(NoTrace, op)
        untraced_ms.append((time.perf_counter() - start) * 1e3)
    else:
        untraced_ms.append(untraced_elapsed * 1e3)
    tracer.call("replay", client.replay, tracer, op, traced_output[0])
    return client.check(op, traced_output)


def cli_side_op(side, op, index, probes):
    """One traced warm CLI command and one fresh-interpreter probe."""
    cli, tracer, command_ms = side
    tracer.op = index
    start = time.perf_counter()
    result = cli.in_process(tracer, op)
    command_ms.append((time.perf_counter() - start) * 1e3)
    kind = PROBE_KINDS[index % len(PROBE_KINDS)]
    probes[kind].append(probe_import(kind))
    if result.exit_code != op["expect"]["exit_code"]:
        return f"in-process exit code {result.exit_code}"
    return stdout_problem(result.stdout_bytes, op["expect"])


def layer_metrics(tracer, ops, traced_ms, untraced_ms, inproc_ms, peaks, probes, times, workload, input_bytes, side):
    """Per-layer metrics from the spans: self ms per op, counts and peaks."""
    timing = tracer.self_times()
    total = defaultdict(int)  # self ns per span name
    duration = defaultdict(int)
    calls = Counter()
    root_self = 0
    setup_calls = Counter()
    for (name, _, _, _, op), (dur, own) in zip(tracer.spans, timing):
        if name == "op":
            root_self += own
            continue
        if name == "replay":
            continue
        total[name] += own
        duration[name] += dur
        if op == "setup":
            setup_calls[name] += 1
        if name.split(".")[1] not in CRISP_STAGES + FUZZY_STAGES:
            calls[name.split(".")[0]] += 1

    def per_op(ns):
        return ns / ops / 1e6 if ops else 0.0

    def ms(name):
        if setup_calls[name]:  # only called while setting up: ms per call
            return total[name] / setup_calls[name] / 1e6
        return per_op(total[name])

    metrics = {}
    for name in (
        "io_model.parse_document",
        "io_model.to_panel",
        "io_model.replace_rating",
        "fixtures.load_fixture",
        "crisp.run_crisp",
        "fuzzy.run_fuzzy",
        "topsis.run_topsis",
    ):
        metrics[f"{name}.ms"] = (ms(name), "ms")
    for layer, stages in (("crisp", CRISP_STAGES), ("fuzzy", FUZZY_STAGES)):
        for stage in stages:
            metrics[f"{layer}.{stage}.ms"] = (per_op(total[f"{layer}.{stage}"]), "ms")
        engine = "crisp.run_crisp" if layer == "crisp" else "fuzzy.run_fuzzy"
        stage_sum = sum(duration[f"{layer}.{stage}"] for stage in stages)
        # derived: engine time minus its replayed stages (none replayed, none derived)
        derived = per_op(duration[engine] - stage_sum) if stage_sum else 0.0
        metrics[f"{layer}.report_assembly.ms"] = (derived, "ms-derived")

    parse_s = total["io_model.parse_document"] / 1e9
    metrics["io_model.parse_document.mb_per_s"] = (
        (input_bytes / 1e6 / parse_s) if parse_s else 0.0,
        "MB/s",
    )
    metrics["io_model.parse_document.alloc_peak_mb"] = (peaks["io_model.parse_document"] / 2**20, "MB")
    metrics["fuzzy.run_fuzzy.alloc_peak_mb"] = (peaks["fuzzy.run_fuzzy"] / 2**20, "MB")

    def median(values):
        return statistics.median(values) if values else 0.0

    command = median(traced_ms) if workload == "cli-fixtures" else 0.0
    for kind in PROBE_KINDS:
        metrics[f"cli.{kind}_ms"] = (median(probes[kind]), "ms")
    metrics["cli.command_ms"] = (command, "ms")
    metrics["cli.self_ms"] = (per_op(total["cli.command"]), "ms")

    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.failures"] = (tracer.failures[layer], "count")
    if side is not None:
        _, side_tracer, command_ms = side
        cli_self = [own for span, (_, own) in zip(side_tracer.spans, side_tracer.self_times()) if span[0] == "cli.command"]
        metrics["cli.command_ms"] = (median(command_ms), "ms")
        metrics["cli.self_ms"] = ((statistics.fmean(cli_self) if cli_self else 0.0) / 1e6, "ms")
        metrics["cli.calls"] = (len(cli_self), "count")
        metrics["cli.failures"] = (side_tracer.failures["cli"], "count")

    if workload == "cli-fixtures":
        op_ms = median(times)
        untraced = median(inproc_ms)
        unaccounted = op_ms - sum(metrics[f"cli.{kind}_ms"][0] for kind in ("interpreter", "import")) - command
    else:
        op_ms = sum(traced_ms) / len(traced_ms) if traced_ms else 0.0
        untraced = median(untraced_ms)
        unaccounted = per_op(root_self)
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.unaccounted_ms"] = (unaccounted, "ms")
    metrics["trace.overhead_ms"] = (median(traced_ms) - untraced, "ms")
    metrics["trace.ops"] = (ops, "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
