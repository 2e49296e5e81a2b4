"""Seeded inputs and their oracle expectations for the four workloads.

Everything here runs in the benchmark's parent process, never in the measured
worker.  Expectations come from the numpy-free reference implementations in
``tests/_oracles.py`` and the pins in ``tests/test_regression.py``; the only
thing taken from thermorank itself is the bundled fixtures the what-if sweep
edits (they are its input data, and the pins check them).  Documents are
written with the stdlib ``json`` and ``csv`` modules, so a change to
thermorank's own serializer cannot change what the benchmark feeds it.  The
program under test only ever receives the generated text (or edit), never the
seed.

Generator rules that keep every op on a success path (see README.md):

* every quality reference mean stays positive: no group of ratings that a
  reference mean is taken over consists only of ``a = 0`` labels (VP, P);
* cost columns only get labels or triplets with ``a > 0``;
* crisp ratings are in [1, 100], so reference means are positive too.

``ZeroReferenceMean`` is a documented error path with its own tests, and the
oracles do not model ``zero_mean_policy``, so the benchmark stays off it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import _oracles  # tests/_oracles.py, imported read-only
import test_regression  # tests/test_regression.py: full-precision pins

ROOT = Path(__file__).resolve().parent

# The published seven-label scales, kept here as data so that the expectations
# do not come from the package they check.
RATING_SCALE = {
    "VP": (0.0, 0.0, 1.0),
    "P": (0.0, 1.0, 3.0),
    "MP": (1.0, 3.0, 5.0),
    "F": (3.0, 5.0, 7.0),
    "MG": (5.0, 7.0, 9.0),
    "G": (7.0, 9.0, 10.0),
    "VG": (9.0, 10.0, 10.0),
}
WEIGHT_SCALE = {
    "VL": (0.0, 0.0, 0.1),
    "L": (0.0, 0.1, 0.3),
    "ML": (0.1, 0.3, 0.5),
    "M": (0.3, 0.5, 0.7),
    "MH": (0.5, 0.7, 0.9),
    "H": (0.7, 0.9, 1.0),
    "VH": (0.9, 1.0, 1.0),
}
POSITIVE_RATINGS = tuple(label for label, t in RATING_SCALE.items() if t[0] > 0)

REFERENCES = ("across_experts", "across_alternatives")

# Shape designs, one cycle each, always in this order; the seed sets only the
# content.  A run covers whole cycles (the worker stops at the first cycle end
# after --seconds), so every run sees the same shapes and the medians do not
# jump with the seed.  The shapes around the median (and around the tail
# percentile) cost about the same, so those statistics rest on several
# shapes' samples rather than on one shape's few.
#
# fuzzy-panels: (K, m, n) around K in [3, 12], m in [20, 150], n in [4, 12].
# The quality reference alternates along the design, so both are used and
# every cycle pairs each shape with the same reference.
FUZZY_SHAPES = (
    (3, 20, 4),
    (8, 35, 8),
    (4, 100, 10),
    (8, 45, 12),
    (6, 75, 10),
    (10, 55, 8),
    (12, 40, 9),
    (10, 100, 10),
    (12, 150, 12),
)
# crisp-ingest: (K, m, n, format), 10^4 to 10^5 cells, three JSON and four CSV
# documents.  CSV parsing costs about six times JSON parsing per cell, so the
# 10^5-cell JSON document takes about as long as the 1.7 x 10^4-cell CSV one.
# The median sits among the three near-equal CSV documents.  m stays at or
# below 200 because the TOPSIS oracle is quadratic in m.
CRISP_SHAPES = (
    (4, 50, 50, "json"),
    (4, 100, 50, "json"),
    (5, 100, 20, "csv"),
    (5, 105, 20, "csv"),
    (5, 110, 20, "csv"),
    (5, 200, 100, "json"),
    (5, 170, 20, "csv"),
)
# One crisp and two fuzzy edits per cycle: crisp and fuzzy edits take clearly
# different times, and with an even split the median would sit in the gap.
WHATIF_DESIGN = ("case1", "case2", "case2")
WHATIF_FIXTURES = ("case1", "case2")

# op_ms_tail percentile per workload; op_ms_tail is the mean of the op times
# in a band around it (see run.tail).  It is fixed, not recomputed per run, so
# that runs and commits always compare the same percentile; with whole cycles
# it also lands in the same group of shapes every run.  Each is the highest
# round percentile that leaves at least ten samples beyond it in every run of
# --seconds 10 at the commit that added the benchmark, slow host phases
# included (cli-fixtures then runs only 27 ops), and that does not sit on the
# edge between two shape groups (p75 did on fuzzy-panels).  The exception is
# whatif-sweep: its p99 is set by pauses of the shared host, not by the
# program (its spread over ten runs was 1.09), so its tail is p95.  Each run
# reports how many samples were actually beyond the percentile.
TAIL_PERCENTILE = {"fuzzy-panels": 70, "crisp-ingest": 75, "whatif-sweep": 95, "cli-fixtures": 60}

# cli-fixtures: every command on every case fixture in every output format,
# with either quality reference, the energy and TOPSIS orderings of rank, and
# the full-precision JSON ranking that is checked against the pins.
CLI_FIXTURES = ("case1", "case2", "case2_modified")
CLI_OUTPUTS = ("table", "json", "csv")
CLI_EDITS = {
    "case1": ("DM1:A9:C6=50", "DM3:A16:C7=55"),
    "case2": ("DM1:A2:C1=VP", "DM1:A2:C2=VP"),
    "case2_modified": ("DM1:A2:C1=VP", "DM1:A2:C2=VP"),
}
FIXTURE_CELLS = {"case1": 4 * 17 * 7, "case2": 3 * 3 * 5, "case2_modified": 3 * 3 * 5}
GOLDEN_DIR = ROOT / "goldens"


def cli_commands() -> list[tuple[str, list[str]]]:
    """(name, argv after ``python -m thermorank.cli``) for every CLI op.

    Grouped in threes: one command and output format on each case fixture.
    """
    commands = []
    variants = [
        (command, output, [], output)
        for command in ("rank", "indicators", "compare", "whatif")
        for output in CLI_OUTPUTS
    ]
    variants += [
        (command, output, ["--quality-ref", "alternatives"], f"{output}-alternatives")
        for command in ("rank", "indicators", "compare", "whatif")
        for output in CLI_OUTPUTS
    ]
    variants += [
        ("rank", output, ["--quality-ref", reference, "--method", method], f"{output}-{reference}-{method}")
        for method in ("energy", "topsis")
        for reference in ("experts", "alternatives")
        for output in CLI_OUTPUTS
    ]
    variants.append(("rank", "json", ["--precision", "12"], "json-p12"))
    for command, output, extra, label in variants:
        for fixture in CLI_FIXTURES:
            argv = [command, "--fixture", fixture, "--output", output, *extra]
            if command == "whatif":
                argv += list(CLI_EDITS[fixture])
            commands.append((f"{command}-{fixture}-{label}", argv))
    return commands


def digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _rng(workload: str, seed: int, *key) -> random.Random:
    return random.Random(":".join(str(k) for k in (workload, seed) + key))


def cycle_slot(index: int, length: int) -> tuple[int, bool]:
    """Design entry for op ``index``, and whether it ends a cycle.

    The order is fixed: with a seeded order, the peak RSS of crisp-ingest
    came out at 49 or 60 MB depending on the seed.
    """
    position = index % length
    return position, position == length - 1


# ---------------------------------------------------------------- expectations


def _defuzz(t):
    return math.sqrt((t[0] ** 2 + t[1] ** 2 + t[2] ** 2) / 3.0)


def _indicators(report) -> dict:
    return {key: list(report[key]) for key in ("U", "X", "S", "rank_U", "rank_X")}


def _topsis(matrix, weights, kinds) -> dict:
    _, closeness = _oracles.topsis_closeness(matrix, weights, kinds, "linear")
    return {"closeness": closeness, "rank_T": _oracles.rank_desc(closeness)}


def crisp_expectation(ratings, weights, kinds, quality_reference="across_experts", topsis=True) -> dict:
    expect = _indicators(
        _oracles.crisp_report(ratings, weights, kinds, quality_reference=quality_reference)
    )
    if topsis:
        K, m, n = len(ratings), len(ratings[0]), len(ratings[0][0])
        matrix = [[sum(ratings[k][i][j] for k in range(K)) / K for j in range(n)] for i in range(m)]
        mean_weights = [sum(weights[k][j] for k in range(K)) / K for j in range(n)]
        expect.update(_topsis(matrix, mean_weights, kinds))
    return expect


def fuzzy_expectation(ratings, weights, kinds, quality_reference="across_experts", topsis=True) -> dict:
    expect = _indicators(
        _oracles.fuzzy_report(ratings, weights, kinds, quality_reference=quality_reference)
    )
    if topsis:
        K, m, n = len(ratings), len(ratings[0]), len(ratings[0][0])
        matrix = [[sum(_defuzz(ratings[k][i][j]) for k in range(K)) / K for j in range(n)] for i in range(m)]
        mean_weights = [sum(_defuzz(weights[k][j]) for k in range(K)) / K for j in range(n)]
        expect.update(_topsis(matrix, mean_weights, kinds))
    return expect


# ---------------------------------------------------------------- generators


def _triplet(rng, low, high, step):
    a = round(rng.uniform(low, high), 3)
    b = round(a + rng.uniform(0, step), 3)
    c = round(b + rng.uniform(0, step), 3)
    return [a, b, c]


def _fix_zero_groups(rng, labels):
    """Re-draw one entry of any reference group whose members all have a = 0."""
    K, m, n = len(labels), len(labels[0]), len(labels[0][0])

    def a_of(value):
        return (RATING_SCALE[value] if isinstance(value, str) else value)[0]

    for j in range(n):
        for i in range(m):  # across experts
            if all(a_of(labels[k][i][j]) == 0 for k in range(K)):
                labels[rng.randrange(K)][i][j] = rng.choice(POSITIVE_RATINGS)
        for k in range(K):  # across alternatives
            if all(a_of(labels[k][i][j]) == 0 for i in range(m)):
                labels[k][rng.randrange(m)][j] = rng.choice(POSITIVE_RATINGS)


def _ids(prefix, count):
    return [f"{prefix}{x + 1}" for x in range(count)]


def fuzzy_op(seed: int, index: int, shape=None) -> dict:
    slot, cycle_end = cycle_slot(index, len(FUZZY_SHAPES))
    K, m, n = shape or FUZZY_SHAPES[slot]
    reference = REFERENCES[slot % 2]
    rng = _rng("fuzzy-panels", seed, index)
    kinds = ["cost" if rng.random() < 0.3 else "benefit" for _ in range(n)]

    def rating(j):
        if rng.random() < 0.25:
            return _triplet(rng, 0.5, 8.5, 1.5)
        return rng.choice(POSITIVE_RATINGS if kinds[j] == "cost" else tuple(RATING_SCALE))

    def weight():
        if rng.random() < 0.25:
            return _triplet(rng, 0.0, 0.6, 0.2)
        return rng.choice(tuple(WEIGHT_SCALE))

    values = [[[rating(j) for j in range(n)] for _ in range(m)] for _ in range(K)]
    _fix_zero_groups(rng, values)
    weights = [[weight() for _ in range(n)] for _ in range(K)]
    dms = _ids("DM", K)
    payload = {
        "meta": {"name": f"fuzzy-{seed}-{index}", "mode": "fuzzy", "normalized": False},
        "criteria": [{"id": c, "kind": kind} for c, kind in zip(_ids("C", n), kinds)],
        "decision_makers": dms,
        "alternatives": _ids("A", m),
        "weights": dict(zip(dms, weights)),
        "ratings": dict(zip(dms, values)),
    }
    text = json.dumps(payload)

    def resolve(value, scale):
        return tuple(scale[value]) if isinstance(value, str) else tuple(value)

    triplets = [[[resolve(v, RATING_SCALE) for v in row] for row in dm] for dm in values]
    weight_triplets = [[resolve(w, WEIGHT_SCALE) for w in row] for row in weights]
    return {
        "kind": "fuzzy",
        "format": "json",
        "reference": reference,
        "payload": [text],
        "cells": K * m * n,
        "digest": digest(text, reference),
        "cycle_end": cycle_end,
        "expect": fuzzy_expectation(triplets, weight_triplets, kinds, reference),
    }


def _crisp_document(rng, K, m, n):
    kinds = ["cost" if rng.random() < 0.3 else "benefit" for _ in range(n)]
    ratings = [[[round(rng.uniform(1.0, 100.0), 2) for _ in range(n)] for _ in range(m)] for _ in range(K)]
    weights = [[round(rng.uniform(0.05, 1.0), 3) for _ in range(n)] for _ in range(K)]
    if rng.random() < 0.5:  # unit weight sums select the weighted-sum aggregation
        weights = [[w / sum(row) for w in row] for row in weights]
    return kinds, ratings, weights


def crisp_json(name, kinds, ratings, weights) -> str:
    K, m, n = len(ratings), len(ratings[0]), len(kinds)
    dms = _ids("DM", K)
    return json.dumps(
        {
            "meta": {"name": name, "mode": "crisp", "normalized": False},
            "criteria": [{"id": c, "kind": kind} for c, kind in zip(_ids("C", n), kinds)],
            "decision_makers": dms,
            "alternatives": _ids("A", m),
            "weights": dict(zip(dms, weights)),
            "ratings": dict(zip(dms, ratings)),
        }
    )


def crisp_csv(kinds, ratings, weights) -> tuple[str, str]:
    criteria = _ids("C", len(kinds))
    panel = io.StringIO()
    writer = csv.writer(panel, lineterminator="\n")
    writer.writerow(["dm", "alternative", "criterion", "value"])
    for k, dm in enumerate(_ids("DM", len(ratings))):
        for j, criterion in enumerate(criteria):
            writer.writerow([dm, "*", criterion, repr(weights[k][j])])
        for i, alternative in enumerate(_ids("A", len(ratings[k]))):
            for j, criterion in enumerate(criteria):
                writer.writerow([dm, alternative, criterion, repr(ratings[k][i][j])])
    sidecar = io.StringIO()
    writer = csv.writer(sidecar, lineterminator="\n")
    writer.writerow(["criterion", "kind"])
    writer.writerows(zip(criteria, kinds))
    return panel.getvalue(), sidecar.getvalue()


def crisp_op(seed: int, index: int) -> dict:
    slot, cycle_end = cycle_slot(index, len(CRISP_SHAPES))
    K, m, n, fmt = CRISP_SHAPES[slot]
    rng = _rng("crisp-ingest", seed, index)
    kinds, ratings, weights = _crisp_document(rng, K, m, n)
    if fmt == "json":
        payload = [crisp_json(f"crisp-{seed}-{index}", kinds, ratings, weights)]
    else:
        payload = list(crisp_csv(kinds, ratings, weights))
    return {
        "kind": "crisp",
        "format": fmt,
        "reference": "across_experts",
        "payload": payload,
        "cells": K * m * n,
        "digest": digest(fmt, *payload),
        "cycle_end": cycle_end,
        "expect": crisp_expectation(ratings, weights, kinds),
    }


def warmup_op(workload: str, seed: int) -> dict:
    """One small untimed op that takes the same path as the workload's ops."""
    rng = _rng(workload, seed, "warmup")
    if workload == "crisp-ingest":
        kinds, ratings, weights = _crisp_document(rng, 3, 40, 6)
        text = crisp_json("warmup", kinds, ratings, weights)
        return {"kind": "crisp", "format": "json", "reference": "across_experts", "payload": [text],
                "cells": 3 * 40 * 6, "digest": digest(text), "cycle_end": True,
                "expect": crisp_expectation(ratings, weights, kinds)}
    if workload == "fuzzy-panels":
        return fuzzy_op(seed, -1, shape=FUZZY_SHAPES[0])
    if workload == "whatif-sweep":
        # the case2_modified experiment itself, checked against its pin below
        edits = [["DM1", "A2", "C1", "VP"], ["DM1", "A2", "C2", "VP"]]
        return {"kind": "whatif", "fixture": "case2", "edits": edits, "cells": 45,
                "digest": "warmup", "cycle_end": True, "expect": None}
    name, argv = cli_commands()[0]
    return cli_op_for(name, argv, True)


# ---------------------------------------------------------------- what-if


class WhatIf:
    """Base panels of the what-if sweep and a generator of distinct edits."""

    def __init__(self, seed: int, documents: dict):
        self.seed = seed
        self.seen: set[str] = set()
        self.base = {}
        for name, doc in documents.items():
            fuzzy = doc["mode"] == "fuzzy"
            self.base[name] = doc
            doc["raw"] = [[list(row) for row in doc["ratings"][dm]] for dm in doc["decision_makers"]]
            doc["weight_values"] = [
                [WEIGHT_SCALE[w] if fuzzy else w for w in doc["weights"][dm]] for dm in doc["decision_makers"]
            ]

    @staticmethod
    def resolve(doc, raw):
        if doc["mode"] == "crisp":
            return raw
        return [[[tuple(RATING_SCALE[v]) if isinstance(v, str) else tuple(v) for v in row] for row in dm] for dm in raw]

    def expectation(self, name, raw) -> dict:
        doc = self.base[name]
        ratings = self.resolve(doc, raw)
        kinds = doc["kinds"]
        if doc["mode"] == "crisp":
            return crisp_expectation(ratings, doc["weight_values"], kinds, topsis=False)
        return fuzzy_expectation(ratings, doc["weight_values"], kinds, topsis=False)

    def base_expectation(self, name) -> dict:
        return self.expectation(name, self.base[name]["raw"])

    def op(self, index: int) -> dict:
        slot, cycle_end = cycle_slot(index, len(WHATIF_DESIGN))
        name = WHATIF_DESIGN[slot]
        doc = self.base[name]
        rng = _rng("whatif-sweep", self.seed, index)
        K, m, n = len(doc["decision_makers"]), len(doc["alternatives"]), len(doc["criteria"])
        while True:
            k, i, j = rng.randrange(K), rng.randrange(m), rng.randrange(n)
            if doc["mode"] == "crisp":
                value = round(rng.uniform(40.0, 100.0), 2)
            elif rng.random() < 0.3:
                value = rng.choice(tuple(RATING_SCALE))
            else:
                value = _triplet(rng, 0.5, 8.5, 1.5)
            raw = [[list(row) for row in dm] for dm in doc["raw"]]
            raw[k][i][j] = value
            key = digest(name, k, i, j, value)
            if key in self.seen:
                continue
            if doc["mode"] == "fuzzy":
                probe = [[list(row) for row in dm] for dm in raw]
                _fix_zero_groups(random.Random(0), probe)
                if probe != raw:  # would leave a zero reference mean
                    continue
            self.seen.add(key)
            break
        edit = [doc["decision_makers"][k], doc["alternatives"][i], doc["criteria"][j], value]
        return {
            "kind": "whatif",
            "fixture": name,
            "edit": edit,
            "cells": K * m * n,
            "digest": key,
            "cycle_end": cycle_end,
            "expect": self.expectation(name, raw),
        }


def pins() -> dict:
    """The full-precision pins of tests/test_regression.py, as plain data.

    ``rows`` pairs an alternative's index with its pinned (U, X, S).
    """
    case1, case2 = test_regression.CASE1_EXACT, test_regression.CASE2_EXACT
    return {
        "case1": {"rows": [[i, list(case1[f"A{i + 1}"])] for i in range(17)], "atol": 1e-9},
        "case2": {"rows": [[i, list(case2[f"A{i + 1}"])] for i in range(3)], "atol": 1e-12},
        "case2_modified": {"rows": [[1, list(test_regression.CASE2_MODIFIED_A2)]], "atol": 1e-12},
    }


# ---------------------------------------------------------------- CLI


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.out"


def cli_op_for(name, argv, cycle_end) -> dict:
    fixture = argv[argv.index("--fixture") + 1]
    return {
        "kind": "cli",
        "name": name,
        "argv": argv,
        "cells": FIXTURE_CELLS[fixture],
        "digest": digest(*argv),
        "cycle_end": cycle_end,
        "expect": {"stdout": golden_path(name).read_text("utf-8"), "exit_code": 0},
    }


def cli_op(seed: int, index: int) -> dict:
    """A seeded order of the command variants, each run on all three fixtures.

    A run stops only after a whole group of three, so every run processes
    the same cells per op on average whatever the seed.
    """
    commands = cli_commands()
    group, position = divmod(index, len(CLI_FIXTURES))
    cycle, slot = divmod(group, len(commands) // len(CLI_FIXTURES))
    variants = list(range(len(commands) // len(CLI_FIXTURES)))
    _rng("cli-fixtures", seed, cycle).shuffle(variants)
    name, argv = commands[variants[slot] * len(CLI_FIXTURES) + position]
    return cli_op_for(name, argv, position == len(CLI_FIXTURES) - 1)


def check_cli_pins() -> list[str]:
    """Compare the full-precision JSON goldens with the regression pins."""
    problems = []
    for fixture, pinned in pins().items():
        rows = json.loads(golden_path(f"rank-{fixture}-json-p12").read_text("utf-8"))["rows"]
        for i, values in pinned["rows"]:
            got = (rows[i]["U"], rows[i]["X"], rows[i]["S"])
            # printed with 12 decimals, so allow half a unit in the last place
            if any(abs(g - v) > pinned["atol"] + 5e-13 for g, v in zip(got, values)):
                problems.append(f"{fixture} {rows[i]['alternative']}: {got} vs pin {values}")
    return problems
