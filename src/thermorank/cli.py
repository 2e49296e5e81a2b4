"""Command-line front end: rank panels, dump indicators, compare, what-if.

Exit codes: 0 success, 1 internal error, 2 validation error (including bad
flags), 3 parse error.  Diagnostics go to stderr; results to stdout.  Set
``THERMORANK_NO_COLOR`` to disable highlighting — disagreement cells keep
their ``*`` marker either way, so output stays grep-able.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import click

from .config import CriterionAggregation, EngineConfig, QualityReference
from .crisp import CrispPanel, IndicatorReport, run_crisp
from .errors import (
    BadEdit,
    DivisionByZero,
    MissingReference,
    ParseError,
    ThermoRankError,
    ValidationError,
    ZeroReferenceMean,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .fuzzy import run_fuzzy
from .io_model import PanelDocument, parse_document, to_panel
from .tfn import RATING_SCALE, TriangularFuzzyNumber, WEIGHT_SCALE
from .topsis import run_topsis

_QUALITY_REFS = {
    "experts": QualityReference.ACROSS_EXPERTS,
    "alternatives": QualityReference.ACROSS_ALTERNATIVES,
}
_AGGREGATIONS = {
    "auto": None,
    "weighted-sum": CriterionAggregation.WEIGHTED_SUM,
    "mean-of-weighted": CriterionAggregation.MEAN_OF_WEIGHTED,
}


def _color_enabled() -> bool:
    return not os.environ.get("THERMORANK_NO_COLOR")


def _mark(text: str) -> str:
    """Flag a disagreeing cell: always a ``*``, color only when allowed."""
    flagged = text + "*"
    if _color_enabled():
        return click.style(flagged, fg="yellow")
    return flagged


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(3)
        except (ValidationError, DivisionByZero, ZeroReferenceMean) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except ThermoRankError as exc:  # pragma: no cover - safety net
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def input_options(fn):
    fn = click.option(
        "--normalized",
        is_flag=True,
        default=False,
        help="Treat CSV ratings as already normalized (skip the scaling step).",
    )(fn)
    fn = click.option(
        "--criteria",
        "criteria_path",
        type=click.Path(exists=True, dir_okay=False, path_type=Path),
        default=None,
        help="Criteria sidecar (criterion,kind rows) for CSV input.",
    )(fn)
    fn = click.option(
        "--input-format",
        type=click.Choice(["json", "csv"]),
        default=None,
        help="Override the input format inferred from the file suffix.",
    )(fn)
    fn = click.option(
        "--input",
        "input_path",
        type=click.Path(exists=True, dir_okay=False, path_type=Path),
        default=None,
        help="Panel document to read.",
    )(fn)
    fn = click.option(
        "--fixture",
        "fixture_name",
        default=None,
        metavar="NAME",
        help="Bundled dataset (see `thermorank fixtures`).",
    )(fn)
    return fn


def engine_options(fn):
    fn = click.option(
        "--aggregation",
        type=click.Choice(list(_AGGREGATIONS)),
        default="auto",
        show_default=True,
        help="Per-DM collapse over criteria; auto picks weighted-sum when each "
        "DM's weights sum to 1.",
    )(fn)
    fn = click.option(
        "--quality-ref",
        type=click.Choice(list(_QUALITY_REFS)),
        default="experts",
        show_default=True,
        help="Mean rating that anchors quality: same cell across experts, or "
        "same column across alternatives.",
    )(fn)
    return fn


def output_options(fn):
    fn = click.option(
        "--precision",
        type=click.IntRange(0, 12),
        default=None,
        help="Decimal places (default: 3 for scalars, 2 for fuzzy triplets).",
    )(fn)
    fn = click.option(
        "--output",
        type=click.Choice(["table", "json", "csv"]),
        default="table",
        show_default=True,
        help="Output format.",
    )(fn)
    return fn


def _load_document(fixture_name, input_path, input_format, criteria_path, normalized) -> PanelDocument:
    if (fixture_name is None) == (input_path is None):
        raise click.UsageError("provide exactly one input: --fixture NAME or --input PATH")
    if fixture_name is not None:
        return load_fixture(fixture_name)
    fmt = input_format or ("csv" if input_path.suffix.lower() == ".csv" else "json")
    criteria_text = criteria_path.read_text("utf-8") if criteria_path else None
    return parse_document(
        input_path.read_text("utf-8"),
        fmt,
        criteria=criteria_text,
        name=input_path.stem,
        normalized=normalized,
    )


def _engine_config(quality_ref: str, aggregation: str) -> EngineConfig:
    return EngineConfig(
        quality_reference=_QUALITY_REFS[quality_ref],
        criterion_aggregation=_AGGREGATIONS[aggregation],
    )


def _run_report(doc: PanelDocument, config: EngineConfig):
    panel = to_panel(doc)
    if isinstance(panel, CrispPanel):
        return panel, run_crisp(panel, config)
    return panel, run_fuzzy(panel, config)


def _scalar_precision(precision) -> int:
    return 3 if precision is None else precision


def _triplet_precision(precision) -> int:
    return 2 if precision is None else precision


def _round(value: float, precision: int):
    return None if math.isnan(value) else round(float(value), precision)


def _report_rows(report, precision, topsis=None) -> list[dict]:
    p = _scalar_precision(precision)
    rows = []
    for idx, alternative in enumerate(report.alternatives):
        row = {
            "alternative": alternative,
            "U": _round(report.U[idx], p),
            "X": _round(report.X[idx], p),
            "S": _round(report.S[idx], p),
            "rank_U": report.rank_by_U[idx],
            "rank_X": report.rank_by_X[idx],
        }
        if topsis is not None:
            row["closeness"] = _round(float(topsis.closeness[idx]), p)
            row["rank_topsis"] = topsis.ranks[idx]
        rows.append(row)
    return rows


def _cell_text(value, precision: int) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _render_table(headers: list[str], body: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in body:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(click.unstyle(cell)))
    lines = []
    for row in [headers] + body:
        padded = []
        for idx, cell in enumerate(row):
            pad = widths[idx] - len(click.unstyle(cell))
            padded.append(cell + " " * pad)
        lines.append("  ".join(padded).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _echo_rows(rows: list[dict], output: str, precision: int, extra: dict | None = None) -> None:
    """Emit plain row dicts as a table, JSON document, or CSV body."""
    if output == "json":
        payload = dict(extra or {})
        payload["rows"] = rows
        click.echo(json.dumps(payload, indent=2))
        return
    headers = list(rows[0].keys()) if rows else []
    if output == "csv":
        click.echo(",".join(headers))
        for row in rows:
            click.echo(",".join("" if row[h] is None else str(row[h]) for h in headers))
        return
    body = [[_cell_text(row[h], precision) for h in headers] for row in rows]
    click.echo(_render_table(headers, body))


def _ranking_order(alternatives, ranks) -> list[str]:
    return [a for _, a in sorted(zip(ranks, alternatives))]


def _ranking_line(label: str, alternatives, ranks) -> str:
    return f"ranking ({label}): " + " > ".join(_ranking_order(alternatives, ranks))


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Energy, exergy, and entropy indicators for group decision panels."""


@main.command(name="rank")
@input_options
@engine_options
@output_options
@click.option(
    "--method",
    type=click.Choice(["exergy", "energy", "topsis"]),
    default="exergy",
    show_default=True,
    help="Indicator that decides the final ordering.",
)
@handle_errors
def cmd_rank(fixture_name, input_path, input_format, criteria_path, normalized,
             quality_ref, aggregation, output, precision, method):
    """Rank the panel's alternatives by the selected indicator."""
    doc = _load_document(fixture_name, input_path, input_format, criteria_path, normalized)
    panel, report = _run_report(doc, _engine_config(quality_ref, aggregation))

    topsis = run_topsis(panel) if method == "topsis" else None
    rows = _report_rows(report, precision, topsis=topsis)

    if method == "energy":
        ranks = report.rank_by_U
    elif method == "exergy":
        ranks = report.rank_by_X
    else:
        ranks = topsis.ranks

    extra = {
        "panel": doc.name,
        "method": method,
        "aggregation": report.aggregation.value,
        "ranking": _ranking_order(report.alternatives, ranks),
    }
    _echo_rows(rows, output, _scalar_precision(precision), extra=extra)
    if output == "table":
        click.echo()
        click.echo(_ranking_line(method, report.alternatives, ranks))
        if topsis is not None and topsis.degenerate:
            click.echo("note: degenerate panel — ideals coincide, ranks follow input order")


@main.command(name="indicators")
@input_options
@engine_options
@output_options
@handle_errors
def cmd_indicators(fixture_name, input_path, input_format, criteria_path, normalized,
                   quality_ref, aggregation, output, precision):
    """Dump the full per-decision-maker indicator tables."""
    doc = _load_document(fixture_name, input_path, input_format, criteria_path, normalized)
    panel, report = _run_report(doc, _engine_config(quality_ref, aggregation))
    p_scalar = _scalar_precision(precision)
    p_triplet = _triplet_precision(precision)

    def fmt(value) -> str:
        if isinstance(value, TriangularFuzzyNumber):
            return "(" + ", ".join(f"{v:.{p_triplet}f}" for v in value) + ")"
        return f"{value:.{p_scalar}f}"

    def raw(value):
        if isinstance(value, TriangularFuzzyNumber):
            return [round(v, p_triplet) for v in value]
        return round(float(value), p_scalar)

    # crisp arrays give floats and fuzzy views give triplets for the same index
    stages = (report.normalized, report.energy_cells, report.quality_cells,
              report.exergy_cells, report.entropy_cells)
    cells = []
    for k, dm in enumerate(panel.decision_makers):
        for i, alternative in enumerate(report.alternatives):
            for j, criterion in enumerate(panel.criterion_ids):
                cells.append((dm, alternative, criterion) + tuple(stage[k, i, j] for stage in stages))

    if output == "json":
        payload = {
            "panel": doc.name,
            "aggregation": report.aggregation.value,
            "quality_reference": report.quality_reference.value,
            "summary": _report_rows(report, precision),
            "cells": [
                {
                    "dm": dm,
                    "alternative": alternative,
                    "criterion": criterion,
                    "normalized": raw(r),
                    "energy": raw(u),
                    "quality": raw(q),
                    "exergy": raw(x),
                    "entropy": raw(s),
                }
                for dm, alternative, criterion, r, u, q, x, s in cells
            ],
        }
        click.echo(json.dumps(payload, indent=2))
        return

    headers = ["dm", "alternative", "criterion", "normalized", "energy", "quality", "exergy", "entropy"]
    body = [
        [dm, alternative, criterion, fmt(r), fmt(u), fmt(q), fmt(x), fmt(s)]
        for dm, alternative, criterion, r, u, q, x, s in cells
    ]
    if output == "csv":
        click.echo(",".join(headers))
        for row in body:
            click.echo(",".join(cell.replace(", ", ";").strip("()") for cell in row))
        return

    click.echo(_render_table(["alternative", "U", "X", "S", "rank_U", "rank_X"],
                             [[_cell_text(v, p_scalar) for v in row.values()]
                              for row in _report_rows(report, precision)]))
    click.echo()
    click.echo(_render_table(headers, body))


@main.command(name="compare")
@input_options
@engine_options
@output_options
@click.option(
    "--method",
    "methods",
    multiple=True,
    type=click.Choice(["energy", "exergy", "topsis"]),
    help="Ranking methods to tabulate (repeatable); default: energy and exergy.",
)
@handle_errors
def cmd_compare(fixture_name, input_path, input_format, criteria_path, normalized,
                quality_ref, aggregation, output, precision, methods):
    """Tabulate rankings side by side and mark the cells that disagree."""
    doc = _load_document(fixture_name, input_path, input_format, criteria_path, normalized)
    panel, report = _run_report(doc, _engine_config(quality_ref, aggregation))

    chosen = list(dict.fromkeys(methods)) or ["energy", "exergy"]
    if not doc.literature and len(chosen) < 2:
        raise MissingReference(
            "panel has no stored reference ranking; give at least two --method flags"
        )

    columns: dict[str, tuple[int, ...]] = {}
    for method in chosen:
        if method == "energy":
            columns["energy"] = report.rank_by_U
        elif method == "exergy":
            columns["exergy"] = report.rank_by_X
        else:
            columns["topsis"] = run_topsis(panel).ranks
    for method, ranks in doc.literature.items():
        columns[method] = ranks

    # reference column: the stored ranking when present, else the first method
    reference = next(iter(doc.literature)) if doc.literature else chosen[0]
    ref_ranks = columns[reference]

    if output == "json":
        payload = {
            "panel": doc.name,
            "reference": reference,
            "columns": list(columns),
            "rows": [
                {
                    "alternative": alternative,
                    "ranks": {name: columns[name][idx] for name in columns},
                    "disagrees": [
                        name
                        for name in columns
                        if name != reference and columns[name][idx] != ref_ranks[idx]
                    ],
                }
                for idx, alternative in enumerate(report.alternatives)
            ],
        }
        click.echo(json.dumps(payload, indent=2))
        return

    headers = ["alternative"] + list(columns)
    body = []
    for idx, alternative in enumerate(report.alternatives):
        row = [alternative]
        for name in columns:
            cell = str(columns[name][idx])
            if name != reference and columns[name][idx] != ref_ranks[idx]:
                cell = _mark(cell)
            row.append(cell)
        body.append(row)
    if output == "csv":
        click.echo(",".join(headers))
        for row in body:
            click.echo(",".join(click.unstyle(cell) for cell in row))
        return
    click.echo(_render_table(headers, body))
    click.echo()
    click.echo(f"* = differs from {reference}")


_EDIT_PATTERN = re.compile(r"^([^:=]+):([^:=]+):([^:=]+)=(.+)$")


def _parse_edit_value(doc: PanelDocument, token: str, raw: str):
    if doc.mode == "crisp":
        try:
            value = float(raw)
        except ValueError:
            raise BadEdit(token, f"expected a number, got {raw!r}") from None
        if not math.isfinite(value) or value < 0:
            raise BadEdit(token, "rating must be finite and nonnegative")
        return value
    if ";" in raw:
        parts = raw.split(";")
        if len(parts) != 3:
            raise BadEdit(token, "triplet must be a;b;c")
        try:
            return TriangularFuzzyNumber(*(float(p) for p in parts))
        except ValueError:
            raise BadEdit(token, f"bad triplet {raw!r}") from None
    scale = doc.rating_scale or RATING_SCALE
    if raw not in scale:
        raise BadEdit(token, f"unknown rating label {raw!r} (scale: {', '.join(scale.labels())})")
    return raw


def _apply_edits(doc: PanelDocument, edits) -> PanelDocument:
    for token in edits:
        match = _EDIT_PATTERN.match(token)
        if not match:
            raise BadEdit(token, "expected dm:alternative:criterion=value")
        dm, alternative, criterion, raw = (part.strip() for part in match.groups())
        value = _parse_edit_value(doc, token, raw)
        try:
            doc = doc.replace_rating(dm, alternative, criterion, value)
        except ValidationError as exc:
            raise BadEdit(token, str(exc)) from None
    return doc


@main.command(name="whatif")
@input_options
@engine_options
@output_options
@click.argument("edits", nargs=-1)
@handle_errors
def cmd_whatif(fixture_name, input_path, input_format, criteria_path, normalized,
               quality_ref, aggregation, output, precision, edits):
    """Re-rank after rating edits of the form dm:alternative:criterion=value.

    Crisp values are numbers; fuzzy values are scale labels (G, VP, ...) or
    a;b;c triplets.  Emits the indicators before and after, plus rank moves.
    """
    doc = _load_document(fixture_name, input_path, input_format, criteria_path, normalized)
    config = _engine_config(quality_ref, aggregation)
    _, before = _run_report(doc, config)
    edited = _apply_edits(doc, edits)
    _, after = _run_report(edited, config)

    p = _scalar_precision(precision)
    before_rows = _report_rows(before, precision)
    after_rows = _report_rows(after, precision)
    moves = [
        {
            "alternative": alternative,
            "rank_X_before": before.rank_by_X[idx],
            "rank_X_after": after.rank_by_X[idx],
        }
        for idx, alternative in enumerate(before.alternatives)
        if before.rank_by_X[idx] != after.rank_by_X[idx]
    ]

    if output == "json":
        click.echo(
            json.dumps(
                {
                    "panel": doc.name,
                    "edits": list(edits),
                    "before": before_rows,
                    "after": after_rows,
                    "rank_changes": moves,
                },
                indent=2,
            )
        )
        return
    if output == "csv":
        click.echo("stage," + ",".join(before_rows[0].keys()))
        for stage, rows in (("before", before_rows), ("after", after_rows)):
            for row in rows:
                click.echo(stage + "," + ",".join(str(v) for v in row.values()))
        return

    click.echo("before:")
    _echo_rows(before_rows, "table", p)
    click.echo()
    click.echo("after:")
    _echo_rows(after_rows, "table", p)
    click.echo()
    if moves:
        for move in moves:
            click.echo(
                f"rank change (exergy): {move['alternative']} "
                f"{move['rank_X_before']} -> {move['rank_X_after']}"
            )
    else:
        click.echo("no rank changes (exergy)")


@main.command(name="fixtures")
@output_options
@handle_errors
def cmd_fixtures(output, precision):
    """List the bundled datasets."""
    rows = []
    for name in FIXTURE_NAMES:
        doc = load_fixture(name)
        rows.append(
            {
                "name": name,
                "mode": doc.mode,
                "alternatives": doc.m,
                "criteria": doc.n,
                "decision_makers": doc.K,
                "normalized": doc.normalized,
                "literature": ", ".join(doc.literature) or "-",
            }
        )
    if output == "json":
        click.echo(json.dumps({"fixtures": rows}, indent=2))
        return
    headers = list(rows[0].keys())
    body = [[str(row[h]) for h in headers] for row in rows]
    if output == "csv":
        click.echo(",".join(headers))
        for row in body:
            click.echo(",".join(row))
        return
    click.echo(_render_table(headers, body))


if __name__ == "__main__":  # pragma: no cover
    main()
