"""Panel documents: a serializable description of a rating panel.

A :class:`PanelDocument` is the on-disk form — readable ids, per-DM weight
rows and rating matrices, optional linguistic-scale overrides and published
reference rankings.  ``to_panel`` turns a document into a validated
:class:`~thermorank.crisp.CrispPanel` or :class:`~thermorank.fuzzy.FuzzyPanel`
(which is where the m >= 2 rule and all numeric constraints are enforced).

Two formats are supported:

* JSON — the full document; keys ``meta``, ``criteria``, ``decision_makers``,
  ``alternatives``, ``weights``, ``ratings``, plus optional ``literature``
  and ``scales``.  Fuzzy values may be a label string (``"G"``) or a 3-array.
* CSV — a spreadsheet-friendly long format with header
  ``dm,alternative,criterion,value`` where weight rows use ``*`` as the
  alternative, accompanied by a criteria sidecar ``criterion,kind``.  Fuzzy
  CSV values are labels or ``a;b;c`` triplets.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import CriterionSpec
from .crisp import CrispPanel
from .errors import ParseError, ValidationError
from .fuzzy import FuzzyPanel
from .tfn import RATING_SCALE, WEIGHT_SCALE, LinguisticScale, TriangularFuzzyNumber

__all__ = [
    "PanelDocument",
    "parse_document",
    "parse_panel",
    "serialize_document",
    "to_panel",
]

_MODES = ("crisp", "fuzzy")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _crisp_value(value, where: str) -> float:
    if not _is_number(value):
        raise ValidationError(f"expected a number at {where}, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value at {where}")
    if value < 0:
        raise ValidationError(f"negative value at {where}")
    return value


def _fuzzy_value(value, where: str):
    """Normalize a fuzzy payload entry to a label string or a triplet."""
    if isinstance(value, str):
        return value
    if isinstance(value, TriangularFuzzyNumber):
        return value
    if isinstance(value, (list, tuple)) and len(value) == 3 and all(_is_number(v) for v in value):
        return TriangularFuzzyNumber(*(float(v) for v in value))
    raise ValidationError(f"expected a label or (a, b, c) triplet at {where}, got {value!r}")


@dataclass(frozen=True)
class PanelDocument:
    """Validated but still serialization-shaped panel description.

    ``weights[dm]`` is a tuple aligned to ``criteria``; ``ratings[dm]`` is an
    ``m x n`` tuple-of-tuples aligned to ``alternatives`` x ``criteria``.
    Crisp entries are floats; fuzzy entries are label strings or triplets.
    ``literature`` maps a method name to a published rank per alternative.
    """

    name: str
    mode: str
    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    decision_makers: tuple[str, ...]
    weights: dict
    ratings: dict
    normalized: bool = False
    rating_scale: LinguisticScale | None = None
    weight_scale: LinguisticScale | None = None
    literature: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "alternatives", tuple(str(a) for a in self.alternatives))
        try:
            object.__setattr__(
                self,
                "criteria",
                tuple(c if isinstance(c, CriterionSpec) else CriterionSpec(**c) for c in self.criteria),
            )
        except ValueError as exc:
            raise ValidationError(f"bad criterion kind: {exc}") from None
        object.__setattr__(self, "decision_makers", tuple(str(d) for d in self.decision_makers))
        self._check_ids()

        convert = _crisp_value if self.mode == "crisp" else _fuzzy_value
        weights = {}
        for dm in self.decision_makers:
            row = self._row_for(self.weights, dm, "weights", self.n)
            weights[dm] = tuple(
                convert(v, f"weights[{dm!r}][{self.criteria[j].id!r}]") for j, v in enumerate(row)
            )
        self._check_extra_keys(self.weights, "weights")
        object.__setattr__(self, "weights", weights)

        ratings = {}
        for dm in self.decision_makers:
            matrix = self._row_for(self.ratings, dm, "ratings", self.m)
            rows = []
            for i, row in enumerate(matrix):
                if len(row) != self.n:
                    raise ValidationError(
                        f"ragged ratings for dm {dm!r}: row {self.alternatives[i]!r} has"
                        f" {len(row)} value(s), expected {self.n}"
                    )
                rows.append(
                    tuple(
                        convert(v, f"ratings[{dm!r}][{self.alternatives[i]!r}][{self.criteria[j].id!r}]")
                        for j, v in enumerate(row)
                    )
                )
            ratings[dm] = tuple(rows)
        self._check_extra_keys(self.ratings, "ratings")
        object.__setattr__(self, "ratings", ratings)

        literature = {}
        for method, ranks in (self.literature or {}).items():
            ranks = tuple(int(r) for r in ranks)
            if sorted(ranks) != list(range(1, self.m + 1)):
                raise ValidationError(
                    f"literature ranks for {method!r} are not a permutation of 1..{self.m}"
                )
            literature[str(method)] = ranks
        object.__setattr__(self, "literature", literature)
        object.__setattr__(self, "normalized", bool(self.normalized))

    # -- helpers -------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.criteria)

    @property
    def K(self) -> int:
        return len(self.decision_makers)

    def _check_ids(self) -> None:
        if not self.alternatives:
            raise ValidationError("m >= 2 required (document lists no alternatives)")
        if not self.criteria:
            raise ValidationError("at least one criterion required")
        if not self.decision_makers:
            raise ValidationError("at least one decision maker required")
        for kind, ids in (
            ("alternative", self.alternatives),
            ("criterion", tuple(c.id for c in self.criteria)),
            ("decision maker", self.decision_makers),
        ):
            if len(set(ids)) != len(ids):
                raise ValidationError(f"duplicate {kind} ids in document")

    def _row_for(self, mapping, dm: str, section: str, expected: int):
        if not isinstance(mapping, dict):
            raise ValidationError(f"{section} must map decision maker ids to arrays")
        if dm not in mapping:
            raise ValidationError(f"missing {section} for dm {dm!r}")
        row = mapping[dm]
        if not isinstance(row, (list, tuple)) or len(row) != expected:
            raise ValidationError(
                f"{section}[{dm!r}] must be an array of length {expected}"
            )
        return row

    def _check_extra_keys(self, mapping, section: str) -> None:
        extra = set(mapping) - set(self.decision_makers)
        if extra:
            raise ValidationError(
                f"{section} given for unknown decision maker(s): {sorted(extra)}"
            )

    def replace_rating(self, dm: str, alternative: str, criterion: str, value) -> "PanelDocument":
        """Return a copy with one rating cell replaced (used by what-if edits)."""
        if dm not in self.decision_makers:
            raise ValidationError(f"unknown decision maker {dm!r}")
        if alternative not in self.alternatives:
            raise ValidationError(f"unknown alternative {alternative!r}")
        ids = tuple(c.id for c in self.criteria)
        if criterion not in ids:
            raise ValidationError(f"unknown criterion {criterion!r}")
        i = self.alternatives.index(alternative)
        j = ids.index(criterion)
        ratings = {k: [list(row) for row in rows] for k, rows in self.ratings.items()}
        ratings[dm][i][j] = value
        return PanelDocument(
            name=self.name,
            mode=self.mode,
            alternatives=self.alternatives,
            criteria=self.criteria,
            decision_makers=self.decision_makers,
            weights=dict(self.weights),
            ratings=ratings,
            normalized=self.normalized,
            rating_scale=self.rating_scale,
            weight_scale=self.weight_scale,
            literature=dict(self.literature),
        )


# ---------------------------------------------------------------------------
# document -> engine panel


def to_panel(doc: PanelDocument) -> CrispPanel | FuzzyPanel:
    """Build the validated engine panel for a document (enforces m >= 2 etc.)."""
    if doc.mode == "crisp":
        ratings = np.array([doc.ratings[dm] for dm in doc.decision_makers], dtype=np.float64)
        weights = np.array([doc.weights[dm] for dm in doc.decision_makers], dtype=np.float64)
        return CrispPanel(
            alternatives=doc.alternatives,
            criteria=doc.criteria,
            decision_makers=doc.decision_makers,
            ratings=ratings,
            weights=weights,
            prenormalized=doc.normalized,
        )

    dms = doc.decision_makers
    ratings = [v for dm in dms for row in doc.ratings[dm] for v in row]
    weights = [v for dm in dms for v in doc.weights[dm]]
    return FuzzyPanel(
        alternatives=doc.alternatives,
        criteria=doc.criteria,
        decision_makers=dms,
        ratings=_triplets(ratings, doc.rating_scale or RATING_SCALE).reshape(doc.K, doc.m, doc.n, 3),
        weights=_triplets(weights, doc.weight_scale or WEIGHT_SCALE).reshape(doc.K, doc.n, 3),
        rating_labels=[[[_label(v) for v in row] for row in doc.ratings[dm]] for dm in dms],
        weight_labels=[[_label(v) for v in doc.weights[dm]] for dm in dms],
        prenormalized=doc.normalized,
    )


def _label(value) -> str | None:
    return value if isinstance(value, str) else None


def _triplets(values, scale: LinguisticScale) -> np.ndarray:
    """``(len(values), 3)`` array of document values, resolving labels against ``scale``."""

    def components(value) -> tuple[float, float, float]:
        if isinstance(value, str):
            value = scale.resolve(value)
        return value.a, value.b, value.c

    return np.array([components(v) for v in values], dtype=np.float64)


# ---------------------------------------------------------------------------
# JSON


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _json_value(value):
    if isinstance(value, TriangularFuzzyNumber):
        return [value.a, value.b, value.c]
    return value


def _scale_payload(scale: LinguisticScale) -> dict:
    return {label: _json_value(number) for label, number in scale.entries.items()}


def serialize_document(doc: PanelDocument, format: str = "json") -> str:
    """Render a document to text; ``parse_document`` inverts this exactly."""
    if format == "json":
        payload = {
            "meta": {"name": doc.name, "mode": doc.mode, "normalized": doc.normalized},
            "criteria": [{"id": c.id, "kind": c.kind.value} for c in doc.criteria],
            "decision_makers": list(doc.decision_makers),
            "alternatives": list(doc.alternatives),
            "weights": {dm: [_json_value(v) for v in row] for dm, row in doc.weights.items()},
            "ratings": {
                dm: [[_json_value(v) for v in row] for row in rows]
                for dm, rows in doc.ratings.items()
            },
        }
        if doc.literature:
            payload["literature"] = {m: list(r) for m, r in doc.literature.items()}
        scales = {}
        if doc.rating_scale is not None:
            scales["ratings"] = _scale_payload(doc.rating_scale)
        if doc.weight_scale is not None:
            scales["weights"] = _scale_payload(doc.weight_scale)
        if scales:
            payload["scales"] = scales
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if format == "csv":
        return _to_csv(doc)[0]
    raise ValidationError(f"unknown serialization format {format!r}")


def _get(payload: dict, key: str, types, where: str = "document"):
    if key not in payload:
        raise ValidationError(f"{where} is missing required key {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        raise ValidationError(f"{where} key {key!r} has the wrong type")
    return value


def _parse_scale(payload, kind: str) -> LinguisticScale:
    if not isinstance(payload, dict):
        raise ValidationError(f"scale override for {kind} must be a mapping")
    entries = {}
    for label, triplet in payload.items():
        entries[label] = _fuzzy_value(triplet, f"scales[{kind}][{label!r}]")
        if isinstance(entries[label], str):
            raise ValidationError(f"scale entry {label!r} must be a triplet")
    return LinguisticScale(kind, entries)


def _document_from_json(text: str, name: str | None) -> PanelDocument:
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(payload, dict):
        raise ValidationError("top-level JSON value must be an object")

    meta = _get(payload, "meta", dict)
    mode = _get(meta, "mode", str, "meta")
    criteria = []
    for entry in _get(payload, "criteria", list):
        if not isinstance(entry, dict):
            raise ValidationError("criteria entries must be objects with 'id' and optional 'kind'")
        criteria.append(
            {"id": _get(entry, "id", str, "criteria entry"), "kind": entry.get("kind", "benefit")}
        )

    scales = payload.get("scales") or {}
    rating_scale = _parse_scale(scales["ratings"], "rating") if "ratings" in scales else None
    weight_scale = _parse_scale(scales["weights"], "weight") if "weights" in scales else None

    return PanelDocument(
        name=name or meta.get("name", "panel"),
        mode=mode,
        alternatives=_get(payload, "alternatives", list),
        criteria=criteria,
        decision_makers=_get(payload, "decision_makers", list),
        weights=_get(payload, "weights", dict),
        ratings=_get(payload, "ratings", dict),
        normalized=bool(meta.get("normalized", False)),
        rating_scale=rating_scale,
        weight_scale=weight_scale,
        literature=payload.get("literature") or {},
    )


# ---------------------------------------------------------------------------
# CSV

_CSV_HEADER = ["dm", "alternative", "criterion", "value"]
_WEIGHT_MARK = "*"


def _format_csv_value(value) -> str:
    if isinstance(value, TriangularFuzzyNumber):
        return f"{value.a!r};{value.b!r};{value.c!r}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_csv(doc: PanelDocument) -> tuple[str, str]:
    panel_out = io.StringIO()
    writer = csv.writer(panel_out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for dm in doc.decision_makers:
        for j, criterion in enumerate(doc.criteria):
            writer.writerow([dm, _WEIGHT_MARK, criterion.id, _format_csv_value(doc.weights[dm][j])])
        for i, alternative in enumerate(doc.alternatives):
            for j, criterion in enumerate(doc.criteria):
                writer.writerow(
                    [dm, alternative, criterion.id, _format_csv_value(doc.ratings[dm][i][j])]
                )

    criteria_out = io.StringIO()
    writer = csv.writer(criteria_out, lineterminator="\n")
    writer.writerow(["criterion", "kind"])
    for criterion in doc.criteria:
        writer.writerow([criterion.id, criterion.kind.value])
    return panel_out.getvalue(), criteria_out.getvalue()


def _parse_csv_value(raw: str, mode: str, where: str):
    raw = raw.strip()
    if mode == "crisp":
        try:
            return float(raw)
        except ValueError:
            raise ValidationError(f"expected a number at {where}, got {raw!r}") from None
    if ";" in raw:
        parts = raw.split(";")
        if len(parts) != 3:
            raise ValidationError(f"expected 'a;b;c' triplet at {where}, got {raw!r}")
        try:
            return TriangularFuzzyNumber(*(float(p) for p in parts))
        except ValueError:
            raise ValidationError(f"bad triplet component at {where}: {raw!r}") from None
    return raw  # linguistic label


def _sniff_mode(values) -> str:
    for raw in values:
        try:
            float(raw)
        except ValueError:
            return "fuzzy"
    return "crisp"


def _parse_criteria_csv(text: str) -> list[CriterionSpec]:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValidationError("criteria file is empty")
    if [cell.strip().lower() for cell in rows[0]] == ["criterion", "kind"]:
        rows = rows[1:]
    specs = []
    for row in rows:
        if len(row) != 2:
            raise ParseError(f"criteria row needs 2 columns, got {len(row)}: {row!r}")
        try:
            specs.append(CriterionSpec(row[0].strip(), row[1].strip()))
        except ValueError:
            raise ValidationError(f"unknown criterion kind {row[1].strip()!r}") from None
    return specs


def _document_from_csv(
    text: str,
    criteria_text: str,
    name: str | None,
    normalized: bool,
    mode: str | None,
) -> PanelDocument:
    criteria = _parse_criteria_csv(criteria_text)
    criterion_ids = [c.id for c in criteria]

    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    rows = [(line, row) for line, row in zip(range(1, len(rows) + 1), rows) if any(c.strip() for c in row)]
    if not rows:
        raise ParseError("panel file is empty", line=1)
    if [c.strip().lower() for c in rows[0][1]] == _CSV_HEADER:
        rows = rows[1:]

    cells: dict[tuple[str, str, str], str] = {}
    weights: dict[tuple[str, str], str] = {}
    dms: list[str] = []
    alternatives: list[str] = []
    for line, row in rows:
        if len(row) != 4:
            raise ParseError(f"expected 4 columns, got {len(row)}", line=line)
        dm, alternative, criterion, raw = (c.strip() for c in row)
        if criterion not in criterion_ids:
            raise ValidationError(f"line {line}: unknown criterion {criterion!r}")
        if dm not in dms:
            dms.append(dm)
        if alternative == _WEIGHT_MARK:
            if (dm, criterion) in weights:
                raise ValidationError(f"line {line}: duplicate weight for {dm}/{criterion}")
            weights[(dm, criterion)] = raw
        else:
            if alternative not in alternatives:
                alternatives.append(alternative)
            if (dm, alternative, criterion) in cells:
                raise ValidationError(
                    f"line {line}: duplicate rating for {dm}/{alternative}/{criterion}"
                )
            cells[(dm, alternative, criterion)] = raw

    if mode is None:
        mode = _sniff_mode(list(weights.values()) + list(cells.values()))

    weight_rows = {}
    for dm in dms:
        row = []
        for criterion in criterion_ids:
            if (dm, criterion) not in weights:
                raise ValidationError(f"missing weight for {dm}/{criterion}")
            row.append(_parse_csv_value(weights[(dm, criterion)], mode, f"weight {dm}/{criterion}"))
        weight_rows[dm] = row

    rating_rows = {}
    for dm in dms:
        matrix = []
        for alternative in alternatives:
            row = []
            for criterion in criterion_ids:
                key = (dm, alternative, criterion)
                if key not in cells:
                    raise ValidationError(f"missing rating for {dm}/{alternative}/{criterion}")
                row.append(_parse_csv_value(cells[key], mode, f"rating {'/'.join(key)}"))
            matrix.append(row)
        rating_rows[dm] = matrix

    return PanelDocument(
        name=name or "panel",
        mode=mode,
        alternatives=alternatives,
        criteria=criteria,
        decision_makers=dms,
        weights=weight_rows,
        ratings=rating_rows,
        normalized=normalized,
    )


# ---------------------------------------------------------------------------
# public entry points


def _as_text(data) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc.reason}") from None
    return data


def parse_document(
    data,
    format: str = "json",
    *,
    criteria=None,
    name: str | None = None,
    normalized: bool = False,
    mode: str | None = None,
) -> PanelDocument:
    """Parse text/bytes into a :class:`PanelDocument` without building a panel.

    ``criteria`` (the sidecar text) is required for CSV input.  ``normalized``
    and ``mode`` only apply to CSV, which has nowhere to carry them inline.
    """
    text = _as_text(data)
    if format == "json":
        return _document_from_json(text, name)
    if format == "csv":
        if criteria is None:
            raise ValidationError("CSV input needs a criteria sidecar (criterion,kind rows)")
        return _document_from_csv(text, _as_text(criteria), name, normalized, mode)
    raise ValidationError(f"unknown input format {format!r}")


def parse_panel(data, format: str = "json", **kwargs) -> CrispPanel | FuzzyPanel:
    """Parse and validate in one step; returns the engine-ready panel."""
    return to_panel(parse_document(data, format, **kwargs))
