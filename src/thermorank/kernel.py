"""The indicator pipeline shared by the crisp and fuzzy engines.

Every stage works on float arrays of cells shaped ``(K, m, n, c)``: decision
maker, alternative, criterion, component.  Crisp panels have ``c = 1``; fuzzy
panels have ``c = 3``, one slot per ``(a, b, c)`` component of a triangular
fuzzy number.  Normalization, energy ``w * r``, quality
``1 - |r - mean| / mean``, exergy ``q * w * r``, entropy and the per-DM
collapse over criteria are all elementwise over the trailing axis, so one
expression serves both engines.

Two differences remain, and both follow from ``c`` (that is, from the panel
type), never from configuration:

* In ``across_experts`` mode crisp quality is measured on the raw ratings;
  fuzzy quality on the normalized triplets.
* Each per-DM aggregate is reduced to a scalar before averaging over the
  panel: crisp values are taken as they are, fuzzy triplets go through the
  root-mean-square score :func:`score` (``|x|`` on a degenerate triplet).
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .config import (
    CriterionAggregation,
    CriterionSpec,
    EngineConfig,
    QualityReference,
    WEIGHT_SUM_TOLERANCE,
    ZeroMeanPolicy,
    resolve_aggregation,
)
from .errors import AllZeroColumn, ValidationError, WeightSumWarning, ZeroReferenceMean

FloatArray = NDArray[np.float64]


# ---------------------------------------------------------------- panels


class PanelBase:
    """Ids, shape helpers and validation shared by both panel types.

    Subclasses are frozen dataclasses with ``alternatives``, ``criteria``,
    ``decision_makers`` and ``prenormalized`` fields that expose their ratings
    as ``cells`` ``(K, m, n, c)`` and their weights as ``weight_cells``
    ``(K, n, c)``.
    """

    def _coerce_ids(self) -> None:
        object.__setattr__(self, "alternatives", tuple(str(a) for a in self.alternatives))
        object.__setattr__(
            self,
            "criteria",
            tuple(c if isinstance(c, CriterionSpec) else CriterionSpec(*c) for c in self.criteria),
        )
        object.__setattr__(self, "decision_makers", tuple(str(d) for d in self.decision_makers))

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.criteria)

    @property
    def K(self) -> int:
        return len(self.decision_makers)

    @property
    def criterion_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.criteria)

    def cost_mask(self) -> NDArray[np.bool_]:
        return np.array([c.is_cost for c in self.criteria], dtype=bool)

    def _cell(self, k: int, i: int, j: int) -> str:
        return (
            f"dm {self.decision_makers[k]!r}, alternative {self.alternatives[i]!r},"
            f" criterion {self.criteria[j].id!r}"
        )

    def _weight(self, k: int, j: int) -> str:
        return f"dm {self.decision_makers[k]!r}, criterion {self.criteria[j].id!r}"

    def _validate(self, ratings: np.ndarray, weights: np.ndarray, component: tuple[int, ...]) -> None:
        """Check ids and values; ``component`` is the trailing shape of one rating."""
        if self.m < 2:
            raise ValidationError(f"m >= 2 required (got {self.m} alternative(s))")
        if self.n < 1:
            raise ValidationError("at least one criterion required")
        if self.K < 1:
            raise ValidationError("at least one decision maker required")
        for kind, ids in (
            ("alternative", self.alternatives),
            ("criterion", self.criterion_ids),
            ("decision maker", self.decision_makers),
        ):
            if len(set(ids)) < len(ids):
                duplicate = next(x for index, x in enumerate(ids) if x in ids[:index])
                raise ValidationError(f"duplicate {kind} id {duplicate!r}")

        K, m, n = self.K, self.m, self.n
        if ratings.shape != (K, m, n) + component:
            raise ValidationError(
                f"ratings shape {ratings.shape} does not match (K, m, n) = {(K, m, n)}"
            )
        if weights.shape != (K, n) + component:
            raise ValidationError(
                f"weights shape {weights.shape} does not match (K, n) = {(K, n)}"
            )
        cells = ratings.reshape(K, m, n, -1)
        weight_cells = weights.reshape(K, n, -1)

        def first(mask) -> tuple[int, ...]:
            return tuple(int(v) for v in np.argwhere(mask)[0])

        for what, values, locate in (
            ("rating", cells, self._cell),
            ("weight", weight_cells, self._weight),
        ):
            for problem, bad in (
                ("non-finite", ~np.isfinite(values).all(axis=-1)),
                ("unordered", (np.diff(values, axis=-1) < 0).any(axis=-1)),
                ("negative", values[..., 0] < 0),
            ):
                if bad.any():
                    index = first(bad)
                    raise ValidationError(f"{problem} {what} {_show(values[index])} at {locate(*index)}")

        zero_cost = (cells[..., 0] == 0) & self.cost_mask()
        if zero_cost.any():
            k, i, j = first(zero_cost)
            raise ValidationError(
                f"cost criterion needs positive ratings; got {_show(cells[k, i, j])}"
                f" at {self._cell(k, i, j)}"
            )


def _show(value: np.ndarray) -> str:
    return repr(float(value[0])) if value.size == 1 else repr(tuple(float(v) for v in value))


# ---------------------------------------------------------------- stages


def normalize(panel: PanelBase) -> FloatArray:
    """Scale each decision maker's columns onto (0, 1], keeping ``a <= b <= c``.

    Benefit columns divide by the largest last component over alternatives;
    cost columns compute ``floor / cells[..., ::-1]`` with ``floor`` the
    smallest first component, so ``(a, b, c)`` maps to
    ``(floor/c, floor/b, floor/a)``.  With ``c = 1`` these are the crisp
    max-ratio and min-ratio rules.  A benefit column whose peak is zero raises
    :class:`AllZeroColumn`; panel validation keeps cost cells positive.
    """
    cells = panel.cells
    if panel.prenormalized:
        return cells.copy()

    out = np.empty_like(cells)
    cost = panel.cost_mask()
    benefit = ~cost
    if benefit.any():
        columns = cells[:, :, benefit]
        peak = columns[..., -1:].max(axis=1, keepdims=True)
        if (peak == 0).any():
            k, _, j, _ = np.argwhere(peak == 0)[0]
            raise AllZeroColumn(
                f"benefit criterion {panel.criteria[np.flatnonzero(benefit)[j]].id!r} is all zero"
                f" for dm {panel.decision_makers[k]!r}"
            )
        out[:, :, benefit] = columns / peak
    if cost.any():
        columns = cells[:, :, cost]
        out[:, :, cost] = columns[..., :1].min(axis=1, keepdims=True) / columns[..., ::-1]
    return out


def energy(normalized: FloatArray, weights: FloatArray) -> FloatArray:
    """``w * r`` for every cell; ``weights`` ``(K, n, c)`` broadcast over alternatives."""
    return normalized * weights[:, None]


def quality(values: FloatArray, config: EngineConfig) -> FloatArray:
    """``1 - |v - mean| / mean`` per component, against the configured reference.

    The mean is over decision makers for the same cell (``across_experts``) or
    over alternatives in one decision maker's column (``across_alternatives``).
    Components are at most 1 and may go negative.  A zero reference mean
    follows ``config.zero_mean_policy``: an error, or quality 1 where the value
    is zero too.
    """
    axis = 0 if config.quality_reference is QualityReference.ACROSS_EXPERTS else 1
    reference = values.mean(axis=axis, keepdims=True)

    zero_reference = reference == 0
    if zero_reference.any():
        described = "experts" if axis == 0 else "alternatives"

        def where(mask) -> str:
            k, i, j, p = (int(v) for v in np.argwhere(mask)[0])
            owner = f"alternative {i}" if axis == 0 else f"dm {k}"
            return f"({owner}, criterion {j}, component {p}; 0-based)"

        if config.zero_mean_policy is ZeroMeanPolicy.ERROR:
            raise ZeroReferenceMean(
                f"mean over {described} is zero at {where(zero_reference)};"
                " cannot take relative distance"
            )
        mismatched = zero_reference & (values != 0)
        if mismatched.any():
            raise ZeroReferenceMean(
                f"mean over {described} is zero at {where(mismatched)} but the value is not"
            )

    with np.errstate(divide="ignore", invalid="ignore"):
        result = 1.0 - np.abs(values - reference) / reference
    return np.where(zero_reference, 1.0, result)


def aggregation_mode(config: EngineConfig, weights: FloatArray | None) -> CriterionAggregation:
    """Resolve the per-DM collapse from the ``(K, n, c)`` weights.

    The automatic rule wants every component of every decision maker's weight
    sum at 1; without weights it falls back to mean-of-weighted.  An explicit
    weighted sum over off-unit sums is almost always a units mistake, so it
    raises a :class:`WeightSumWarning`.
    """
    if weights is None:
        return config.criterion_aggregation or CriterionAggregation.MEAN_OF_WEIGHTED
    sums = weights.sum(axis=1)
    if (
        config.criterion_aggregation is CriterionAggregation.WEIGHTED_SUM
        and (np.abs(sums - 1.0) > WEIGHT_SUM_TOLERANCE).any()
    ):
        shown = sums[:, 0] if sums.shape[-1] == 1 else sums
        warnings.warn(
            WeightSumWarning(
                "weighted_sum aggregation with per-DM weight sums "
                f"{np.round(shown, 6).tolist()} not equal to 1"
            ),
            stacklevel=3,
        )
    return resolve_aggregation(config, sums.ravel())


def collapse(cells: FloatArray, mode: CriterionAggregation) -> FloatArray:
    """Per-DM aggregate over criteria: ``(K, m, n, c)`` to ``(K, m, c)``."""
    if mode is CriterionAggregation.WEIGHTED_SUM:
        return cells.sum(axis=2)
    return cells.mean(axis=2)


def score(values: FloatArray) -> FloatArray:
    """Drop the component axis: crisp values as they are, triplets by RMS.

    The fuzzy score is ``sqrt((a^2 + b^2 + c^2) / 3)``, the array form of
    :func:`thermorank.tfn.defuzzify`.
    """
    if values.shape[-1] == 1:
        return values[..., 0]
    a, b, c = values[..., 0], values[..., 1], values[..., 2]
    return np.sqrt((a * a + b * b + c * c) / 3.0)


class AggregateResult(NamedTuple):
    """Per-alternative indicators plus the per-DM aggregates they average.

    The kernel's ``per_dm_*`` are ``(K, m, c)``; :func:`thermorank.crisp.aggregate`
    drops the component axis.
    """

    U: FloatArray
    X: FloatArray
    per_dm_U: FloatArray
    per_dm_X: FloatArray
    aggregation: CriterionAggregation


def aggregate(
    energy_cells: FloatArray,
    exergy_cells: FloatArray,
    weights: FloatArray | None,
    config: EngineConfig,
) -> AggregateResult:
    """Collapse over criteria per DM, score, then average over decision makers."""
    mode = aggregation_mode(config, weights)
    per_dm_U = collapse(energy_cells, mode)
    per_dm_X = collapse(exergy_cells, mode)
    return AggregateResult(
        score(per_dm_U).mean(axis=0), score(per_dm_X).mean(axis=0), per_dm_U, per_dm_X, mode
    )


# ---------------------------------------------------------------- pipeline


class Pipeline(NamedTuple):
    """Every stage of one run; cell arrays are ``(K, m, n, c)``, read-only."""

    normalized: FloatArray
    energy_cells: FloatArray
    quality_cells: FloatArray
    exergy_cells: FloatArray
    entropy_cells: FloatArray
    result: AggregateResult
    negative_quality_cells: tuple[tuple[str, str, str], ...]


def run(panel: PanelBase, config: EngineConfig) -> Pipeline:
    """Run every stage on a validated panel."""
    crisp = panel.cells.shape[-1] == 1
    normalized = normalize(panel)
    energy_cells = energy(normalized, panel.weight_cells)
    # experts' agreement on a crisp cell does not depend on each DM's column
    # scaling; fuzzy triplets only become comparable once normalized
    basis = (
        panel.cells
        if crisp and config.quality_reference is QualityReference.ACROSS_EXPERTS
        else normalized
    )
    quality_cells = quality(basis, config)
    exergy_cells = quality_cells * energy_cells
    entropy_cells = energy_cells - exergy_cells
    result = aggregate(energy_cells, exergy_cells, panel.weight_cells, config)

    flagged = tuple(
        (panel.decision_makers[k], panel.alternatives[i], panel.criteria[j].id)
        for k, i, j in np.argwhere((quality_cells < 0).any(axis=-1))
    )
    for array in (normalized, energy_cells, quality_cells, exergy_cells, entropy_cells, *result[:4]):
        array.setflags(write=False)
    return Pipeline(normalized, energy_cells, quality_cells, exergy_cells, entropy_cells, result, flagged)
