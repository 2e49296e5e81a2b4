"""Crisp indicator pipeline: normalize, energy, quality, exergy, entropy, rank.

The pipeline turns a panel of ``K`` decision makers rating ``m`` alternatives
on ``n`` criteria into three per-alternative indicators:

* energy ``U`` — weight times normalized rating, a pure quantity measure;
* exergy ``X`` — energy discounted by the quality of the rating, where quality
  is one minus the relative distance from a reference mean rating;
* entropy ``S = U - X`` — the part of the energy lost to disagreement.

Alternatives are ranked by descending indicator value.  The stages run in
:mod:`thermorank.kernel`, which treats crisp ratings as cells with a single
component (shape ``(K, m, n, 1)``); the functions here take and return plain
``(K, m, n)`` arrays.  Crisp quality in ``across_experts`` mode is measured on
the raw ratings, and per-DM aggregates are used as they are.  Everything is a
pure function of an immutable :class:`CrispPanel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .config import CriterionAggregation, CriterionSpec, EngineConfig, QualityReference
from .kernel import AggregateResult, FloatArray

__all__ = [
    "CrispPanel",
    "IndicatorReport",
    "AggregateResult",
    "normalize",
    "energy_matrix",
    "quality_matrix",
    "exergy_matrix",
    "work",
    "aggregate",
    "entropy",
    "rank",
    "run_crisp",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _cells(values) -> FloatArray:
    """``(K, m, n)`` or ``(K, n)`` values with the kernel's component axis appended."""
    return np.asarray(values, dtype=np.float64)[..., None]


@dataclass(frozen=True, eq=False)
class CrispPanel(kernel.PanelBase):
    """Immutable rating panel: ``ratings[k, i, j]`` is DM ``k``'s score of
    alternative ``i`` on criterion ``j``; ``weights[k, j]`` the matching weight.

    ``prenormalized=True`` declares the ratings already scale-free (each value
    in [0, 1] on a common scale), in which case the normalization step passes
    them through untouched.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    decision_makers: tuple[str, ...]
    ratings: FloatArray
    weights: FloatArray
    prenormalized: bool = False

    def __post_init__(self) -> None:
        self._coerce_ids()
        object.__setattr__(self, "ratings", _frozen(np.asarray(self.ratings, dtype=np.float64)))
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=np.float64)))
        self._validate(self.ratings, self.weights, ())

    @property
    def cells(self) -> FloatArray:
        return self.ratings[..., None]

    @property
    def weight_cells(self) -> FloatArray:
        return self.weights[..., None]


@dataclass(frozen=True, eq=False)
class IndicatorReport:
    """Everything the crisp pipeline produced, intermediates included.

    ``*_cells`` arrays are shaped ``(K, m, n)``; ``per_dm_*`` are ``(K, m)``;
    ``U``/``X``/``S`` are per-alternative vectors aligned to ``alternatives``.
    ``negative_quality_cells`` lists ``(dm, alternative, criterion)`` ids of
    cells whose rating strayed more than one reference mean from it — allowed,
    but worth surfacing.
    """

    alternatives: tuple[str, ...]
    U: FloatArray
    X: FloatArray
    S: FloatArray
    rank_by_U: tuple[int, ...]
    rank_by_X: tuple[int, ...]
    normalized: FloatArray
    energy_cells: FloatArray
    quality_cells: FloatArray
    exergy_cells: FloatArray
    entropy_cells: FloatArray
    per_dm_energy: FloatArray
    per_dm_exergy: FloatArray
    aggregation: CriterionAggregation
    quality_reference: QualityReference
    negative_quality_cells: tuple[tuple[str, str, str], ...] = field(default=())


def normalize(panel: CrispPanel) -> FloatArray:
    """Scale each decision maker's columns onto (0, 1].

    Benefit criteria divide by the column maximum, cost criteria divide the
    column minimum by the value; either way the best alternative lands on 1.
    A column that is identically zero on a benefit criterion has no maximum to
    divide by and raises :class:`AllZeroColumn`.  Panels flagged as already
    normalized pass through unchanged.
    """
    return kernel.normalize(panel)[..., 0]


def energy_matrix(normalized: FloatArray, weights: FloatArray) -> FloatArray:
    """Entrywise ``w * r`` with weights broadcast over alternatives."""
    return kernel.energy(_cells(normalized), _cells(weights))[..., 0]


def quality_matrix(values: FloatArray, config: EngineConfig) -> FloatArray:
    """Score each value by closeness to its reference mean: ``1 - |v - mean| / mean``.

    The reference mean is taken over decision makers for the same cell
    (``across_experts``) or over alternatives within one decision maker's
    column (``across_alternatives``).  1 means consensus with the reference;
    values can go negative when a value is more than one mean away.  A zero
    reference mean follows ``config.zero_mean_policy``.
    """
    return kernel.quality(_cells(values), config)[..., 0]


def exergy_matrix(quality: FloatArray, energy: FloatArray) -> FloatArray:
    return np.asarray(quality, dtype=np.float64) * np.asarray(energy, dtype=np.float64)


def work(weight: float, r1: float, r2: float) -> float:
    """Work done moving a rating between two states: ``w * |r1 - r2|``."""
    return weight * abs(r1 - r2)


def aggregate(
    energy: FloatArray,
    exergy: FloatArray,
    weights: FloatArray,
    config: EngineConfig,
) -> AggregateResult:
    """Collapse cell matrices to per-alternative ``U`` and ``X``.

    First over criteria for each decision maker (sum or mean per the resolved
    aggregation mode), then by arithmetic mean over decision makers.  Using
    weighted-sum explicitly with weight sums away from 1 is almost always a
    units mistake, so it warns.
    """
    result = kernel.aggregate(_cells(energy), _cells(exergy), _cells(weights), config)
    return result._replace(per_dm_U=result.per_dm_U[..., 0], per_dm_X=result.per_dm_X[..., 0])


def entropy(U: FloatArray | float, X: FloatArray | float):
    """Entropy is whatever energy is not exergy: ``S = U - X``."""
    return U - X


def rank(values, descending: bool = True) -> tuple[int, ...]:
    """1-based ranks, rank 1 for the largest value; ties keep input order."""
    values = np.asarray(values, dtype=np.float64)
    keys = -values if descending else values
    order = np.argsort(keys, kind="stable")  # stable sort keeps tied values in input order
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.arange(1, len(values) + 1)
    return tuple(int(r) for r in ranks)


def run_crisp(panel: CrispPanel, config: EngineConfig | None = None) -> IndicatorReport:
    """Run the full pipeline on a panel and return the audit-friendly report.

    Quality works on the as-given ratings in ``across_experts`` mode (expert
    agreement about the same cell is a property of what the experts actually
    said, independent of each DM's column scaling) and on the normalized
    matrix in ``across_alternatives`` mode, whose reference mean is defined in
    terms of the normalized column.
    """
    config = config or EngineConfig()
    pipeline = kernel.run(panel, config)
    result = pipeline.result
    return IndicatorReport(
        alternatives=panel.alternatives,
        U=result.U,
        X=result.X,
        S=_frozen(entropy(result.U, result.X)),
        rank_by_U=rank(result.U),
        rank_by_X=rank(result.X),
        normalized=pipeline.normalized[..., 0],
        energy_cells=pipeline.energy_cells[..., 0],
        quality_cells=pipeline.quality_cells[..., 0],
        exergy_cells=pipeline.exergy_cells[..., 0],
        entropy_cells=pipeline.entropy_cells[..., 0],
        per_dm_energy=result.per_dm_U[..., 0],
        per_dm_exergy=result.per_dm_X[..., 0],
        aggregation=result.aggregation,
        quality_reference=config.quality_reference,
        negative_quality_cells=pipeline.negative_quality_cells,
    )
