"""Criterion metadata and the knobs that resolve ambiguities in the pipeline.

The indicator pipeline has two places where more than one reading is
defensible, so both are explicit configuration:

* ``quality_reference`` — which population the mean rating is taken over when
  scoring the quality of a single rating: the panel of experts rating the same
  cell (default), or the alternatives within one decision maker's column.
* ``criterion_aggregation`` — whether the per-decision-maker aggregate over
  criteria is a plain weighted sum (sensible when each decision maker's
  weights sum to 1) or the mean of the weighted values.  ``None`` picks
  automatically from the weight sums.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CriterionKind",
    "CriterionSpec",
    "QualityReference",
    "CriterionAggregation",
    "ZeroMeanPolicy",
    "EngineConfig",
    "WEIGHT_SUM_TOLERANCE",
    "resolve_aggregation",
]

#: Allowed deviation of a decision maker's weight sum from 1 before the
#: weighted-sum aggregation mode is considered inappropriate.
WEIGHT_SUM_TOLERANCE = 1e-6


class CriterionKind(str, Enum):
    """Direction of a criterion: larger-is-better or smaller-is-better."""

    BENEFIT = "benefit"
    COST = "cost"


class QualityReference(str, Enum):
    """Population whose mean rating anchors the quality score."""

    ACROSS_EXPERTS = "across_experts"
    ACROSS_ALTERNATIVES = "across_alternatives"


class CriterionAggregation(str, Enum):
    """How per-criterion energies/exergies collapse to one value per DM."""

    WEIGHTED_SUM = "weighted_sum"
    MEAN_OF_WEIGHTED = "mean_of_weighted"


class ZeroMeanPolicy(str, Enum):
    """What to do when a quality reference mean is exactly zero."""

    ERROR = "error"
    QUALITY_ONE_IF_EXACT = "quality_one_if_exact"


def _coerce(value, enum_cls):
    if value is None or isinstance(value, enum_cls):
        return value
    return enum_cls(value)


@dataclass(frozen=True)
class CriterionSpec:
    """Identifier plus direction for one criterion column."""

    id: str
    kind: CriterionKind = CriterionKind.BENEFIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _coerce(self.kind, CriterionKind))

    @property
    def is_cost(self) -> bool:
        return self.kind is CriterionKind.COST


@dataclass(frozen=True)
class EngineConfig:
    """Switches shared by the crisp and fuzzy engines.

    ``criterion_aggregation=None`` means "decide from the data": weighted sum
    when every decision maker's weights sum to 1 within
    :data:`WEIGHT_SUM_TOLERANCE`, mean of the weighted values otherwise.
    """

    quality_reference: QualityReference = QualityReference.ACROSS_EXPERTS
    criterion_aggregation: CriterionAggregation | None = None
    zero_mean_policy: ZeroMeanPolicy = ZeroMeanPolicy.ERROR

    def __post_init__(self) -> None:
        object.__setattr__(self, "quality_reference", _coerce(self.quality_reference, QualityReference))
        object.__setattr__(self, "criterion_aggregation", _coerce(self.criterion_aggregation, CriterionAggregation))
        object.__setattr__(self, "zero_mean_policy", _coerce(self.zero_mean_policy, ZeroMeanPolicy))


def resolve_aggregation(config: EngineConfig, weight_sums: Iterable[float]) -> CriterionAggregation:
    """Return the aggregation mode to use for a panel with these weight sums.

    ``weight_sums`` holds one sum per decision maker (for fuzzy panels, one per
    decision maker per component).  An explicit choice in ``config`` always
    wins; the automatic rule is documented on :class:`EngineConfig`.
    """
    if config.criterion_aggregation is not None:
        return config.criterion_aggregation
    if all(abs(total - 1.0) <= WEIGHT_SUM_TOLERANCE for total in weight_sums):
        return CriterionAggregation.WEIGHTED_SUM
    return CriterionAggregation.MEAN_OF_WEIGHTED
