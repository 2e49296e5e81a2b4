"""Fuzzy indicator pipeline over triangular-fuzzy ratings and weights.

The stages run in :mod:`thermorank.kernel` on ``(K, m, n, 3)`` arrays, one
trailing slot per ``(a, b, c)`` component, exactly as the crisp pipeline runs
on ``(K, m, n, 1)``.  Two things differ from crisp, both because the cells are
triplets: quality is always measured on the normalized triplets, and each
per-decision-maker aggregate is collapsed to a scalar with the root-mean-square
score :func:`thermorank.tfn.defuzzify` before averaging over the panel.
Collapsing any earlier would change results: componentwise products do not
commute with the score.

Panels and reports hand their triplet arrays out as :class:`TripletView`
objects, indexable as ``view[k][i][j]`` down to a
:class:`~thermorank.tfn.TriangularFuzzyNumber`.  The stage functions accept
views, arrays, or nested sequences of triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernel
from .config import CriterionAggregation, CriterionSpec, EngineConfig, QualityReference
from .crisp import rank
from .errors import ValidationError
from .kernel import FloatArray
from .tfn import TriangularFuzzyNumber as TFN

__all__ = [
    "TripletView",
    "FuzzyPanel",
    "FuzzyIndicatorReport",
    "FuzzyAggregateResult",
    "normalize_fuzzy",
    "fuzzy_energy",
    "fuzzy_quality",
    "fuzzy_exergy",
    "fuzzy_entropy",
    "aggregate_fuzzy",
    "run_fuzzy",
]


class TripletView:
    """Read-only nested-sequence view of a float array whose last axis is ``(a, b, c)``.

    ``view[k][i][j]`` (or ``view[k, i, j]``) is a :class:`TFN`; a shorter
    index gives another view.  Views iterate, have a ``len``, compare equal to
    anything holding the same triplets, and ``np.asarray(view)`` is the
    underlying array.
    """

    __slots__ = ("array",)

    def __init__(self, array: FloatArray) -> None:
        self.array = array

    def __getitem__(self, index):
        item = self.array[index]
        return TFN(*item) if item.ndim == 1 else TripletView(item)

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return (self[index] for index in range(len(self.array)))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy)

    def __eq__(self, other) -> bool:
        try:
            return np.array_equal(self.array, triplets(other))
        except (TypeError, ValueError):
            return False

    __hash__ = None

    def __repr__(self) -> str:
        return f"TripletView(shape={self.array.shape})"


def triplets(values) -> FloatArray:
    """Float array of a view, an array, or nested sequences of triplets or TFNs."""
    if isinstance(values, TripletView):
        return values.array
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class FuzzyPanel(kernel.PanelBase):
    """Panel of triangular-fuzzy ratings; same layout as :class:`CrispPanel`.

    ``ratings`` and ``weights`` accept nested triplets, TFNs, views or arrays,
    and are stored as read-only ``(K, m, n, 3)`` and ``(K, n, 3)`` arrays
    behind :class:`TripletView` objects.  ``rating_labels`` /
    ``weight_labels`` optionally retain the linguistic labels the triplets
    came from, for audit output.  ``prenormalized=True`` marks ratings that
    are already scale-free triplets in [0, 1].
    """

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    decision_makers: tuple[str, ...]
    ratings: TripletView
    weights: TripletView
    rating_labels: tuple | None = None
    weight_labels: tuple | None = None
    prenormalized: bool = False

    def __post_init__(self) -> None:
        self._coerce_ids()
        arrays = []
        for name in ("ratings", "weights"):
            try:
                array = np.array(triplets(getattr(self, name)), dtype=np.float64)
            except (TypeError, ValueError):
                raise ValidationError(f"ragged or non-numeric {name}: expected (a, b, c) triplets") from None
            array.setflags(write=False)
            arrays.append(array)
            object.__setattr__(self, name, TripletView(array))
        if self.rating_labels is not None:
            object.__setattr__(
                self,
                "rating_labels",
                tuple(tuple(tuple(row) for row in dm) for dm in self.rating_labels),
            )
        if self.weight_labels is not None:
            object.__setattr__(self, "weight_labels", tuple(tuple(row) for row in self.weight_labels))
        self._validate(*arrays, (3,))

    @property
    def cells(self) -> FloatArray:
        return self.ratings.array

    @property
    def weight_cells(self) -> FloatArray:
        return self.weights.array


class FuzzyAggregateResult(NamedTuple):
    U: FloatArray
    X: FloatArray
    per_dm_energy: TripletView  # [k][i] -> TFN
    per_dm_exergy: TripletView
    mean_energy: TripletView  # [i] -> TFN, componentwise mean over decision makers
    mean_exergy: TripletView
    aggregation: CriterionAggregation


@dataclass(frozen=True, eq=False)
class FuzzyIndicatorReport:
    """Fuzzy pipeline output: defuzzified indicators plus every fuzzy stage.

    Cell fields are ``[k][i][j]`` views, ``per_dm_*`` are ``[k][i]`` views and
    ``mean_*`` are ``[i]`` views; every leaf is a :class:`TFN`.
    """

    alternatives: tuple[str, ...]
    U: FloatArray
    X: FloatArray
    S: FloatArray
    rank_by_U: tuple[int, ...]
    rank_by_X: tuple[int, ...]
    normalized: TripletView
    energy_cells: TripletView
    quality_cells: TripletView
    exergy_cells: TripletView
    entropy_cells: TripletView
    per_dm_energy: TripletView
    per_dm_exergy: TripletView
    mean_energy: TripletView
    mean_quality: TripletView
    mean_exergy: TripletView
    mean_entropy: TripletView
    aggregation: CriterionAggregation
    quality_reference: QualityReference
    negative_quality_cells: tuple[tuple[str, str, str], ...] = field(default=())


def normalize_fuzzy(panel: FuzzyPanel) -> TripletView:
    """Scale each decision maker's columns into [0, 1], preserving ordering.

    Benefit columns divide all three components by the largest right support;
    cost columns map ``(a, b, c)`` to ``(a_min/c, a_min/b, a_min/a)`` so that a
    smaller raw triplet lands nearer 1.  Both rules keep ``a <= b <= c``.
    """
    return TripletView(kernel.normalize(panel))


def fuzzy_energy(normalized, weights) -> TripletView:
    """Componentwise ``w * r`` for every cell."""
    return TripletView(kernel.energy(triplets(normalized), triplets(weights)))


def fuzzy_quality(normalized, config: EngineConfig) -> TripletView:
    """Componentwise ``1 - |r - mean| / mean`` against the configured reference.

    Components are at most 1 and may go negative; the result triplet can lose
    its ordering (see :attr:`~thermorank.tfn.TriangularFuzzyNumber.is_ordered`),
    which is deliberate — products downstream pair components positionally.
    """
    return TripletView(kernel.quality(triplets(normalized), config))


def fuzzy_exergy(quality, energy) -> TripletView:
    return TripletView(triplets(quality) * triplets(energy))


def fuzzy_entropy(energy, exergy) -> TripletView:
    return TripletView(triplets(energy) - triplets(exergy))


def _aggregate_result(result: kernel.AggregateResult) -> FuzzyAggregateResult:
    return FuzzyAggregateResult(
        U=result.U,
        X=result.X,
        per_dm_energy=TripletView(result.per_dm_U),
        per_dm_exergy=TripletView(result.per_dm_X),
        mean_energy=TripletView(result.per_dm_U.mean(axis=0)),
        mean_exergy=TripletView(result.per_dm_X.mean(axis=0)),
        aggregation=result.aggregation,
    )


def aggregate_fuzzy(energy, exergy, config: EngineConfig, weights=None) -> FuzzyAggregateResult:
    """Collapse fuzzy cells to scalar per-alternative ``U`` and ``X``.

    Per decision maker, criteria collapse componentwise (sum or mean); each
    aggregate triplet is then defuzzified and the scalars averaged over
    decision makers.  ``weights`` only matters when the aggregation mode is
    left automatic: weighted-sum is chosen when every componentwise weight sum
    is 1.  Without weights the automatic rule falls back to mean-of-weighted.
    """
    weights = None if weights is None else triplets(weights)
    return _aggregate_result(kernel.aggregate(triplets(energy), triplets(exergy), weights, config))


def run_fuzzy(panel: FuzzyPanel, config: EngineConfig | None = None) -> FuzzyIndicatorReport:
    """Run the fuzzy pipeline end to end; rank by descending defuzzified value.

    Quality is measured on the normalized triplets for both reference modes
    (the normalized matrix is where the fuzzy ratings become comparable).
    """
    config = config or EngineConfig()
    pipeline = kernel.run(panel, config)
    result = _aggregate_result(pipeline.result)
    mean_energy, mean_exergy = result.mean_energy.array, result.mean_exergy.array
    return FuzzyIndicatorReport(
        alternatives=panel.alternatives,
        U=result.U,
        X=result.X,
        S=result.U - result.X,
        rank_by_U=rank(result.U),
        rank_by_X=rank(result.X),
        normalized=TripletView(pipeline.normalized),
        energy_cells=TripletView(pipeline.energy_cells),
        quality_cells=TripletView(pipeline.quality_cells),
        exergy_cells=TripletView(pipeline.exergy_cells),
        entropy_cells=TripletView(pipeline.entropy_cells),
        per_dm_energy=result.per_dm_energy,
        per_dm_exergy=result.per_dm_exergy,
        mean_energy=result.mean_energy,
        # quality is a dimensionless score, so its audit aggregate is always a mean
        mean_quality=TripletView(pipeline.quality_cells.mean(axis=2).mean(axis=0)),
        mean_exergy=result.mean_exergy,
        mean_entropy=TripletView(mean_energy - mean_exergy),
        aggregation=result.aggregation,
        quality_reference=config.quality_reference,
        negative_quality_cells=pipeline.negative_quality_cells,
    )
