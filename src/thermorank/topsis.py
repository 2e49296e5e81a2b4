"""Classical TOPSIS over the aggregated decision matrix, as a baseline.

Ratings are first averaged over decision makers (fuzzy panels are collapsed
with the root-mean-square score before averaging), then normalized, weighted,
and ranked by closeness to the positive ideal solution.  Kept deliberately
standard so the thermodynamic indicators have something familiar to stand
next to in ``compare`` output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import CriterionKind
from .crisp import CrispPanel, FloatArray, rank
from .errors import AllZeroColumn, DegeneratePanel
from .fuzzy import FuzzyPanel
from .kernel import score

__all__ = [
    "Normalization",
    "TopsisResult",
    "aggregate_panel",
    "weighted_normalized",
    "rank_topsis",
    "run_topsis",
]


class Normalization(str, Enum):
    """Column normalization style for the aggregated matrix."""

    LINEAR = "linear"  # max-ratio for benefit, min-ratio for cost (direction-folding)
    VECTOR = "vector"  # divide by the column's Euclidean norm (direction-preserving)


@dataclass(frozen=True, eq=False)
class TopsisResult:
    """Closeness coefficients and ranks; ``degenerate`` reports the corner
    case where the positive and negative ideals coincide on every column, so
    closeness is undefined (NaN) and ranks fall back to input order."""

    alternatives: tuple[str, ...]
    closeness: FloatArray
    separation_positive: FloatArray
    separation_negative: FloatArray
    ranks: tuple[int, ...]
    degenerate: bool = False


def aggregate_panel(panel: CrispPanel | FuzzyPanel) -> tuple[FloatArray, FloatArray]:
    """Arithmetic-mean aggregation over decision makers: ``(m, n)`` matrix and
    ``(n,)`` weight vector.  Fuzzy triplets are defuzzified first."""
    return score(panel.cells).mean(axis=0), score(panel.weight_cells).mean(axis=0)


def weighted_normalized(
    matrix: FloatArray,
    weights: FloatArray,
    kinds,
    normalization: Normalization = Normalization.LINEAR,
) -> FloatArray:
    """Normalize each column, then multiply by its weight.

    With linear normalization cost columns are inverted (column minimum over
    value), so every column of the result is benefit-directed.  Vector
    normalization preserves direction, leaving cost handling to the ideals in
    :func:`rank_topsis`.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    normalization = Normalization(normalization)
    kinds = [CriterionKind(k) for k in kinds]

    out = np.empty_like(matrix)
    for j, kind in enumerate(kinds):
        column = matrix[:, j]
        if normalization is Normalization.LINEAR:
            if kind is CriterionKind.COST:
                out[:, j] = column.min() / column
            else:
                peak = column.max()
                if peak == 0:
                    raise AllZeroColumn(f"benefit column {j} is all zero")
                out[:, j] = column / peak
        else:
            norm = np.sqrt((column * column).sum())
            if norm == 0:
                raise AllZeroColumn(f"column {j} is all zero")
            out[:, j] = column / norm
    return out * weights


def effective_kinds(kinds, normalization: Normalization) -> list[CriterionKind]:
    """Criterion directions after normalization (linear folds cost into benefit)."""
    kinds = [CriterionKind(k) for k in kinds]
    if Normalization(normalization) is Normalization.LINEAR:
        return [CriterionKind.BENEFIT] * len(kinds)
    return kinds


def rank_topsis(weighted: FloatArray, kinds, alternatives=None) -> TopsisResult:
    """Rank rows of a weighted-normalized matrix by closeness to the ideals.

    The positive ideal takes the columnwise best value (max for benefit, min
    for cost), the negative ideal the worst; separations are Euclidean and
    closeness is ``S- / (S+ + S-)``, largest first.
    """
    weighted = np.asarray(weighted, dtype=np.float64)
    m = weighted.shape[0]
    if m < 2:
        raise ValueError("need at least two alternatives to rank")
    kinds = [CriterionKind(k) for k in kinds]
    if alternatives is None:
        alternatives = tuple(f"A{i + 1}" for i in range(m))

    cost = np.array([k is CriterionKind.COST for k in kinds])
    best = np.where(cost, weighted.min(axis=0), weighted.max(axis=0))
    worst = np.where(cost, weighted.max(axis=0), weighted.min(axis=0))

    s_plus = np.sqrt(((weighted - best) ** 2).sum(axis=1))
    s_minus = np.sqrt(((weighted - worst) ** 2).sum(axis=1))

    if np.array_equal(best, worst):
        # every column's ideal pair collapsed: closeness undefined everywhere
        warnings.warn(
            "positive and negative ideals coincide; ranks follow input order",
            DegeneratePanel,
            stacklevel=2,
        )
        return TopsisResult(
            alternatives=tuple(alternatives),
            closeness=np.full(m, np.nan),
            separation_positive=s_plus,
            separation_negative=s_minus,
            ranks=tuple(range(1, m + 1)),
            degenerate=True,
        )

    closeness = s_minus / (s_plus + s_minus)
    return TopsisResult(
        alternatives=tuple(alternatives),
        closeness=closeness,
        separation_positive=s_plus,
        separation_negative=s_minus,
        ranks=rank(closeness),
        degenerate=False,
    )


def run_topsis(
    panel: CrispPanel | FuzzyPanel,
    normalization: Normalization = Normalization.LINEAR,
) -> TopsisResult:
    """Aggregate, normalize, weight, and rank a panel in one call."""
    matrix, weights = aggregate_panel(panel)
    kinds = [c.kind for c in panel.criteria]
    weighted = weighted_normalized(matrix, weights, kinds, normalization)
    return rank_topsis(
        weighted,
        effective_kinds(kinds, normalization),
        alternatives=panel.alternatives,
    )
