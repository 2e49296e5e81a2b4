"""Properties of the shared array kernel that drives both engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorank import (
    RATING_SCALE,
    WEIGHT_SCALE,
    CriterionSpec,
    EngineConfig,
    FuzzyPanel,
    QualityReference,
    TriangularFuzzyNumber as TFN,
    ZeroMeanPolicy,
    ZeroReferenceMean,
    run_crisp,
    run_fuzzy,
)

from support import random_crisp_panel

ACROSS_ALTERNATIVES = EngineConfig(quality_reference=QualityReference.ACROSS_ALTERNATIVES)


def lifted(panel) -> FuzzyPanel:
    """The crisp panel with every rating and weight as a degenerate triplet (r, r, r)."""
    return FuzzyPanel(
        panel.alternatives,
        panel.criteria,
        panel.decision_makers,
        np.repeat(panel.ratings[..., None], 3, axis=-1),
        np.repeat(panel.weights[..., None], 3, axis=-1),
    )


def test_engines_agree_on_degenerate_triplets():
    """A crisp panel and its (r, r, r) lift go through the same kernel."""
    rng = np.random.default_rng(7201)
    for case in range(300):
        panel = random_crisp_panel(rng, normalize_weights=bool(case % 2))
        crisp = run_crisp(panel, ACROSS_ALTERNATIVES)
        fuzzy = run_fuzzy(lifted(panel), ACROSS_ALTERNATIVES)
        assert fuzzy.aggregation is crisp.aggregation
        for name in ("normalized", "energy_cells", "quality_cells", "exergy_cells"):
            triplets = np.asarray(getattr(fuzzy, name))
            for component in range(3):
                np.testing.assert_allclose(
                    triplets[..., component], getattr(crisp, name), rtol=0, atol=1e-12
                )
        np.testing.assert_allclose(fuzzy.U, crisp.U, rtol=0, atol=1e-12)
        # the fuzzy score of a degenerate triplet is |x|, so X only matches
        # where no decision maker's aggregate exergy went negative
        settled = (crisp.per_dm_exergy >= 0).all(axis=0)
        np.testing.assert_allclose(fuzzy.X[settled], crisp.X[settled], rtol=0, atol=1e-12)


# ---------------------------------------------------------- zero reference means

LABELS = RATING_SCALE.labels()  # VP and P included: their left supports are 0


@st.composite
def label_panels(draw):
    K = draw(st.integers(1, 3))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=K * m * n, max_size=K * m * n)
    )
    weights = draw(
        st.lists(st.sampled_from(WEIGHT_SCALE.labels()), min_size=K * n, max_size=K * n)
    )
    ratings = np.array([tuple(RATING_SCALE.resolve(x)) for x in labels]).reshape(K, m, n, 3)
    return FuzzyPanel(
        alternatives=[f"A{i + 1}" for i in range(m)],
        criteria=[CriterionSpec(f"C{j + 1}") for j in range(n)],
        decision_makers=[f"DM{k + 1}" for k in range(K)],
        ratings=ratings,
        weights=np.array([tuple(WEIGHT_SCALE.resolve(x)) for x in weights]).reshape(K, n, 3),
    )


def zero_references(panel, reference: QualityReference) -> np.ndarray:
    """Cells whose reference mean is zero, per component, from the raw triplets.

    Benefit normalization divides by a positive peak, so a normalized mean is
    zero exactly when every raw component in its group is zero.
    """
    axis = 0 if reference is QualityReference.ACROSS_EXPERTS else 1
    raw = np.asarray(panel.ratings)
    return np.broadcast_to((raw == 0).all(axis=axis, keepdims=True), raw.shape)


def assert_finite(report) -> None:
    for values in (report.U, report.X, report.S):
        assert np.isfinite(values).all()


@settings(max_examples=150, deadline=None)
@given(label_panels(), st.sampled_from(list(QualityReference)))
def test_zero_mean_error_policy_raises_or_stays_finite(panel, reference):
    config = EngineConfig(quality_reference=reference)
    zero = zero_references(panel, reference)
    if zero.any():
        with pytest.raises(ZeroReferenceMean):
            run_fuzzy(panel, config)
    else:
        assert_finite(run_fuzzy(panel, config))


@settings(max_examples=150, deadline=None)
@given(label_panels(), st.sampled_from(list(QualityReference)))
def test_zero_mean_exact_policy_scores_full_quality(panel, reference):
    config = EngineConfig(
        quality_reference=reference, zero_mean_policy=ZeroMeanPolicy.QUALITY_ONE_IF_EXACT
    )
    report = run_fuzzy(panel, config)
    quality = np.asarray(report.quality_cells)
    zero = zero_references(panel, reference)
    assert (quality[zero] == 1.0).all()
    assert np.isfinite(quality).all()
    assert_finite(report)


# ---------------------------------------------------------- triplet views


def test_triplet_views_index_iterate_and_convert():
    panel = FuzzyPanel(
        alternatives=["A1", "A2"],
        criteria=[CriterionSpec("C1")],
        decision_makers=["DM1"],
        ratings=[[[TFN(1, 2, 3)], [(3, 5, 7)]]],
        weights=np.array([[[0.5, 0.7, 0.9]]]),
    )
    assert panel.ratings[0][1][0] == TFN(3, 5, 7)
    assert panel.ratings[0, 0, 0] == TFN(1, 2, 3)
    assert len(panel.ratings) == 1 and len(panel.ratings[0]) == 2
    assert [cell for row in panel.ratings[0] for cell in row] == [TFN(1, 2, 3), TFN(3, 5, 7)]
    assert min(panel.ratings[0][1][0]) == 3.0
    assert np.asarray(panel.ratings).shape == (1, 2, 1, 3)
    assert panel.weights == [[(0.5, 0.7, 0.9)]]
    with pytest.raises(ValueError):
        np.asarray(panel.ratings)[0, 0, 0, 0] = 9.0
