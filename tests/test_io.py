"""Unit tests for document parsing, serialization, and the bundled datasets."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from thermorank import (
    CrispPanel,
    FuzzyPanel,
    PanelDocument,
    ParseError,
    TriangularFuzzyNumber as TFN,
    UnknownFixture,
    UnknownLabel,
    ValidationError,
    load_fixture,
    merge_documents,
    parse_document,
    parse_panel,
    serialize_document,
    to_panel,
)
from thermorank.fixtures import FIXTURE_NAMES

CRISP_DOC = {
    "meta": {"name": "demo", "mode": "crisp"},
    "criteria": [{"id": "C1", "kind": "benefit"}, {"id": "C2", "kind": "cost"}],
    "decision_makers": ["DM1", "DM2"],
    "alternatives": ["A1", "A2"],
    "weights": {"DM1": [0.6, 0.4], "DM2": [0.5, 0.5]},
    "ratings": {
        "DM1": [[4.0, 2.0], [8.0, 4.0]],
        "DM2": [[6.0, 4.0], [8.0, 2.0]],
    },
}

FUZZY_DOC = {
    "meta": {"name": "fdemo", "mode": "fuzzy"},
    "criteria": [{"id": "C1", "kind": "benefit"}],
    "decision_makers": ["DM1"],
    "alternatives": ["A1", "A2"],
    "weights": {"DM1": [[0.5, 0.7, 0.9]]},
    "ratings": {"DM1": [["G"], [[3, 5, 7]]]},
}


# ------------------------------------------------------------- JSON parsing


def test_parse_crisp_json():
    doc = parse_document(json.dumps(CRISP_DOC))
    panel = to_panel(doc)
    assert isinstance(panel, CrispPanel)
    assert panel.ratings[1, 0, 1] == 4.0
    assert panel.criteria[1].is_cost


def test_parse_fuzzy_json_mixes_labels_and_triplets():
    doc = parse_document(json.dumps(FUZZY_DOC))
    panel = to_panel(doc)
    assert isinstance(panel, FuzzyPanel)
    assert panel.ratings[0][0][0] == TFN(7, 9, 10)  # "G" resolved via Table-5 scale
    assert panel.ratings[0][1][0] == TFN(3, 5, 7)
    assert panel.rating_labels[0][0][0] == "G"


def test_parse_accepts_bytes():
    doc = parse_document(json.dumps(CRISP_DOC).encode("utf-8"))
    assert doc.name == "demo"


def test_parse_malformed_json_cites_position():
    bad = '{"meta": {"name": "x"},\n  "broken son\n'
    with pytest.raises(ParseError) as info:
        parse_document(bad)
    assert info.value.line == 2
    assert info.value.column is not None
    assert "line 2" in str(info.value)


def test_parse_rejects_nan_and_infinity():
    bad = json.dumps(CRISP_DOC).replace("4.0", "NaN", 1)
    with pytest.raises(ParseError, match="NaN"):
        parse_document(bad)


def test_parse_rejects_non_dict_criteria_entry():
    doc = dict(CRISP_DOC, criteria=["C1", "C2"])
    with pytest.raises(ValidationError):
        parse_document(json.dumps(doc))


def test_parse_rejects_bad_criterion_kind():
    doc = dict(CRISP_DOC, criteria=[{"id": "C1", "kind": "profit"}, {"id": "C2"}])
    with pytest.raises(ValidationError, match="kind"):
        parse_document(json.dumps(doc))


def test_parse_rejects_unknown_label():
    doc = json.loads(json.dumps(FUZZY_DOC))
    doc["ratings"]["DM1"][0][0] = "ZZ"
    with pytest.raises(UnknownLabel):
        to_panel(parse_document(json.dumps(doc)))


def test_parse_rejects_ragged_ratings():
    doc = json.loads(json.dumps(CRISP_DOC))
    doc["ratings"]["DM1"][0] = [4.0]
    with pytest.raises(ValidationError, match="expected 2"):
        parse_document(json.dumps(doc))


def test_parse_rejects_missing_weights():
    doc = json.loads(json.dumps(CRISP_DOC))
    del doc["weights"]["DM2"]
    with pytest.raises(ValidationError, match="DM2"):
        parse_document(json.dumps(doc))


def test_parse_rejects_unknown_weight_dm():
    doc = json.loads(json.dumps(CRISP_DOC))
    doc["weights"]["DM9"] = [0.5, 0.5]
    with pytest.raises(ValidationError, match="DM9"):
        parse_document(json.dumps(doc))


def test_empty_alternatives_rejected():
    doc = json.loads(json.dumps(CRISP_DOC))
    doc["alternatives"] = []
    doc["ratings"] = {"DM1": [], "DM2": []}
    with pytest.raises(ValidationError, match="m >= 2 required"):
        parse_document(json.dumps(doc))


def test_single_alternative_document_loads_but_panel_rejects():
    doc = load_fixture("example1_a1")
    assert doc.m == 1
    with pytest.raises(ValidationError, match="m >= 2"):
        to_panel(doc)


def test_literature_must_be_permutation():
    doc = json.loads(json.dumps(CRISP_DOC))
    doc["literature"] = {"some_method": [1, 1]}
    with pytest.raises(ValidationError, match="permutation"):
        parse_document(json.dumps(doc))


# ------------------------------------------------------------- round-trips


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip_json(name):
    doc = load_fixture(name)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    # canonical form is stable under re-serialization
    assert serialize_document(again) == text


PINNED_CHECKSUMS = {
    "example1_a1": "a871bd95dd6eb3d95a1de1647c3036550eafb6ba376c00d592e8610d1036957d",
    "example1_a2": "6781b9ffeba0b2abf5fedf98005b0ce062d62283a9c2429875c28e6a08e780d2",
    "example2_a1": "3afc3be795f9c8eec7cc44485ece7f071f90363155aadb5cf0af6d624109d9ee",
    "example2_a2": "bd88c7466aa4dfb3fe4ed2a6da8071da01f72c29b62cdbb00124b6405bce2004",
    "case1": "33ba5e70ceb99ef11c029d25750d5429d94811f67ecd5e4d84414317c04c83d3",
    "case2": "3b74956c19de525d50cafaa703e39cf67835e6adfeb86534493d8355ccd4a3f2",
    "case2_modified": "1c4cd466a5f9503ea4c260ec85be3887db857dfac68d6ea952520a6fbdab0a81",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_checksum_pinned(name):
    text = serialize_document(load_fixture(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_CHECKSUMS[name]


def test_panel_numerics_survive_round_trip():
    for name in ("case1", "case2", "case2_modified"):
        doc = load_fixture(name)
        panel = to_panel(doc)
        again = to_panel(parse_document(serialize_document(doc)))
        if isinstance(panel, CrispPanel):
            assert np.array_equal(panel.ratings, again.ratings)
            assert np.array_equal(panel.weights, again.weights)
        else:
            assert panel.ratings == again.ratings
            assert panel.weights == again.weights


def test_csv_round_trip():
    doc = parse_document(json.dumps(CRISP_DOC))
    panel_csv = serialize_document(doc, format="csv")
    criteria_csv = "criterion,kind\nC1,benefit\nC2,cost\n"
    again = parse_document(panel_csv, format="csv", criteria=criteria_csv, name="demo")
    assert to_panel(again).ratings == pytest.approx(to_panel(doc).ratings)
    assert to_panel(again).weights == pytest.approx(to_panel(doc).weights)


def test_parse_panel_shortcut():
    panel = parse_panel(json.dumps(CRISP_DOC))
    assert isinstance(panel, CrispPanel)


CRITERIA_SIDECAR = "criterion,kind\nC1,benefit\n"


def test_csv_requires_sidecar():
    text = "dm,alternative,criterion,value\nDM1,A1,C1,3\n"
    with pytest.raises(ValidationError, match="sidecar"):
        parse_document(text, format="csv")


def test_csv_duplicate_cell_rejected():
    text = (
        "dm,alternative,criterion,value\n"
        "DM1,*,C1,0.5\n"
        "DM1,A1,C1,3\n"
        "DM1,A1,C1,4\n"
        "DM1,A2,C1,5\n"
    )
    with pytest.raises(ValidationError, match="line 4"):
        parse_document(text, format="csv", criteria=CRITERIA_SIDECAR)


def test_csv_wrong_column_count_is_parse_error():
    text = "dm,alternative,criterion,value\nDM1,A1,C1\n"
    with pytest.raises(ParseError) as info:
        parse_document(text, format="csv", criteria=CRITERIA_SIDECAR)
    assert info.value.line == 2


# ------------------------------------------------------------- fixtures


def test_fixture_names_complete():
    assert set(FIXTURE_NAMES) == {
        "example1_a1",
        "example1_a2",
        "example2_a1",
        "example2_a2",
        "case1",
        "case2",
        "case2_modified",
    }


def test_unknown_fixture():
    with pytest.raises(UnknownFixture, match="nope"):
        load_fixture("nope")


def test_example1_a1_contents():
    doc = load_fixture("example1_a1")
    column = [doc.ratings["DM%d" % k][0][0] for k in range(1, 11)]
    assert column == [0.50, 0.45, 0.40, 0.60, 0.45, 0.50, 0.50, 0.50, 0.55, 0.55]
    assert doc.weights["DM1"] == (0.7,)
    assert doc.normalized


def test_case2_modified_applies_the_edit():
    base = load_fixture("case2")
    changed = load_fixture("case2_modified")
    assert base.ratings["DM1"][1][0] == "G"
    assert base.ratings["DM1"][1][1] == "VG"
    assert changed.ratings["DM1"][1][0] == "VP"
    assert changed.ratings["DM1"][1][1] == "VP"
    # everything else identical
    assert changed.ratings["DM2"] == base.ratings["DM2"]
    assert changed.weights == base.weights


def test_case_dimensions():
    case1 = to_panel(load_fixture("case1"))
    assert (case1.K, case1.m, case1.n) == (4, 17, 7)
    case2 = to_panel(load_fixture("case2"))
    assert (case2.K, case2.m, case2.n) == (3, 3, 5)


def test_case1_weight_rows_sum_to_one():
    doc = load_fixture("case1")
    for weights in doc.weights.values():
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------- documents


def test_replace_rating_returns_new_document():
    doc = load_fixture("case2")
    edited = doc.replace_rating("DM1", "A2", "C1", "VP")
    assert doc.ratings["DM1"][1][0] == "G"
    assert edited.ratings["DM1"][1][0] == "VP"


def test_replace_rating_unknown_ids():
    doc = load_fixture("case2")
    with pytest.raises(ValidationError, match="DM9"):
        doc.replace_rating("DM9", "A2", "C1", "VP")
    with pytest.raises(ValidationError, match="A9"):
        doc.replace_rating("DM1", "A9", "C1", "VP")
    with pytest.raises(ValidationError, match="C9"):
        doc.replace_rating("DM1", "A2", "C9", "VP")


def test_merge_documents_builds_multi_alternative_panel():
    merged = merge_documents(load_fixture("example1_a1"), load_fixture("example1_a2"))
    panel = to_panel(merged)
    assert panel.m == 2
    assert merged.literature == {}
    assert "example1_a1" in merged.name


def test_merge_documents_rejects_mixed_modes():
    with pytest.raises(ValueError):
        merge_documents(load_fixture("example1_a1"), load_fixture("example2_a1"))


def test_merge_documents_needs_two():
    with pytest.raises(ValueError):
        merge_documents(load_fixture("example1_a1"))


def test_document_rejects_crisp_triplet_payload():
    doc = json.loads(json.dumps(CRISP_DOC))
    doc["ratings"]["DM1"][0][0] = [1, 2, 3]
    with pytest.raises(ValidationError):
        parse_document(json.dumps(doc))


def test_serialize_rejects_unknown_format():
    doc = load_fixture("case2")
    with pytest.raises(ValidationError):
        serialize_document(doc, format="yaml")


# ------------------------------------------------------------- non-finite fuzzy values

NON_FINITE_CSV = (
    "dm,alternative,criterion,value\n"
    "D1,*,C1,M\n"
    "D2,*,C1,M\n"
    "D1,A1,C1,G\n"
    "D1,A2,C1,F\n"
    "D2,A1,C1,G\n"
    "D2,A2,C1,1;2;inf\n"
)


def test_parse_panel_rejects_non_finite_csv_triplet():
    with pytest.raises(ValidationError, match="non-finite"):
        parse_panel(NON_FINITE_CSV, format="csv", criteria=CRITERIA_SIDECAR)


def test_parse_panel_rejects_overflowing_json_triplet():
    # 1e999 is a number token, so json's parse_constant never sees it
    text = json.dumps(FUZZY_DOC).replace("[3, 5, 7]", "[3, 5, 1e999]")
    with pytest.raises(ValidationError, match="non-finite"):
        parse_panel(text)


def test_parse_panel_rejects_overflowing_json_weight():
    text = json.dumps(FUZZY_DOC).replace("[0.5, 0.7, 0.9]", "[0.5, 0.7, 1e999]")
    with pytest.raises(ValidationError, match="non-finite weight"):
        parse_panel(text)
