"""End-to-end CLI tests (exit codes, output shapes, error channels)."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from thermorank.cli import main

NO_COLOR = {"THERMORANK_NO_COLOR": "1"}


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    kwargs.setdefault("env", NO_COLOR)
    return runner.invoke(main, list(args), **kwargs)


# ------------------------------------------------------------------ rank


def test_rank_case2_exergy(runner):
    result = invoke(runner, "rank", "--fixture", "case2")
    assert result.exit_code == 0
    assert "ranking (exergy): A2 > A3 > A1" in result.output


def test_rank_case2_modified_exergy(runner):
    result = invoke(runner, "rank", "--fixture", "case2_modified")
    assert result.exit_code == 0
    assert "ranking (exergy): A3 > A1 > A2" in result.output


def test_rank_case2_modified_energy(runner):
    result = invoke(runner, "rank", "--fixture", "case2_modified", "--method", "energy")
    assert result.exit_code == 0
    assert "ranking (energy): A3 > A2 > A1" in result.output


def test_rank_json_schema(runner):
    result = invoke(runner, "rank", "--fixture", "case2", "--output", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ranking"] == ["A2", "A3", "A1"]
    for row in payload["rows"]:
        assert set(row) == {"alternative", "U", "X", "S", "rank_U", "rank_X"}


def test_rank_table_and_json_agree(runner):
    table = invoke(runner, "rank", "--fixture", "case2").output
    payload = json.loads(invoke(runner, "rank", "--fixture", "case2", "--output", "json").output)
    for row in payload["rows"]:
        line = next(l for l in table.splitlines() if l.startswith(row["alternative"] + " "))
        cells = line.split()
        assert float(cells[1]) == row["U"]
        assert float(cells[2]) == row["X"]
        assert float(cells[3]) == row["S"]


def test_rank_topsis_method_adds_columns(runner):
    result = invoke(runner, "rank", "--fixture", "case1", "--method", "topsis", "--output", "json")
    payload = json.loads(result.output)
    assert "closeness" in payload["rows"][0]
    assert "rank_topsis" in payload["rows"][0]
    assert payload["method"] == "topsis"


def test_rank_csv_output(runner):
    result = invoke(runner, "rank", "--fixture", "case2", "--output", "csv")
    lines = result.output.strip().splitlines()
    assert lines[0] == "alternative,U,X,S,rank_U,rank_X"
    assert len(lines) == 4


def test_rank_precision_flag(runner):
    result = invoke(runner, "rank", "--fixture", "case2", "--precision", "5")
    assert "0.82528" in result.output


def test_rank_quality_ref_flag_changes_numbers(runner):
    default = invoke(runner, "rank", "--fixture", "case1").output
    alternate = invoke(runner, "rank", "--fixture", "case1", "--quality-ref", "alternatives").output
    assert default != alternate


def test_rank_needs_exactly_one_input(runner):
    result = invoke(runner, "rank")
    assert result.exit_code == 2
    result = invoke(runner, "rank", "--fixture", "case1", "--input", "other.json")
    assert result.exit_code == 2


def test_rank_unknown_fixture_exit_2(runner):
    result = invoke(runner, "rank", "--fixture", "nope")
    assert result.exit_code == 2
    assert "unknown fixture" in result.stderr


def test_rank_single_alternative_fixture_exit_2(runner):
    result = invoke(runner, "rank", "--fixture", "example1_a1")
    assert result.exit_code == 2
    assert "m >= 2" in result.stderr


# ------------------------------------------------------------------ files


def test_rank_from_json_file(runner, tmp_path):
    from thermorank import load_fixture, serialize_document

    path = tmp_path / "panel.json"
    path.write_text(serialize_document(load_fixture("case2")))
    result = invoke(runner, "rank", "--input", str(path))
    assert result.exit_code == 0
    assert "A2 > A3 > A1" in result.output


def test_rank_from_csv_with_sidecar(runner, tmp_path):
    from thermorank import load_fixture, serialize_document

    doc = load_fixture("case1")
    panel_path = tmp_path / "panel.csv"
    panel_path.write_text(serialize_document(doc, format="csv"))
    criteria_path = tmp_path / "criteria.csv"
    criteria_path.write_text(
        "criterion,kind\n" + "\n".join(f"{c.id},{c.kind.value}" for c in doc.criteria) + "\n"
    )
    result = invoke(
        runner, "rank", "--input", str(panel_path), "--criteria", str(criteria_path)
    )
    assert result.exit_code == 0
    assert "A16" in result.output


def test_malformed_json_exit_3_with_position(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"meta": {"name": "x"},\n  "broken son\n')
    result = invoke(runner, "rank", "--input", str(path))
    assert result.exit_code == 3
    assert "parse error" in result.stderr
    assert "line 2" in result.stderr
    assert "column" in result.stderr


def test_input_format_override(runner, tmp_path):
    from thermorank import load_fixture, serialize_document

    path = tmp_path / "panel.data"  # no useful suffix
    path.write_text(serialize_document(load_fixture("case2")))
    result = invoke(runner, "rank", "--input", str(path), "--input-format", "json")
    assert result.exit_code == 0


# ------------------------------------------------------------------ compare


def test_compare_case1_marks_disagreements(runner):
    result = invoke(runner, "compare", "--fixture", "case1")
    assert result.exit_code == 0
    line = next(l for l in result.output.splitlines() if l.startswith("A2 "))
    assert "11*" in line  # exergy rank differs from the stored reference (14)
    assert "differs from extended_topsis" in result.output


def test_compare_case2_all_agree(runner):
    result = invoke(runner, "compare", "--fixture", "case2")
    assert result.exit_code == 0
    body = [l for l in result.output.splitlines() if l.startswith("A")]
    assert not any("*" in line for line in body)


def test_compare_json_lists_disagreements(runner):
    result = invoke(runner, "compare", "--fixture", "case1", "--output", "json")
    payload = json.loads(result.output)
    assert payload["reference"] == "extended_topsis"
    a2 = next(r for r in payload["rows"] if r["alternative"] == "A2")
    assert "exergy" in a2["disagrees"]
    a3 = next(r for r in payload["rows"] if r["alternative"] == "A3")
    assert a3["disagrees"] == []


def test_compare_single_alternative_fixture_rejected(runner):
    result = invoke(
        runner, "compare", "--fixture", "example1_a1",
        "--method", "energy", "--method", "exergy",
    )
    assert result.exit_code == 2
    assert "m >= 2" in result.stderr


def test_compare_without_reference_needs_two_methods(runner, tmp_path):
    from thermorank import load_fixture, merge_documents, serialize_document

    doc = merge_documents(load_fixture("example2_a1"), load_fixture("example2_a2"))
    path = tmp_path / "panel.json"
    path.write_text(serialize_document(doc))
    result = invoke(runner, "compare", "--input", str(path), "--method", "exergy")
    assert result.exit_code == 2
    assert "two --method" in result.stderr
    result = invoke(
        runner, "compare", "--input", str(path), "--method", "exergy", "--method", "topsis"
    )
    assert result.exit_code == 0


# ------------------------------------------------------------------ whatif


def test_whatif_reproduces_perturbation(runner):
    result = invoke(
        runner, "whatif", "--fixture", "case2", "DM1:A2:C1=VP", "DM1:A2:C2=VP"
    )
    assert result.exit_code == 0
    assert "rank change (exergy): A2 1 -> 3" in result.output
    before = next(
        l for l in result.output.split("after:")[0].splitlines() if l.startswith("A2 ")
    )
    after = next(
        l for l in result.output.split("after:")[1].splitlines() if l.startswith("A2 ")
    )
    assert "0.023" in before  # entropy of A2 before the edit
    assert "0.128" in after  # and after it
    assert result.output.count("rank change") == 3


def test_whatif_no_edits_is_identity(runner):
    result = invoke(runner, "whatif", "--fixture", "case2")
    assert result.exit_code == 0
    assert "no rank changes" in result.output


def test_whatif_unknown_dm_exit_2(runner):
    result = invoke(runner, "whatif", "--fixture", "case2", "DM9:A2:C1=VP")
    assert result.exit_code == 2
    assert "bad edit" in result.stderr
    assert "DM9:A2:C1=VP" in result.stderr


def test_whatif_bad_syntax(runner):
    result = invoke(runner, "whatif", "--fixture", "case2", "A2=VP")
    assert result.exit_code == 2
    assert "dm:alternative:criterion=value" in result.stderr


def test_whatif_bad_value_for_mode(runner):
    result = invoke(runner, "whatif", "--fixture", "case1", "DM1:A1:C1=VP")
    assert result.exit_code == 2
    assert "expected a number" in result.stderr
    result = invoke(runner, "whatif", "--fixture", "case2", "DM1:A2:C1=QQ")
    assert result.exit_code == 2
    assert "unknown rating label" in result.stderr


def test_whatif_fuzzy_triplet_value(runner):
    result = invoke(runner, "whatif", "--fixture", "case2", "DM1:A2:C1=0;0;1")
    assert result.exit_code == 0  # explicit triplet equal to VP
    assert "rank change" in result.output


def test_whatif_json_payload(runner):
    result = invoke(
        runner, "whatif", "--fixture", "case2", "DM1:A2:C1=VP", "DM1:A2:C2=VP",
        "--output", "json",
    )
    payload = json.loads(result.output)
    assert payload["edits"] == ["DM1:A2:C1=VP", "DM1:A2:C2=VP"]
    moved = {m["alternative"]: (m["rank_X_before"], m["rank_X_after"]) for m in payload["rank_changes"]}
    assert moved["A2"] == (1, 3)


def test_whatif_crisp_edit(runner):
    result = invoke(runner, "whatif", "--fixture", "case1", "DM1:A1:C1=95")
    assert result.exit_code == 0


# ------------------------------------------------------------------ misc


def test_fixtures_lists_all(runner):
    result = invoke(runner, "fixtures")
    assert result.exit_code == 0
    for name in (
        "example1_a1", "example1_a2", "example2_a1", "example2_a2",
        "case1", "case2", "case2_modified",
    ):
        assert name in result.output


def test_fixtures_json(runner):
    result = invoke(runner, "fixtures", "--output", "json")
    payload = json.loads(result.output)
    assert len(payload["fixtures"]) == 7
    case1 = next(f for f in payload["fixtures"] if f["name"] == "case1")
    assert case1["literature"] == "extended_topsis"


def test_indicators_table(runner):
    result = invoke(runner, "indicators", "--fixture", "case2")
    assert result.exit_code == 0
    # summary block plus one row per (dm, alternative, criterion)
    body = [l for l in result.output.splitlines() if l.startswith("DM")]
    assert len(body) == 3 * 3 * 5


def test_indicators_csv(runner):
    result = invoke(runner, "indicators", "--fixture", "case2", "--output", "csv")
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("dm,alternative,criterion,")
    assert len(lines) == 1 + 3 * 3 * 5


def test_indicators_json_cells(runner):
    result = invoke(runner, "indicators", "--fixture", "case1", "--output", "json")
    payload = json.loads(result.output)
    assert len(payload["cells"]) == 4 * 17 * 7
    assert payload["aggregation"] == "weighted_sum"


def test_color_codes_absent_when_disabled(runner):
    result = invoke(runner, "compare", "--fixture", "case1")
    assert "\x1b[" not in result.output
    assert "*" in result.output  # the marker survives without color


# ------------------------------------------------------------------ non-finite input


def test_rank_rejects_non_finite_csv_triplet(runner, tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "dm,alternative,criterion,value\n"
        "D1,*,C1,M\nD2,*,C1,M\n"
        "D1,A1,C1,G\nD1,A2,C1,F\nD2,A1,C1,G\nD2,A2,C1,1;2;inf\n"
    )
    criteria = tmp_path / "criteria.csv"
    criteria.write_text("criterion,kind\nC1,benefit\n")
    result = invoke(runner, "rank", "--input", str(panel), "--criteria", str(criteria))
    assert result.exit_code == 2
    assert "non-finite" in result.stderr
    assert "n/a" not in result.output


def test_rank_rejects_overflowing_json_triplet(runner, tmp_path):
    panel = tmp_path / "panel.json"
    panel.write_text(
        json.dumps(
            {
                "meta": {"name": "overflow", "mode": "fuzzy"},
                "criteria": [{"id": "C1", "kind": "benefit"}],
                "decision_makers": ["D1", "D2"],
                "alternatives": ["A1", "A2"],
                "weights": {"D1": ["M"], "D2": ["M"]},
                "ratings": {"D1": [["G"], ["F"]], "D2": [["G"], [[1, 2, 3]]]},
            }
        ).replace("[1, 2, 3]", "[1, 2, 1e999]")
    )
    result = invoke(runner, "rank", "--input", str(panel))
    assert result.exit_code == 2
    assert "non-finite" in result.stderr


def test_whatif_rejects_non_finite_triplet_edit(runner):
    result = invoke(runner, "whatif", "--fixture", "case2", "DM1:A2:C1=1;2;inf")
    assert result.exit_code == 2
    assert "non-finite" in result.stderr
