import json
import xml.etree.ElementTree as ET
from xml.dom import minidom
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab.bounds import BoundsReport, Verdict
from gmreslab.reporting import (
    CSV_COLUMNS,
    dumps_document,
    format_real,
    write_curves_csv,
    write_plot_svg,
    write_report_json,
)


def make_report(k=1, elman=0.9):
    verdicts = {
        "gmres_le_worst_case": Verdict(True, 0.01),
        "worst_case_le_ideal": Verdict(True, 0.002),
        "ideal_le_starke": Verdict(True, 0.1),
    }
    if elman is not None:
        verdicts["ideal_le_elman"] = Verdict(True, 0.2)
        verdicts["starke_le_elman"] = Verdict(True, 0.1)
    return BoundsReport(
        k=k,
        gmres_ratios=[0.25, 0.5, 0.125],
        worst_case=0.51,
        ideal=0.512,
        ideal_lower=0.5119,
        ideal_certified=True,
        starke_rhs=0.7,
        elman_rhs=elman,
        nu_a=0.5,
        nu_ainv=0.25,
        lambda_min_m=0.5,
        lambda_max_aha=4.0,
        verdicts=verdicts,
    )


@seed(23)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_real_round_trips_every_double(x):
    assert float(format_real(x)) == x


def test_format_real_accepts_ints():
    assert float(format_real(3)) == 3.0


def test_dumps_document_is_valid_deterministic_json():
    doc = {
        "b": 1.5,
        "a": [1, 2.0, None, True, "x"],
        "nested": {"empty_list": [], "empty_map": {}},
    }
    text = dumps_document(doc)
    assert json.loads(text) == doc
    assert text == dumps_document(doc)
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_document_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_document({"x": object()})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_document_rejects_non_finite_reals(value):
    with pytest.raises(ValueError):
        dumps_document({"x": [value]})


def test_report_json_zero_margin_reads_back_as_float(tmp_path):
    path = tmp_path / "report.json"
    report = make_report()
    report.verdicts["ideal_le_starke"] = Verdict(True, 0.0)
    write_report_json(str(path), {"family": "identity", "n": 2}, [report])
    margin = json.loads(path.read_text())["reports"][0]["verdicts"]["ideal_le_starke"]
    assert type(margin["margin"]) is float and margin["margin"] == 0.0


def test_curves_csv_layout(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv(str(path), [make_report(k=1), make_report(k=2, elman=None)])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "k,gmres_min,gmres_median,gmres_max,worst_case,ideal,starke_rhs,elman_rhs"
    )
    row1 = lines[1].split(",")
    assert row1[0] == "1"
    assert float(row1[1]) == 0.125
    assert float(row1[2]) == 0.25
    assert float(row1[3]) == 0.5
    assert float(row1[7]) == 0.9
    row2 = lines[2].split(",")
    assert row2[7] == ""  # bound absent, cell stays empty
    assert len(row2) == len(CSV_COLUMNS)


def test_report_json_matches_bundled_schema(tmp_path):
    path = tmp_path / "report.json"
    write_report_json(
        str(path),
        {"family": "diagonal", "entries": [1.0, 2.0]},
        [make_report(k=1), make_report(k=2, elman=None)],
    )
    doc = json.loads(path.read_text())
    schema = json.loads(
        resources.files("gmreslab.schemas").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["matrix"]["family"] == "diagonal"
    assert doc["reports"][1]["elman_rhs"] is None
    assert "ideal_le_elman" not in doc["reports"][1]["verdicts"]


@pytest.mark.parametrize("name", ["ideal_le_stark", "Ideal_le_elman", "gmres_le_ideal"])
def test_schema_refuses_an_unknown_verdict_name(name):
    doc = {"matrix": {"family": "diagonal"}, "reports": [make_report().to_dict()]}
    schema = json.loads(
        resources.files("gmreslab.schemas").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    doc["reports"][0]["verdicts"][name] = {"passed": True, "margin": 0.1}
    with pytest.raises(jsonschema.ValidationError, match=name):
        jsonschema.validate(doc, schema)


def test_gmres_statistics_are_fields_set_on_construction():
    report = make_report()
    stats = (report.gmres_min, report.gmres_median, report.gmres_max)
    assert stats == (0.125, 0.25, 0.5)
    gmres = report.to_dict()["gmres"]
    assert list(gmres.items()) == [
        ("ratios", [0.25, 0.5, 0.125]), ("min", 0.125), ("median", 0.25), ("max", 0.5)
    ]


def test_report_json_floats_survive_round_trip(tmp_path):
    path = tmp_path / "report.json"
    report = make_report()
    report.ideal = 1.0 / 3.0
    write_report_json(str(path), {"family": "identity", "n": 2}, [report])
    doc = json.loads(path.read_text())
    assert doc["reports"][0]["ideal"] == 1.0 / 3.0


def test_plot_svg_structure(tmp_path):
    path = tmp_path / "plot.svg"
    write_plot_svg(
        str(path), [make_report(k=1), make_report(k=2)], title="diagonal"
    )
    root = ET.parse(str(path)).getroot()
    assert root.tag.endswith("svg")
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//svg:polyline", ns)
    assert len(polylines) >= 7  # one curve per series
    texts = [t.text for t in root.findall(".//svg:text", ns)]
    assert any(t == "ideal" for t in texts)
    assert any(t == "diagonal" for t in texts)


def test_plot_svg_handles_empty_report_list(tmp_path):
    path = tmp_path / "plot.svg"
    write_plot_svg(str(path), [])
    root = ET.parse(str(path)).getroot()
    assert root.tag.endswith("svg")


def test_plot_svg_escapes_its_title(tmp_path):
    """A title with markup characters still gives well-formed XML, and the
    parsed text is the title as given."""
    path = tmp_path / "plot.svg"
    title = "a<b & c"
    write_plot_svg(str(path), [make_report(k=1)], title=title)
    root = minidom.parse(str(path)).documentElement
    texts = [
        node.firstChild.data
        for node in root.getElementsByTagName("text")
        if node.firstChild is not None
    ]
    assert title in texts
