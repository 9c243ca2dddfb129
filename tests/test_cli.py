import argparse
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from uvangle.cli import build_parser, main

SCHEMA = json.loads(
    (resources.files("uvangle") / "schemas" / "result_v1.json").read_text()
)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "uvangle.cli", *argv], capture_output=True
    )


def run_json(*argv: str) -> dict:
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_angle_worked_example():
    doc = run_json(
        "angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"
    )
    assert doc["outputs"]["real"] is True
    assert doc["outputs"]["angle"] == pytest.approx(0.5 * math.log(0.5), rel=1e-12)
    assert doc["inputs"]["A"] == [1.0, 1.0]
    assert doc["command"] == "angle"


def test_angle_singular_ray_exits_2():
    proc = run_cli(
        "angle", "--O", "0,0", "--A", "1,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"
    )
    assert proc.returncode == 2
    assert "parallel to a reference direction" in proc.stderr.decode()


def test_usage_error_exits_1():
    proc = run_cli("angle", "--bogus")
    assert proc.returncode == 1
    proc = run_cli("nonsense")
    assert proc.returncode == 1


def test_power_worked_example():
    doc = run_json("power", "--kappa", "1", "--center", "0,0", "--P", "2,2")
    assert doc["outputs"]["power"] == 3.0
    assert doc["outputs"]["core"] == 3.0
    assert doc["outputs"]["tangents_exist"] is False


def test_chords_intersection():
    doc = run_json("chords", "--t", "1,4,2,3")
    assert doc["outputs"]["intersection_x"] == 5.0
    assert doc["outputs"]["intersection"] == [5.0, 0.0]


def test_chords_progression_worked_example():
    doc = run_json("chords", "--progression", "1,2,5", "--kappa", "1")
    assert doc["outputs"]["area"] == pytest.approx(0.375, rel=1e-9)
    assert doc["outputs"]["closed_form"] == 0.375


def test_radical_center_document():
    doc = run_json(
        "radical-center",
        "--h1", "0,0,1",
        "--h2", "-1,-0.5,3",
        "--h3", "1,2,2",
    )
    center = doc["outputs"]["center"]
    for axis in doc["outputs"]["axes"]:
        residual = axis["a"] * center[0] + axis["b"] * center[1] - axis["c"]
        assert abs(residual) <= 1e-8 * max(1.0, abs(center[0]), abs(center[1]))


def test_degenerate_document():
    doc = run_json("degenerate", "--m1", "2", "--m2", "1")
    assert doc["outputs"]["extrapolated_limit"] == pytest.approx(1.0, abs=1e-8)
    assert doc["outputs"]["slope_difference"] == 1.0
    assert doc["outputs"]["half_log_angle"] == pytest.approx(0.5 * math.log(2.0), rel=1e-12)


def test_invariance_document():
    doc = run_json("invariance", "--trials", "40", "--seed", "7")
    out = doc["outputs"]
    assert out["lambda_independence_max_rel_dev"] <= 1e-9
    assert out["group_invariance_max_abs_dev"] <= 1e-9
    assert out["shear_control_max_abs_dev"] > 1e-3


def test_isoptic_document_round_trips():
    doc = run_json(
        "isoptic",
        "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "1", "--samples", "12",
    )
    assert doc["inputs"]["A"] == [-1.0, 0.0]
    assert doc["inputs"]["theta"] == 1.0
    assert doc["outputs"]["beta"] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-12)
    assert len(doc["outputs"]["samples"]) == 12
    # re-serializing the parsed document reproduces the exact bytes
    proc = run_cli(
        "isoptic",
        "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "1", "--samples", "12",
    )
    assert json.dumps(doc, indent=2) + "\n" == proc.stdout.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2"),
        ("chords", "--progression", "1,2,5"),
        ("invariance", "--trials", "25", "--seed", "3"),
        (
            "isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
            "--theta", "0.7", "--samples", "9", "--output", "svg",
        ),
    ],
)
def test_byte_identical_reruns(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_svg_well_formed_and_classed():
    proc = run_cli(
        "isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "1", "--samples", "2", "--output", "svg",
    )
    assert proc.returncode == 0
    root = ET.fromstring(proc.stdout.decode())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    classes = {el.get("class") for el in polylines}
    assert len(polylines) == len(classes)  # one polyline per admissibility class
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 2  # endpoint markers


def test_render_svg_empty_and_minimal():
    from uvangle import Point, render_svg
    from uvangle.errors import EmptyLocus

    with pytest.raises(EmptyLocus):
        render_svg([])
    with pytest.raises(EmptyLocus):
        render_svg([(Point(0, 0), True)])
    data = render_svg([(Point(0, 0), True), (Point(1, 1), False)])
    root = ET.fromstring(data.decode())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert {el.get("class") for el in polylines} == {"admissible", "inadmissible"}
    assert render_svg([(Point(0, 0), True), (Point(1, 1), False)]) == data


def test_svg_too_few_points_is_domain_error():
    proc = run_cli(
        "isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "1", "--samples", "1", "--output", "svg",
    )
    assert proc.returncode == 2


def test_theta_zero_is_domain_error():
    proc = run_cli(
        "isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "0",
    )
    assert proc.returncode == 2


def test_out_file_and_in_process_entry(tmp_path):
    target = tmp_path / "doc.json"
    code = main(
        [
            "power", "--kappa", "1", "--center", "0,0", "--P", "2,2",
            "--out", str(target),
        ]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["outputs"]["power"] == 3.0
    jsonschema.validate(doc, SCHEMA)


def test_documents_keep_fixed_key_order():
    doc = run_json("power", "--kappa", "1", "--center", "0,0", "--P", "2,2")
    assert list(doc.keys()) == ["schema_version", "command", "inputs", "outputs", "diagnostics"]
    assert doc["schema_version"] == "1"


def assert_one_line_error(proc: subprocess.CompletedProcess, code: int) -> str:
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


ISOPTIC = ("isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1")


@pytest.mark.parametrize(
    "argv",
    [
        ("angle", "--O", "nan,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
        ("radical-center", "--h1", "0,0,inf", "--h2", "-1,-0.5,3", "--h3", "1,2,2"),
        ("degenerate", "--m1", "nan", "--m2", "1"),
        ("degenerate", "--m1", "2", "--m2=-inf"),
        ("degenerate", "--m1", "2", "--m2", "1", "--t-sequence", "0.01,nan"),
        (*ISOPTIC, "--theta", "inf"),
        ("power", "--kappa", "nan", "--center", "0,0", "--P", "2,2"),
        ("chords", "--progression", "1,2,5", "--kappa", "inf"),
    ],
)
def test_non_finite_input_is_a_parse_error(argv):
    line = assert_one_line_error(run_cli(*argv), 1)
    assert ": error: " in line


def test_seed_is_an_invariance_option_only():
    proc = run_cli("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1",
                   "--seed", "1")
    line = assert_one_line_error(proc, 1)
    assert line == "uvangle: error: unrecognized arguments: --seed 1"


def test_non_finite_result_is_a_domain_error():
    proc = run_cli("power", "--kappa", "1", "--center", "0,0", "--P", "1e308,1e308")
    assert "domain error" in assert_one_line_error(proc, 2)


def test_overflow_is_a_domain_error():
    proc = run_cli(*ISOPTIC, "--theta", "800")
    assert "domain error" in assert_one_line_error(proc, 2)


def test_theta_bound_edge():
    doc = run_json(*ISOPTIC, "--theta", "708", "--samples", "4")
    assert len(doc["outputs"]["samples"]) == 4
    proc = run_cli(*ISOPTIC, "--theta", "709")
    line = assert_one_line_error(proc, 2)
    assert line == "uvangle isoptic: domain error: |theta| must be at most 708.0"


def test_negative_float_spellings_are_values():
    doc = run_json("angle", "--O", "-.5,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1")
    assert doc["inputs"]["O"] == [-0.5, 0.0]
    for spelling in ("-inf", "-Infinity", "-nan"):
        line = assert_one_line_error(run_cli("degenerate", "--m1", "2", "--m2", spelling), 1)
        assert line.startswith("uvangle degenerate: error: argument --m2: ")
        assert "expected one argument" not in line


def test_unwritable_output_exits_2(tmp_path):
    target = tmp_path / "missing" / "locus.svg"
    proc = run_cli(*ISOPTIC, "--theta", "1", "--output", "svg", "--out", str(target))
    assert "cannot write output" in assert_one_line_error(proc, 2)


def test_parse_error_prints_one_line_without_usage():
    proc = run_cli("angle", "--O", "0,0", "--A", "1,2,3", "--B", "1,2", "--u", "1,0", "--v", "0,1")
    line = assert_one_line_error(proc, 1)
    assert line.startswith("uvangle angle: error: ")


def test_invariance_rejects_negative_trials():
    line = assert_one_line_error(run_cli("invariance", "--trials", "-2"), 1)
    assert line == "uvangle invariance: error: argument --trials: must be a non-negative integer, got -2"
    line = assert_one_line_error(run_cli("invariance", "--trials", "x"), 1)
    assert line == "uvangle invariance: error: argument --trials: invalid int value: 'x'"
    assert run_json("invariance", "--trials", "0")["inputs"]["trials"] == 0


def test_isoptic_of_a_long_segment():
    doc = run_json(*ISOPTIC[:2], "-1e6,0", "--B", "1e6,0", *ISOPTIC[5:], "--theta", "1")
    assert doc["outputs"]["center"] == pytest.approx([0.0, -1e6 / math.tanh(1.0)], rel=1e-12)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site (and any .pth file it runs) from importing these first.
    code = (
        "import uvangle.cli, sys; "
        "print(*[m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == []


def modules_loaded_by(*argv: str) -> set[str]:
    # -X importtime lists on stderr every module the real entry point imports.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "uvangle", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }


def test_angle_command_loads_only_its_modules():
    loaded = modules_loaded_by(
        "angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"
    )
    assert {"uvangle.cli", "uvangle.kernel", "uvangle.angle"} <= loaded
    unwanted = {
        "uvangle.isoptic", "uvangle.power", "uvangle.power_theorem", "uvangle.svg",
        "uvangle.degeneration", "uvangle._invariance", "random", "shutil",
    }
    assert sorted(loaded & unwanted) == []


@pytest.mark.parametrize("output", ["json", "svg"])
def test_isoptic_command_loads_only_its_modules(output):
    loaded = modules_loaded_by(*ISOPTIC, "--theta", "1", "--output", output)
    assert {"uvangle.cli", "uvangle.kernel", "uvangle.angle", "uvangle.isoptic"} <= loaded
    assert ("uvangle.svg" in loaded) == (output == "svg")
    unwanted = {
        "uvangle.power", "uvangle.power_theorem", "uvangle.degeneration",
        "uvangle._invariance", "random",
    }
    assert sorted(loaded & unwanted) == []


def test_angle_overflow_is_not_reported_as_coincidence():
    proc = run_cli(
        "angle", "--O", "1e308,0", "--A", "-1e308,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"
    )
    assert assert_one_line_error(proc, 2) == (
        "uvangle angle: domain error: coordinates must be finite, got -inf"
    )
    proc = run_cli(
        "angle", "--O", "1e308,0", "--A", "1e308,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"
    )
    assert assert_one_line_error(proc, 2) == (
        "uvangle angle: domain error: point A coincides with the vertex"
    )


NOT_FINITE_PIXELS = "viewport scale sends the drawing outside finite pixel coordinates"


@pytest.mark.parametrize(
    "argv",
    [
        (*ISOPTIC, "--viewport", "0,0,1e-320,1e-320"),  # the scale overflows
        (*ISOPTIC, "--viewport", "-1e308,-1e308,1e308,1e308"),  # the extent overflows
        # a finite scale that sends the far samples to infinite pixels
        (*ISOPTIC[:2], "-1e6,0", "--B", "1e6,0", *ISOPTIC[5:], "--viewport", "0,0,1e-300,1e-300"),
    ],
)
def test_svg_without_finite_pixels_is_a_domain_error(argv):
    proc = run_cli(*argv, "--theta", "1", "--samples", "4", "--output", "svg")
    assert assert_one_line_error(proc, 2) == f"uvangle isoptic: domain error: {NOT_FINITE_PIXELS}"


def test_svg_empty_viewport_keeps_its_message():
    proc = run_cli(*ISOPTIC, "--theta", "1", "--output", "svg", "--viewport", "1,0,0,1")
    assert assert_one_line_error(proc, 2) == (
        "uvangle isoptic: domain error: viewport must have positive extent"
    )


def test_render_svg_auto_fit_of_overflowing_extent_raises():
    from uvangle import Point, render_svg

    samples = [(Point(-1e308, -1e308), True), (Point(1e308, 1e308), False)]
    with pytest.raises(ValueError, match=NOT_FINITE_PIXELS):
        render_svg(samples)
    assert b"nan" not in render_svg(samples, viewport=(-2e307, -2e307, 2e307, 2e307))


def test_underflowing_canonical_map_reports_one_error_for_both_outputs():
    argv = (*ISOPTIC[:2], "-1e170,0", "--B", "1e170,0", *ISOPTIC[5:], "--theta", "1")
    lines = {assert_one_line_error(run_cli(*argv, "--output", output), 2)
             for output in ("json", "svg")}
    assert lines == {"uvangle isoptic: domain error: linear part is singular (det = 0.0)"}


def test_overflowing_progression_is_named():
    proc = run_cli("chords", "--progression", "1,1e300,2")
    assert assert_one_line_error(proc, 2) == (
        "uvangle chords: domain error: progression a=1.0, r=1e+300 overflows: r**3 is out of range"
    )


def test_overflowing_progression_node_is_named():
    # r**3 = 1e300 is finite, but the node a*r**3 is not.
    proc = run_cli("chords", "--progression", "1e10,1e100,2")
    assert assert_one_line_error(proc, 2) == (
        "uvangle chords: domain error: progression a=10000000000.0, r=1e+100 overflows: "
        "a*r**3 is out of range"
    )


def _parsers() -> dict:
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == [
        "angle", "isoptic", "power", "radical-center", "chords", "degenerate", "invariance",
    ]
    return {"": parser, **subparsers}


def _stock_help(parser) -> str:
    # The same parser formatted by argparse's own HelpFormatter.
    ours, parser.formatter_class = parser.formatter_class, argparse.HelpFormatter
    try:
        return parser.format_help()
    finally:
        parser.formatter_class = ours


@pytest.mark.parametrize("columns", [None, "60", "200"])
def test_help_matches_the_stock_formatter(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for name, parser in _parsers().items():
        assert parser.prog == f"uvangle {name}".strip()
        ours = parser.format_help()
        assert ours == _stock_help(parser), name
        assert parser.format_usage() == ours[: len(parser.format_usage())]


def test_help_in_a_pipe_is_the_stock_help(monkeypatch):
    # A pipe is no terminal, so without COLUMNS the width falls back to 80 columns.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    env["PYTHONPATH"] = str(src)
    monkeypatch.setenv("COLUMNS", "80")
    for name, parser in _parsers().items():
        argv = [name, "--help"] if name else ["--help"]
        proc = subprocess.run(
            [sys.executable, "-m", "uvangle", *argv], capture_output=True, env=env
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.decode() == _stock_help(parser), name
