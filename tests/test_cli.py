import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CliRun, run_cli, run_json, run_process, valid_document
from uvangle.cli import (
    COMMANDS,
    MAX_SAMPLES,
    MAX_TRIALS,
    _fast_parse,
    _float_list,
    _int,
    _is_value,
    _json,
    _pair,
    _quad,
    _samples,
    _scalar,
    _trials,
    _triple,
    build_parser,
    main,
    run,
)


def test_angle_worked_example():
    doc = run_json(
        "angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"
    )
    assert doc["outputs"]["real"] is True
    assert doc["outputs"]["angle"] == pytest.approx(0.5 * math.log(0.5), rel=1e-12)
    assert doc["inputs"]["A"] == [1.0, 1.0]
    assert doc["command"] == "angle"


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


# u near the top of the float range: products of the frame's columns overflow, and the
# curves still share their asymptote directions and meet in a center.
HUGE_U = ("--h1", "1,1,1", "--h2", "7,-1,-2", "--h3", "-2,0.5,3", "--u", "1e300,7e299",
          "--v", "0.3,1")


def test_radical_center_document():
    for argv in (("--h1", "0,0,1", "--h2", "-1,-0.5,3", "--h3", "1,2,2"), HUGE_U):
        doc = run_json("radical-center", *argv)
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
    assert list(doc["inputs"]) == ["seed", "trials"]  # not the parser's order
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
        # u and v of very different lengths: the frame's rows are far apart in scale.
        ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--u", "1e-6,0",
         "--v", "1,1e-7"),
    ],
)
def test_byte_identical_reruns(argv):
    # Two processes with different hash seeds, so the check holds even where the
    # environment pins one; both print what the in-process run prints.
    runs = [run_process("-m", "uvangle", *argv, env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout == run_cli(*argv).stdout


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


@pytest.mark.xfail(
    strict=True,
    reason="render_svg draws one polyline per run of equal flags over both branches' samples in "
    "a row, so one segment joins the branches; mending it changes both SVG goldens",
)
def test_no_polyline_holds_samples_of_both_branches():
    # sample_locus returns the parametrized branch's ceil(n/2) samples, then the
    # reflected branch's: every polyline must end at or before that boundary, or
    # start after it.
    n = 256
    run = run_cli(*ISOPTIC, "--theta", "1", "--samples", str(n), "--output", "svg")
    assert run.returncode == 0
    root = ET.fromstring(run.stdout.decode())
    counts = [len(el.get("points").split()) for el in root.iter() if el.tag.endswith("polyline")]
    assert sum(counts) == n
    assert (n + 1) // 2 in itertools.accumulate(counts)


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


def test_out_file_and_in_process_entry(tmp_path):
    target = tmp_path / "doc.json"
    run = run_cli("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out", str(target))
    assert run == (0, b"", "")  # the document goes to the file only
    assert valid_document(target.read_bytes())["outputs"]["power"] == 3.0


def test_documents_keep_fixed_key_order():
    doc = run_json("power", "--kappa", "1", "--center", "0,0", "--P", "2,2")
    assert list(doc.keys()) == ["schema_version", "command", "inputs", "outputs", "diagnostics"]
    assert doc["schema_version"] == "1"


def assert_one_line_error(proc: CliRun, code: int) -> str:
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == b""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    return lines[0]


ISOPTIC = ("isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1")


def test_theta_bound_edge():
    doc = run_json(*ISOPTIC, "--theta", "708", "--samples", "4")
    assert len(doc["outputs"]["samples"]) == 4


def test_negative_float_spellings_are_values():
    doc = run_json("angle", "--O", "-.5,0", "--A", "-1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1")
    assert (doc["inputs"]["O"], doc["inputs"]["A"]) == ([-0.5, 0.0], [-1.0, 1.0])


def test_unwritable_output_exits_2(tmp_path):
    target = tmp_path / "missing" / "locus.svg"
    proc = run_cli(*ISOPTIC, "--theta", "1", "--output", "svg", "--out", str(target))
    assert "cannot write output" in assert_one_line_error(proc, 2)


def test_closed_stdout_exits_2(monkeypatch):
    # Python sets sys.stdout to None when a process starts with fd 1 closed.
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"]) == 2
    assert err.getvalue() == "uvangle angle: cannot write output: stdout is closed\n"


class _FullStream(io.StringIO):
    """A text stream on a full device: every write raises."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stderr", [None, _FullStream()], ids=["closed", "full"])
@pytest.mark.parametrize("argv, code", [
    (("angle", "--O", "0,0", "--A", "1,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"), 2),
    (("angle", "--O", "x"), 1),
], ids=["domain", "usage"])
def test_an_unwritable_stderr_keeps_the_exit_code(monkeypatch, tmp_path, stderr, argv, code):
    # None is what Python sets when the process starts with fd 2 closed; print
    # to it would write to stdout.
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(list(argv)) == code
    unwritable = ["power", "--kappa", "1", "--center", "0,0", "--P", "2,2",
                  "--out", str(tmp_path / "missing" / "power.json")]
    assert main(unwritable) == 2
    assert out.getvalue() == ""


def test_run_ends_with_the_code_when_stderr_cannot_be_flushed(monkeypatch):
    class Unflushable(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    def exit_(code):
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["uvangle", "angle", "--O", "x"])
    monkeypatch.setattr(sys, "stderr", Unflushable())
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 1


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
        "print(*[m for m in ('dataclasses', 'inspect', 'typing', 'argparse') if m in sys.modules])"
    )
    proc = run_process("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == []


# The console script's two lines, run after importing the standard-library
# modules named in argv[1] (comma-separated).  stderr ends with the modules the
# command added to those.  Run with -S, so that no .pth file imports any first.
# It calls main, not the script's target cli.run: run ends the process by
# os._exit, and the finally that reports the modules would never run.
CONSOLE_SCRIPT = """
import sys
for name in sys.argv.pop(1).split(","):
    __import__(name)
before = set(sys.modules)
try:
    from uvangle.cli import main
    sys.exit(main())
finally:
    sys.stderr.write("\\n".join(["modules:", *sorted(set(sys.modules) - before)]))
"""

# Every command imports math, types and these uvangle modules.
CLI_MODULES = {"uvangle", "uvangle.cli", "uvangle.errors", "uvangle.kernel"}
USAGE_ERROR = ("angle", "--O", "x")
# Each command line, with the standard-library modules its command imports
# beyond math and types, and the uvangle submodules beyond CLI_MODULES.
COMMAND_IMPORTS = {
    ("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"): (
        (), ("angle",)
    ),
    (*ISOPTIC, "--theta", "1"): (("gc",), ("isoptic",)),
    (*ISOPTIC, "--theta", "1", "--output", "svg"): (("gc", "itertools"), ("isoptic", "svg")),
    ("power", "--kappa", "2", "--center", "0,0", "--P", "2,2"): ((), ("power",)),
    ("radical-center", "--h1", "0,0,1", "--h2", "1,0.5,3", "--h3", "-1,-2,2"): ((), ("power",)),
    ("chords", "--t", "1,4,2,3"): ((), ("power",)),
    ("chords", "--progression", "1,2,3"): ((), ("power",)),
    ("degenerate", "--m1", "2", "--m2", "1"): ((), ("degeneration",)),
    ("invariance", "--trials", "2", "--seed", "0"): (
        ("random", "enum"), ("_invariance", "angle", "area_ratio")
    ),
}
SUCCESSFUL_COMMANDS = tuple(COMMAND_IMPORTS)
COMMAND_LINES = [*((argv, 0) for argv in SUCCESSFUL_COMMANDS), (USAGE_ERROR, 1)]


@functools.cache  # a command line that several tests check starts one process
def _exit_code_and_modules(*argv: str) -> tuple[int, str]:
    stdlib = ("math", "types", *COMMAND_IMPORTS.get(argv, ((), ()))[0])
    proc = run_process("-S", "-c", CONSOLE_SCRIPT, ",".join(stdlib), *argv)
    return proc.returncode, proc.stderr.decode()


def modules_added_by(*argv: str, code: int = 0) -> set[str]:
    returncode, stderr = _exit_code_and_modules(*argv)
    assert returncode == code, stderr
    return set(stderr.split("modules:\n", 1)[1].splitlines())


@pytest.mark.parametrize("argv, code", COMMAND_LINES)
def test_each_command_imports_only_its_modules(argv, code):
    # Any other import on a command's path, from the standard library or from
    # uvangle, adds a module here.
    submodules = COMMAND_IMPORTS.get(argv, ((), ()))[1]
    expected = CLI_MODULES | {f"uvangle.{name}" for name in submodules}
    assert sorted(modules_added_by(*argv, code=code)) == sorted(expected)


# The json package and argparse each have a replacement in cli.py, whichever
# modules the table above allows.
@pytest.mark.parametrize("argv, code", COMMAND_LINES)
def test_no_command_loads_the_json_package(argv, code):
    loaded = modules_added_by(*argv, code=code)
    assert sorted(loaded & {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}) == []


@pytest.mark.parametrize("argv", SUCCESSFUL_COMMANDS)
def test_a_successful_command_loads_no_argparse(argv):
    assert sorted(modules_added_by(*argv) & {"argparse", "gettext", "locale"}) == []


def test_help_loads_argparse():
    assert "argparse" in modules_added_by("--help")


def test_a_usage_error_loads_no_argparse():
    loaded = modules_added_by(*USAGE_ERROR, code=1)
    assert sorted(loaded & {"argparse", "gettext", "locale"}) == []


@pytest.mark.parametrize(
    "argv, line",
    [
        (("angle", "--O", "0,0", "-h"), None),
        (("angle", "--O", "x", "-h"),
         "uvangle angle: error: argument --O: coordinate pair needs 2 comma-separated numbers"),
        (("angle", "--O", "0,0", "--bogus", "--help"),
         "uvangle angle: error: unrecognized arguments: --bogus"),
        (("-h", "nonsense"), None),
    ],
)
def test_help_is_printed_only_before_the_first_fault(argv, line):
    run = run_cli(*argv)
    if line is None:
        assert run.returncode == 0 and run.stdout.startswith(b"usage: uvangle") and not run.stderr
    else:
        assert assert_one_line_error(run, 1) == line


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


def test_render_svg_auto_fit_of_overflowing_extent_raises():
    from uvangle import Point, render_svg

    samples = [(Point(-1e308, -1e308), True), (Point(1e308, 1e308), False)]
    with pytest.raises(ValueError, match=NOT_FINITE_PIXELS):
        render_svg(samples)
    assert b"nan" not in render_svg(samples, viewport=(-2e307, -2e307, 2e307, 2e307))


def _parsers() -> dict:
    """The parser that prints ``uvangle [<command>] --help``, for each command of the table."""
    parsers = {}
    for name in ("", *COMMANDS):
        with mock.patch.object(argparse.ArgumentParser, "print_help", autospec=True) as printed:
            with pytest.raises(SystemExit):
                build_parser().parse_args([name, "--help"] if name else ["--help"])
        parsers[name] = printed.call_args.args[0]
    assert list(parsers) == [
        "", "angle", "isoptic", "power", "radical-center", "chords", "degenerate", "invariance",
    ]
    return parsers


def test_help_matches_its_golden(monkeypatch):
    # The goldens hold `uvangle [<command>] --help` at 80 columns, as argparse formats it.
    monkeypatch.setenv("COLUMNS", "80")
    golden = Path(__file__).parent / "golden" / "help"
    for name, parser in _parsers().items():
        assert parser.format_help() == (golden / f"{name or 'uvangle'}.txt").read_text(), name


def test_limit_of_a_slope_below_roundoff_is_kept():
    # 1 + |m1|*t rounds to 1 for every t, but m1's share of the limit is below roundoff.
    doc = run_json("degenerate", "--m1", "3e-265", "--m2", "-1.25")
    assert doc["outputs"]["extrapolated_limit"] == pytest.approx(1.25, rel=1e-9)


# --v 0,1e-300 gives every curve a frame row ~1e300 long, and the rounded composition of a
# frame with its own inverse had yx = -2.97e284: _monic_in_frame took the swapped-axes
# branch and ended in a ZeroDivisionError traceback.
ROWS_OVERFLOW = (
    "radical-center", "--h1", "1,1,1", "--h2", "7,-1,2", "--h3", "-2,0.5,3",
    "--u", "1.3576740221785215,-1.4714950502067226", "--v", "0,1e-300",
)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the product of two ~1e300 frame rows overflows, so the direction "
    "predicate calls a row independent of itself",
)
def test_radical_center_on_a_frame_with_a_huge_row():
    center = run_json(*ROWS_OVERFLOW)["outputs"]["center"]
    assert center == pytest.approx([-15.50903565291778, 35.786151683118106], rel=1e-12)


# Inputs of size ~1e-13, which an absolute floor of 1e-12 called coincident endpoints
# and parallel chords.
TINY_SEGMENT = (
    "isoptic", "--A", "1e-13,0", "--B", "3e-13,0", "--u", "1,1", "--v", "1,-1", "--theta", "1",
)
TINY_CHORDS = ("chords", "--t", "1e-13,4e-13,2e-13,3e-13", "--kappa", "1e-26")
# Chords whose cubic numerator (t3 + t4)*t1*t2 underflows or overflows at their own scale.
CHORDS_CUBIC_UNDERFLOWS = ("chords", "--t", "1e-110,4e-110,2e-110,3e-110", "--kappa", "1e-220")
CHORDS_CUBIC_OVERFLOWS = ("chords", "--t", "1e110,4e110,2e110,3e110", "--kappa", "1e220")


# The README's radical-center curves scaled by 1e-15, kappa by 1e-30.
TINY_CURVES = (
    "radical-center", "--h1", "0,0,1e-30", "--h2", "-1e-15,-0.5e-15,3e-30",
    "--h3", "1e-15,2e-15,2e-30",
)


def test_tiny_curves_are_decided_at_their_own_scale():
    center = run_json(*TINY_CURVES)["outputs"]["center"]
    assert center == pytest.approx([-1e-15 / 3, 5e-15 / 3], rel=1e-14, abs=0.0)


def test_tiny_segments_and_chords_are_decided_at_their_own_scale():
    run_json(*TINY_SEGMENT)
    assert run_json(*TINY_CHORDS)["outputs"]["intersection_x"] == 5e-13


@pytest.mark.parametrize(
    "argv, x", [(CHORDS_CUBIC_UNDERFLOWS, 5e-110), (CHORDS_CUBIC_OVERFLOWS, 5e110)]
)
def test_chord_abscissa_does_not_leave_the_range_of_its_inputs(argv, x):
    outputs = run_json(*argv)["outputs"]
    assert outputs["intersection_x"] == pytest.approx(x, rel=1e-15, abs=0.0)
    assert outputs["intersection"][0] == pytest.approx(x, rel=1e-15, abs=0.0)


def test_same_component_is_a_sign_test():
    # The slopes 1e-170 and 2e-170 have a product that underflows to 0.
    rays = ("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--v", "0,1")
    tiny = run_json(*rays, "--u", "1e-170,0")["outputs"]
    unit = run_json(*rays, "--u", "1,0")["outputs"]
    assert tiny == unit == {"real": True, "angle": -0.34657359027997264, "reason": None}


def test_half_log_angle_of_slopes_whose_product_underflows():
    doc = run_json("degenerate", "--m1", "1e-320", "--m2", "1e-5")
    assert doc["outputs"]["half_log_angle"] == -362.6571577130018


@pytest.mark.parametrize(
    "outputs, message",
    [
        ({"a": 1.0, "b": [[0.0, -math.inf]], "c": math.nan}, "output b overflows to -inf"),
        ({"a": "x", "b": {"c": math.nan}}, "output b is nan"),
        ({"a": [1.0, None, True]}, None),
        ({"a": [1.0], "b": {"c": [[2.0, 3.0], [4.0, math.inf]]}, "d": math.nan},
         "output b overflows to inf"),
    ],
)
def test_non_finite_output_names_the_first_key_holding_one(outputs, message):
    # The same key is named when the outputs sit inside a whole document.
    document = {"schema_version": "1", "command": "x", "inputs": {"a": 1.0}, "outputs": outputs}
    for doc in (outputs, document):
        if message is None:
            assert _json(doc) == json.dumps(doc, indent=2, allow_nan=False)
        else:
            with pytest.raises(ValueError) as exc:
                _json(doc)
            assert str(exc.value) == message


# Documents for the emitter: strings with non-ASCII, astral and control characters, '"',
# '\\' and DEL; the float extremes; and now and then a nan or an infinity.
JSON_STRINGS = st.text(max_size=8) | st.sampled_from(
    ("", "a b", '"', "\\", "\x7f", "\x00", "\n\t", "\u00e9", "\u2028", "\U0001f600", "\ud800")
)
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308)
)
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | JSON_STRINGS
    | st.sampled_from((math.nan, math.inf, -math.inf)),
    lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(JSON_STRINGS, children, max_size=4)
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(doc=JSON_DOCUMENTS)
def test_json_matches_the_json_package(doc):
    try:
        expected = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:  # a nan or an infinity
        with pytest.raises(ValueError, match=r" (is nan|overflows to -?inf)$"):
            _json(doc)
    else:
        assert _json(doc) == expected


@pytest.mark.parametrize(
    "argv, cap",
    [((*ISOPTIC, "--theta", "1", "--samples"), 65_536), (("invariance", "--trials"), 100_000)],
)
def test_counts_are_capped_when_parsed(argv, cap):
    assert vars(_fast_parse([*argv, str(cap)]))[argv[-1][2:]] == cap


# The equivalence property's values, by converter: spellings each accepts, negative ones
# among them; and spellings that a converter, the table's value rule or both reject.
FINITE = st.sampled_from(("0", "1.5", "-1", "-.5", "-1e-05", "2e300", "-0.0", "5e-324", " 7"))


def finite(k: int):
    return st.lists(FINITE, min_size=k, max_size=k).map(",".join)


GOOD_VALUES = {
    _pair: finite(2), _triple: finite(3), _quad: finite(4), _scalar: finite(1),
    _float_list: st.integers(1, 3).flatmap(finite),
    _samples: st.sampled_from(("-1", "0", "2", "64", str(MAX_SAMPLES))),
    _trials: st.sampled_from(("0", "3", str(MAX_TRIALS))),
    _int: st.sampled_from(("0", "-3", "7")),
    None: st.sampled_from(("doc.json", "a b", "0")),
}
BAD_VALUES = st.sampled_from((
    "x", "nan", "-inf", "-Infinity", "-nan", "1e999", "1,2,3,4,5", "", "-", "--", "-x", "-h",
    "--help", "-a b", "pdf", str(MAX_SAMPLES + 1), str(MAX_TRIALS + 1), "1.5", "-nancy.json",
    "1,,2",
))
JUNK = st.sampled_from(("-h", "--help", "--", "junk", "--bogus", "-x", "", "--out"))


@st.composite
def table_argv(draw) -> tuple[list[str], bool]:
    """argv drawn from the table, and whether it is a command line the fast path must read.

    The options come in any order, each missing, given once or twice, as ``--flag
    value`` or ``--flag=value``; now and then a flag is abbreviated, a value is
    rejected, a junk token is inserted or the command is unknown.
    """
    command = draw(st.sampled_from([*COMMANDS, "transform"]))
    options = COMMANDS[command][3] if command in COMMANDS else {}
    argv, counts, clean = [command], {}, command in COMMANDS
    for flag in draw(st.permutations(list(options))):
        option = options[flag]
        usual = (1,) * 10 if "required" in option else (0, 1) * 5
        counts[flag] = draw(st.sampled_from((*usual, 0, 2)))
        for _ in range(counts[flag]):
            spelled = draw(st.sampled_from((flag,) * 15 + (flag[:-1],)))
            if draw(st.integers(0, 15)):
                choices = option.get("choices")
                good = st.sampled_from(choices) if choices else GOOD_VALUES[option.get("type")]
                value = draw(good)
            else:
                value, clean = draw(BAD_VALUES), False
            clean &= spelled == flag
            argv += draw(st.sampled_from(([f"{spelled}={value}"], [spelled, value])))
    for _ in range(draw(st.sampled_from((0,) * 6 + (1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
        clean = False
    clean &= all(count == 1 or (count == 0 and "required" not in options[flag])
                 for flag, count in counts.items())
    exclusive = [counts[flag] for flag in options if "exclusive" in options[flag]]
    clean &= not exclusive or sum(exclusive) == 1
    return argv, clean


# Each command line shape of perfbench's cli-oneshot stream.
@example(case=(["angle", "--O", "-0.25,0.5", "--A", "1.5,-1", "--B", "0.5,2", "--u", "1,-0.1",
                "--v", "0.2,1"], True))
@example(case=(["power", "--kappa", "-1.25", "--center", "-.5,0", "--P", "2,2.5"], True))
@example(case=(["chords", "--t", "1.1,3.9,2,3.2"], True))
@example(case=(["chords", "--progression", "1,2.5,40", "--kappa", "0.75"], True))
@example(case=(["radical-center", "--h1", "0.1,-0.2,1", "--h2", "-1,-0.5,3",
                "--h3", "1,2,-1e-05"], True))
@example(case=(["degenerate", "--m1", "2.5", "--m2", "-inf"], False))
@example(case=(["degenerate", "--m1", "2.5", "--m2", "-1e-05"], True))
@example(case=([*ISOPTIC, "--theta", "-1", "--samples", "64"], True))
@example(case=([*ISOPTIC, "--theta", "1", "--samples", "256", "--output", "svg",
                "--out", "locus.svg"], True))
@example(case=(["invariance", "--trials=3", "--seed=-3"], True))
@example(case=([*ISOPTIC, "--theta", "1", "--samples", str(MAX_SAMPLES + 1)], False))
@example(case=(["invariance", "--trials", str(MAX_TRIALS + 1)], False))
@example(case=(["chords", "--t", "1,4,2,3", "--progression", "1,2,5"], False))
@example(case=(["power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out=--"], False))
@example(case=(["power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out", "-x"], False))
@example(case=([*ISOPTIC, "--theta", "1", "--output", "pdf"], False))
@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=table_argv())
def test_fast_parse_reads_argv_as_argparse_does(case):
    # The table reads every command line it declares as argparse reads it, with argparse
    # told the table's rule for a value that starts with "-".  Any other command line ends
    # in the help or in the table's one error line, and no handler runs.
    argv, clean = case
    fast = _fast_parse(argv)
    assert isinstance(fast, types.SimpleNamespace) or not clean, argv
    if isinstance(fast, types.SimpleNamespace):
        read = {key: value for key, value in vars(fast).items() if key not in ("handler", "echo")}
        parser = build_parser()
        for one in (parser, *parser._subparsers._group_actions[0].choices.values()):
            one._negative_number_matcher = types.SimpleNamespace(match=_is_value)
        assert read == vars(parser.parse_args(argv)), argv
        return
    run = run_cli(*argv)
    if fast is None:
        assert run.returncode == 0 and run.stdout.startswith(b"usage: uvangle"), argv
        assert run.stderr == "", argv
    else:
        assert run == (1, b"", fast + "\n"), argv


# The contract fuzzer's grammar: extreme, non-finite and malformed number spellings,
# small counts and each count cap + 1 (a count just below a cap would run for seconds).
# 1e160 and -1e-160 lie in the band where a product of two entries leaves the float range
# but ABS_EPS times it does not.
NUMBERS = (
    "0", "-0.0", "1", "-1", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "-2.2250738585072014e-308", "1e160", "-1e-160", "1e200", "-1e200", "1e-200", "-1e-200",
    "1e300", "-1e300", "1e-300", "-1e-300", "1e308", "-1e308", "1.7976931348623157e308",
    "-1.7976931348623157e308", "nan", "inf", "-inf", "1e999", "-1e999", "x", "",
)
# The first 22 spellings are finite; drawing from them half the time gets more runs
# past the parser.
NUMBER = st.sampled_from(NUMBERS[:22]) | st.sampled_from(NUMBERS)


def numbers(k: int):
    return st.lists(NUMBER, min_size=k, max_size=k).map(",".join)


def optional(values):
    return st.none() | values


PAIR, FRAME = numbers(2), (("--u", optional(numbers(2))), ("--v", optional(numbers(2))))
GRAMMAR = {
    "angle": (("--O", PAIR), ("--A", PAIR), ("--B", PAIR), ("--u", PAIR), ("--v", PAIR)),
    "isoptic": (
        ("--A", PAIR), ("--B", PAIR), ("--u", PAIR), ("--v", PAIR), ("--theta", numbers(1)),
        ("--samples", optional(st.sampled_from(("-1", "0", "1", "2", "3", "5", "x", "65537")))),
        ("--output", optional(st.sampled_from(("json", "svg")))),
    ),
    "power": (("--kappa", numbers(1)), ("--center", PAIR), ("--P", PAIR), *FRAME),
    "radical-center": (("--h1", numbers(3)), ("--h2", numbers(3)), ("--h3", numbers(3)), *FRAME),
    "chords": (
        ("--t", optional(numbers(4))), ("--progression", optional(numbers(3))),
        ("--kappa", optional(numbers(1))),
    ),
    "degenerate": (
        ("--m1", numbers(1)), ("--m2", numbers(1)),
        ("--t-sequence", optional(st.integers(1, 4).flatmap(numbers))),
    ),
    "invariance": (
        ("--trials", optional(st.sampled_from(("-1", "0", "1", "2", "3", "x", "100001")))),
        ("--seed", optional(st.sampled_from(("0", "7", "-3", "x")))),
    ),
}


@st.composite
def cli_argv(draw) -> list[str]:
    # Each option given is now and then abbreviated, given twice, or given as `--flag=--`,
    # which argparse reads as a flag with no value; the table refuses all three.
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in GRAMMAR[command]:
        value = draw(values)
        if value is None:
            continue
        how = draw(st.sampled_from(("once",) * 17 + ("abbreviated", "twice", "=--")))
        if how == "=--":
            argv.append(f"{flag}=--")
        else:
            spelled = flag[:-1] if how == "abbreviated" and len(flag) > 4 else flag
            argv += [spelled, value] * (2 if how == "twice" else 1)
    return argv


@pytest.fixture(scope="module")
def workloads():
    # perfbench's in-process runner and its contract rule, imported as the benchmark does.
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(root / "perfbench"))
    workloads.load_uvangle(str(root / "src"))
    return workloads


def svg_shape(stdout: str) -> tuple[int, int]:
    """Polyline points and endpoint markers of an SVG document."""
    root = ET.fromstring(stdout.encode("utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    points = sum(len(line.get("points").split()) for line in root.iter(ns + "polyline"))
    return points, len(list(root.iter(ns + "circle")))


# Command lines that ended in a traceback or a wrong reason: tests/golden/cli_errors.txt
# pins the error line of each, and the fuzzer checks each with perfbench's contract rule.
ISOPTIC_S_UNDERFLOWS = (
    "isoptic", "--A", "-2.1e-22,-2e-12", "--B", "2.1e-22,2e-12", "--u", "1.7e308,0",
    "--v", "0,1", "--theta", "1", "--samples", "3",
)
ALPHA_UNDERFLOWS = (
    "angle", "--O", "-1e-200,2", "--A", "2.2250738585072014e-308,2", "--B", "2,-3",
    "--u", "-3,1e308", "--v", "-0.25,0.5",
)
T_SQUARED_UNDERFLOWS = (
    "degenerate", "--m1", "2.2250738585072014e-308", "--m2", "0.5",
    "--t-sequence", "1e-200,1e-300",
)
ISOPTIC_FRAME_OVERFLOWS = (
    "isoptic", "--A", "1e-300,1e-200", "--B", "0.5,1e-300", "--u", "1e-200,-1e308",
    "--v", "123456789,1", "--theta", "1", "--samples", "3",
)
RATIO_OVERFLOWS = ("degenerate", "--m1", "2.8", "--m2", "5e-324")
RATIO_UNDERFLOWS = ("degenerate", "--m1", "-5e-324", "--m2", "-2.11")
DET_OVERFLOWS = (
    "radical-center", "--h1", "0,0,1", "--h2", "1e-300,0,1", "--h3", "0,1e-300,2",
    "--u", "1e-160,0", "--v", "0,1e-160",
)
SEGMENT_DET_OVERFLOWS = (
    "isoptic", "--A=-1e-200,0", "--B", "1e-200,0", "--u", "1,1", "--v", "1,-1", "--theta", "1",
)


@settings(derandomize=True, max_examples=400, deadline=None)
@example(argv=list(ISOPTIC_S_UNDERFLOWS))
@example(argv=list(ISOPTIC_FRAME_OVERFLOWS))
@example(argv=list(ALPHA_UNDERFLOWS))
@example(argv=list(T_SQUARED_UNDERFLOWS))
@example(argv=list(RATIO_OVERFLOWS))
@example(argv=list(RATIO_UNDERFLOWS))
@example(argv=list(DET_OVERFLOWS))
@example(argv=list(ROWS_OVERFLOW))
@example(argv=list(TINY_SEGMENT))
@example(argv=list(TINY_CHORDS))
@example(argv=list(CHORDS_CUBIC_UNDERFLOWS))
@example(argv=list(CHORDS_CUBIC_OVERFLOWS))
@example(argv=list(SEGMENT_DET_OVERFLOWS))
@example(argv=list(TINY_CURVES))
@example(argv=[*ISOPTIC, "--theta", "1", "--samples", "5", "--output", "svg"])
@example(argv=[*ISOPTIC_FRAME_OVERFLOWS, "--output", "svg"])
@given(argv=cli_argv())
def test_every_command_ends_in_json_or_one_error_line(workloads, argv):
    code, stdout, stderr = workloads.run_in_process(argv)
    if code == 0 and "svg" in argv:
        # An SVG run ends in a document that draws every sample and both endpoints.
        samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 32
        assert (svg_shape(stdout), stderr) == ((samples, 2), ""), argv
    else:
        assert workloads.contract_violation(code, stdout, stderr) is None, (argv, code, stderr)
        if code == 0:  # the emitter writes the json package's bytes
            assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n", argv
