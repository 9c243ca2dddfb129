"""Byte-for-byte comparison of CLI output with committed golden files.

Each case runs ``uvangle.cli.main`` once, in process, compares stdout with
``tests/golden/<name>.<ext>`` and checks each JSON golden against
``schemas/result_v1.json``.  ``test_entry_points_match_the_in_process_run``
runs ``python -m uvangle`` and ``python -m uvangle.cli`` as processes on a
JSON golden, an SVG golden, a domain error, a parse error, ``--help`` and a
document larger than a pipe buffer, and asserts that each prints what the
in-process run prints.  The golden files were captured before the angle
moved from the auxiliary-line ratio to the (u, v) slope, so these tests pin
the printed values of the README commands across refactors.
The two ``isoptic_sheared`` files were captured before ``sample_locus``
classified its samples in the canonical frame; they pin the sample
coordinates on a sheared, non-unit frame with an odd sample count and a
negative angle.
``chords_t_kappa2`` is the one document with a nonempty ``diagnostics``,
and ``degenerate_t_sequence`` echoes a given ``--t-sequence``.
``radical_center_reflected`` has negative kappas, so each frame is
reflected before it is inverted; it pins a radical axis whose ``c`` prints
as ``-0.0``, a sign that deriving the reflected inverse from the given
frame's inverse would flip.
To recapture after an intended output change, write each case's stdout to
its golden file.

``invariance`` is absent: its group and shear deviations measure the
roundoff of ``affine_angle`` itself.  Only its lambda field, computed from
``sigma_lambda``, is pinned (``test_invariance_lambda_field_is_pinned``).

``ERROR_CASES`` are command lines the CLI rejects; ``tests/golden/cli_errors.txt``
holds one line per case: the exit code, the argv as a shell would quote it,
and stderr with its newlines escaped.  This is how the suite pins a CLI error
line: a new one is a new case, not a new test.  No argv may be listed twice.
To recapture after an intended change of an error line:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shlex
from pathlib import Path

import pytest

from helpers import run_cli, run_process, valid_document

GOLDEN = Path(__file__).parent / "golden"

SHEARED_U = "2,0.5"
SHEARED_V = "-0.6,1.5"

CASES = {
    "angle.json": ("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    "angle_nonreal.json": (
        "angle", "--O", "0,0", "--A", "1,1", "--B", "1,-2", "--u", "1,0", "--v", "0,1",
    ),
    "angle_sheared.json": (
        "angle", "--O", "0.5,-0.25", "--A", "3,1.5", "--B", "1.5,2",
        "--u", SHEARED_U, "--v", SHEARED_V,
    ),
    "power.json": ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2"),
    "power_sheared.json": (
        "power", "--kappa", "1.5", "--center", "0.5,-1", "--P", "2,3",
        "--u", SHEARED_U, "--v", SHEARED_V,
    ),
    "chords_progression_5.json": ("chords", "--progression", "1,2,5", "--kappa", "1"),
    "chords_progression_100.json": ("chords", "--progression", "1,2,100", "--kappa", "1"),
    "chords_t.json": ("chords", "--t", "1,4,2,3"),
    "chords_t_kappa2.json": ("chords", "--t", "1,4,2,3", "--kappa", "2"),
    "isoptic_64.json": (
        "isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "1", "--samples", "64",
    ),
    "isoptic_256.svg": (
        "isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1",
        "--theta", "1", "--samples", "256", "--output", "svg",
    ),
    "isoptic_sheared.json": (
        "isoptic", "--A", "0.3,-0.7", "--B", "2.1,0.4", "--u", SHEARED_U, "--v", SHEARED_V,
        "--theta", "-1.3", "--samples", "33",
    ),
    "isoptic_sheared.svg": (
        "isoptic", "--A", "0.3,-0.7", "--B", "2.1,0.4", "--u", SHEARED_U, "--v", SHEARED_V,
        "--theta", "-1.3", "--samples", "256", "--output", "svg",
    ),
    "radical_center.json": (
        "radical-center", "--h1", "0,0,1", "--h2", "-1,-0.5,3", "--h3", "1,2,2",
    ),
    "radical_center_sheared.json": (
        "radical-center", "--h1", "0,0,1", "--h2", "-1,-0.5,3", "--h3", "1,2,2",
        "--u", SHEARED_U, "--v", SHEARED_V,
    ),
    "radical_center_reflected.json": (
        "radical-center", "--h1", "-2,0,3", "--h2", "2,-0.5,-3", "--h3", "-2,0.5,-3",
    ),
    "degenerate.json": ("degenerate", "--m1", "2", "--m2", "1"),
    "degenerate_t_sequence.json": (
        "degenerate", "--m1", "2", "--m2", "1", "--t-sequence", "0.1,0.05,0.01",
    ),
}

# lambda_independence_max_rel_dev of ``invariance --trials 200 --seed 0``.
INVARIANCE_LAMBDA_DEV = 1.3162111726105019e-14


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    proc = run_cli(*CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()
    if name.endswith(".json"):
        valid_document(proc.stdout)


def test_invariance_lambda_field_is_pinned():
    proc = run_cli("invariance", "--trials", "200", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["lambda_independence_max_rel_dev"] == INVARIANCE_LAMBDA_DEV


ANGLE = ("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1")
ISOPTIC = ("isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1")
DEPENDENT = ("--u", "1,0", "--v", "2,0")

# Every kind of parse error, each converter's messages, one domain error per
# command that has one (invariance has none), and each kind of invalid argv
# that perfbench's cli-oneshot stream draws (perfbench/inputs.py::bad_command);
# then, in labelled groups, more usage errors, named invalid inputs, results
# out of range, underflow, lost precision and ROADMAP item 3's scale defects.
ERROR_CASES = (
    # the command
    (),
    ("nonsense",),
    ("transform", "--P", "0.5,1"),
    ("--bogus",),
    # options: missing, unknown, abbreviated, repeated, without a value, after --
    ("angle", "--O", "0,0"),
    ("power", "--kappa", "1.5", "--center", "0.25,-1"),
    (*ANGLE, "--bogus"),
    (*ANGLE, "--seed", "1"),
    (*ANGLE, "extra"),
    ("degenerate", "--m", "1", "--m2", "1"),
    ("power", "--kap", "1", "--center", "0,0"),
    ("angle", "--O", "0,0", "--O", "1,1"),
    ("degenerate", "--m1", "2", "--m2"),
    ("degenerate", "--m1", "--m2", "1"),
    ("degenerate", "--m1", "2", "--m2", "-x"),
    ("angle", "--", "--O", "0,0"),
    # the first fault, read left to right: an abbreviated or repeated option, and a value
    # after = that is "--" or starts with "-" and is not a number
    ("power", "--kap", "1", "--center", "0,0", "--P", "2,2"),
    ("angle", "--O", "1,1", *ANGLE[1:]),
    ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out=--"),
    ("angle", "--O", "0,0", "--A=--", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    (*ISOPTIC, "--theta=--"),
    ("invariance", "--seed=--"),
    (*ISOPTIC, "--theta", "1", "--output=--"),
    ("degenerate", "--m1", "2", "--m2", "1", "--t-sequence=--"),
    (*ISOPTIC, "--theta", "1", "--out=-locus.svg"),
    ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out", "-nancy.json"),
    ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out=-nancy.json"),
    # the converters
    ("angle", "--O", "0,0", "--A", "1,2,3", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    ("angle", "--O", "0,0", "--A", "x1,2", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    ("angle", "--O", "nan,0", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    ("angle", "--O", "0,1e999", "--A", "1,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    ("radical-center", "--h1", "1,2", "--h2", "0,0,1", "--h3", "1,2,2"),
    ("radical-center", "--h1", "0,0,inf", "--h2", "-1,-0.5,3", "--h3", "1,2,2"),
    (*ISOPTIC, "--theta", "x"),
    (*ISOPTIC, "--theta", "inf"),
    (*ISOPTIC, "--theta", "1", "--samples", "65537"),
    (*ISOPTIC, "--theta", "1", "--samples", "x"),
    (*ISOPTIC, "--theta", "1", "--samples", "1.5"),
    (*ISOPTIC, "--theta", "1", "--viewport", "1,2"),
    (*ISOPTIC, "--theta", "1", "--viewport", "0,0,1,-inf"),
    (*ISOPTIC, "--theta", "1", "--output", "pdf"),
    ("power", "--kappa", "nan", "--center", "0,0", "--P", "2,2"),
    ("chords", "--progression", "1,2,5", "--kappa", "inf"),
    ("chords", "--t", "1,2,3"),
    ("degenerate", "--m1", "2", "--m2=-inf"),
    ("degenerate", "--m1=", "--m2", "1"),
    ("degenerate", "--m1", "2", "--m2", "1", "--t-sequence", "0.01,nan"),
    ("degenerate", "--m1", "2", "--m2", "1", "--t-sequence", "0.1,x"),
    ("degenerate", "--m1", "2", "--m2", "1", "--t-sequence="),
    ("degenerate", "--m1", "2", "--m2", "1", "--t-sequence=0.1,,0.01"),
    ("invariance", "--trials", "100001"),
    ("invariance", "--trials", "-2"),
    ("invariance", "--trials", "x"),
    ("invariance", "--seed", "x"),
    ("invariance", "--seed", "1.5"),
    # the exclusive group
    ("chords", "--t", "1,4,2,3", "--progression", "1,2,5"),
    ("chords",),
    ("chords", "--kappa", "2"),
    # domain errors
    ("angle", "--O", "0,0", "--A", "0,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    ("angle", "--O", "0.5,1", "--A", "1.25,1", "--B", "1.5,3", "--u", "1,0", "--v", "0,1"),
    (*ISOPTIC, "--theta", "0"),
    (*ISOPTIC, "--theta", "1.5e-08"),
    (*ISOPTIC, "--theta", "709"),
    (*ISOPTIC, "--theta", "-709"),
    (*ISOPTIC, "--theta", "709", "--output", "svg"),
    (*ISOPTIC, "--theta", "-709", "--output", "svg"),
    ("isoptic", "--A", "0.5,1", "--B", "0.5,1", "--u", "1,1", "--v", "1,-1", "--theta", "1.5"),
    (*ISOPTIC, "--theta", "1", "--samples", "1", "--output", "svg"),
    ("power", "--kappa", "0", "--center", "0.5,1", "--P", "2,2"),
    ("radical-center", "--h1", "0.5,1,1", "--h2", "1.5,2,1.5", "--h3", "2.5,3,2"),
    ("chords", "--t", "1,3,2,1.5"),
    ("degenerate", "--m1", "0", "--m2", "1.5"),
    # more usage errors: "-inf", "-Infinity" and "-nan" are values, which the float
    # converter rejects; a token that starts with "-" is a value only when a number comes
    # before its first ","
    ("angle", "--bogus"),
    ("degenerate", "--m1", "nan", "--m2", "1"),
    ("degenerate", "--m1", "2", "--m2", "-inf"),
    ("degenerate", "--m1", "2", "--m2", "-Infinity"),
    ("degenerate", "--m1", "2", "--m2", "-nan"),
    ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", "--out", "-infile"),
    # invalid input, each with its named reason
    ("angle", "--O", "0,0", "--A", "1,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    (*ANGLE[:7], *DEPENDENT),
    (*ISOPTIC[:5], *DEPENDENT, "--theta", "1"),
    ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2", *DEPENDENT),
    ("radical-center", "--h1", "0,0,1", "--h2", "-1,-0.5,3", "--h3", "1,2,2", *DEPENDENT),
    (*ISOPTIC, "--theta", "800"),
    # unchecked, a negative ratio printed the area 3.375 with exit 0
    ("chords", "--progression", "1,-2,5"),
    ("chords", "--progression", "1,1,5"),
    # the chord parameters a and a*r**2 coincide within REL_EPS
    ("chords", "--progression", "1,1.000000000001,5"),
    # radical-center's precedence: the pair (h1, h2) first, then (h2, h3), then their meet;
    # every curve's kappa before any axis, and the basis before any kappa
    ("radical-center", "--h1", "0,0,1", "--h2", "0,0,1", "--h3", "1,2,2"),
    ("radical-center", "--h1", "0,0,1", "--h2", "0,0,2", "--h3", "1,2,2"),
    ("radical-center", "--h1", "0,0,1", "--h2", "1,1,1", "--h3", "2,2,1"),
    ("radical-center", "--h1", "0,0,1", "--h2", "1,1,0", "--h3", "2,2,1"),
    ("radical-center", "--h1", "0,0,0", "--h2", "1,1,1", "--h3", "2,3,1", *DEPENDENT),
    # two of the README's curves scaled by 1e-15, kappa by 1e-30: equal centers, different
    # kappa, decided at their own scale
    ("radical-center", "--h1", "0,0,1e-30", "--h2", "0,0,2e-30", "--h3", "1e-15,2e-15,2e-30"),
    # A - O overflows to -inf, which is not a coincidence; the second is one at that scale
    ("angle", "--O", "1e308,0", "--A", "-1e308,1", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    ("angle", "--O", "1e308,0", "--A", "1e308,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"),
    # results out of range
    ("power", "--kappa", "1", "--center", "0,0", "--P", "1e308,1e308"),
    ("chords", "--progression", "1,1e300,2"),
    # r**3 = 1e300 is finite, but the node a*r**3 is not
    ("chords", "--progression", "1e10,1e100,2"),
    # a subnormal slope sends m1/m2 out of range: the first printed "Out of range float
    # values are not JSON compliant: inf", the second "math domain error"
    ("degenerate", "--m1", "2.8", "--m2", "5e-324"),
    ("degenerate", "--m1", "-5e-324", "--m2", "-2.11"),
    # the power overflows to inf, and the error named no output
    (
        "power", "--kappa", "3", "--center", "0.98,1.8e33", "--P=-0.0,-1e308",
        "--u", "0.707,-2.89", "--v", "1e-300,-1",
    ),
    # OA's slope overflows, and the angle was inf/inf: the error named the output nan
    (
        "angle", "--O=-1.77,5.299485577577254e-05", "--A=-2.11,3.0", "--B=-4.4,1.3951",
        "--u=1022.3585670132161,0.6721", "--v=5e-324,2.2250738585072014e-308",
    ),
    # the frame scales by ~1e160, so its determinant overflows: the inverse divided down to
    # the zero map, and _monic_in_frame divided by 0 in a ZeroDivisionError traceback
    (
        "radical-center", "--h1", "0,0,1", "--h2", "1e-300,0,1", "--h3", "0,1e-300,2",
        "--u", "1e-160,0", "--v", "0,1e-160",
    ),
    # both products of the frame's determinant overflow, so it is nan: the error named the
    # nan entries of the inverse, "coordinates must be finite, got nan"; the user gave no
    # overflowing value, so this reason is wrong too (ROADMAP item 3)
    ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2",
     "--u", "3e-160,1e-160", "--v", "1e-160,2e-160"),
    # SVG pixels: the scale overflows; the extent overflows; a finite scale sends the far
    # samples to infinite pixels; an empty viewport
    (*ISOPTIC, "--viewport", "0,0,1e-320,1e-320", "--theta", "1", "--samples", "4",
     "--output", "svg"),
    (*ISOPTIC, "--viewport", "-1e308,-1e308,1e308,1e308", "--theta", "1", "--samples", "4",
     "--output", "svg"),
    ("isoptic", "--A", "-1e6,0", "--B", "1e6,0", *ISOPTIC[5:], "--viewport",
     "0,0,1e-300,1e-300", "--theta", "1", "--samples", "4", "--output", "svg"),
    (*ISOPTIC, "--theta", "1", "--output", "svg", "--viewport", "1,0,0,1"),
    # underflow: each divided by a value that underflowed to 0 and printed a
    # ZeroDivisionError traceback
    (
        "isoptic", "--A", "-2.1e-22,-2e-12", "--B", "2.1e-22,2e-12", "--u", "1.7e308,0",
        "--v", "0,1", "--theta", "1", "--samples", "3",
    ),
    ("isoptic", "--A", "-2e-12,-2.1e-22", "--B", "2e-12,2.1e-22", "--u", "1,0",
     "--v", "0,1.7e308", "--theta", "1"),
    (
        "angle", "--O", "-1e-200,2", "--A", "2.2250738585072014e-308,2", "--B", "2,-3",
        "--u", "-3,1e308", "--v", "-0.25,0.5",
    ),
    (
        "degenerate", "--m1", "2.2250738585072014e-308", "--m2", "0.5",
        "--t-sequence", "1e-200,1e-300",
    ),
    # OA is nonzero, but the message said "direction vector must be nonzero"
    ("angle", "--O", "0,0", "--A", "5e-324,0", "--B", "1,2", "--u", "1e10,1e10",
     "--v", "1e10,-1e10"),
    # lost precision: cross(u, v) overflows to inf, and the (u, v) frame divided by it came
    # out all zero: the angle printed "direction vector must be nonzero", the isoptic
    # "coordinate s underflows"; these directions are independent, and ROADMAP item 3's
    # step 1 changes both lines
    (*ANGLE[:7], "--u", "1e-200,-1e308", "--v", "123456789,1"),
    (
        "isoptic", "--A", "1e-300,1e-200", "--B", "0.5,1e-300",
        "--u", "1e-200,-1e308", "--v", "123456789,1", "--theta", "1", "--samples", "3",
    ),
    # t is subnormal, so 1/(2t) is inf and the canonical map's entries were nan
    ("isoptic", "--A", "-2e-12,-2.1e-22", "--B", "2e-12,2.1e-22", "--u", "1,0",
     "--v", "0,1.7e300", "--theta", "1"),
    # 1 + 2*1e-20 rounds to 1: the limit printed -1.5e-20 beside slope difference 1.5
    ("degenerate", "--m1", "2", "--m2", "0.5", "--t-sequence", "1e-10,1e-20"),
    # the limit printed 0.0
    ("degenerate", "--m1", "2", "--m2", "0.5", "--t-sequence", "1e-150,1e-170"),
    # scale defects (ROADMAP item 3): one error line for both outputs of a 1e170 segment,
    # whose canonical map underflows; a 1e-200 segment, whose canonical map's determinant
    # overflows; a frame row ~1e300 long, whose rounded composition with its own inverse
    # took _monic_in_frame's swapped-axes branch into a ZeroDivisionError traceback
    ("isoptic", "--A", "-1e170,0", "--B", "1e170,0", *ISOPTIC[5:], "--theta", "1",
     "--output", "json"),
    ("isoptic", "--A", "-1e170,0", "--B", "1e170,0", *ISOPTIC[5:], "--theta", "1",
     "--output", "svg"),
    ("isoptic", "--A=-1e-200,0", "--B", "1e-200,0", *ISOPTIC[5:], "--theta", "1"),
    (
        "radical-center", "--h1", "1,1,1", "--h2", "7,-1,2", "--h3", "-2,0.5,3",
        "--u", "1.3576740221785215,-1.4714950502067226", "--v", "0,1e-300",
    ),
    # ROADMAP item 3's other CLI repros.  Each reason is wrong, and item 3's fix recaptures
    # each line: both reference directions are independent, the 1e200 segment's map is well
    # conditioned, and the chords' product t1*t2 underflows.
    ("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1e200,0", "--v", "0,1e200"),
    ("angle", "--O", "0,0", "--A", "1,1", "--B", "1,2", "--u", "1e-200,0", "--v", "0,1e-200"),
    ("isoptic", "--A=-1e200,0", "--B", "1e200,0", *ISOPTIC[5:], "--theta", "1"),
    ("chords", "--t", "1e-200,4e-200,2e-200,3e-200"),
)


def error_lines() -> list[str]:
    lines = []
    for argv in ERROR_CASES:
        run = run_cli(*argv)
        assert run.stdout == b"", argv
        stderr = run.stderr.encode("unicode_escape").decode("ascii")
        lines.append(f"{run.returncode} {shlex.join(argv)}\t{stderr}")
    return lines


def test_every_error_line_matches_its_golden():
    repeated = [shlex.join(argv) for i, argv in enumerate(ERROR_CASES) if argv in ERROR_CASES[:i]]
    assert repeated == []
    expected = (GOLDEN / "cli_errors.txt").read_text().splitlines()
    n = len(expected)
    assert len(ERROR_CASES) <= n, f"no golden line for {shlex.join(ERROR_CASES[n])}"
    assert len(ERROR_CASES) == n, f"no case for the golden line {expected[len(ERROR_CASES)]!r}"
    for want, got in zip(expected, error_lines()):
        assert got == want


# What a process adds to main: the entry point's module, exit code and stream bytes.
ENTRY_POINT_RUNS = (
    CASES["angle.json"],
    CASES["isoptic_sheared.svg"],
    ("angle", "--O", "0,0", "--A", "1,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"),  # domain
    ("angle", "--O", "0,0", "--A", "1,2,3", "--B", "1,2", "--u", "1,0", "--v", "0,1"),  # parse
    ("--help",),  # argparse's help, at the width COLUMNS gives both runs
    # 548 kB, many pipe buffers: the whole document is written before os._exit
    (*CASES["isoptic_64.json"][:-2], "--samples", "4096"),
)


# The package entry point (what users and the benchmark run) and the module one.
@pytest.mark.parametrize("entry", ["uvangle", "uvangle.cli"])
def test_entry_points_match_the_in_process_run(monkeypatch, entry):
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in ENTRY_POINT_RUNS:
        proc = run_process("-m", entry, *argv)
        inproc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == inproc, argv
        codes.append(proc.returncode)
    assert codes == [0, 0, 2, 1, 0, 0]


# Registers an atexit handler, then runs the package as `python -m uvangle` does.
ATEXIT_CHILD = """
import atexit, runpy, sys
atexit.register(sys.stderr.write, "atexit handler ran")
runpy.run_module("uvangle", run_name="__main__", alter_sys=True)
"""


def test_the_package_entry_point_skips_teardown():
    # cli.run leaves by os._exit, so no atexit handler runs after main.
    argv = ENTRY_POINT_RUNS[0]
    proc = run_process("-c", ATEXIT_CHILD, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run_cli(*argv).stdout, b"")


def test_the_console_script_is_the_exit_function():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((GOLDEN.parent.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"uvangle": "uvangle.cli:run"}


if __name__ == "__main__":
    (GOLDEN / "cli_errors.txt").write_text("\n".join(error_lines()) + "\n")
