"""Byte-for-byte comparison of CLI output with committed golden files.

Each case runs ``uvangle.cli.main`` once, in process, compares stdout with
``tests/golden/<name>.<ext>`` and checks each JSON golden against
``schemas/result_v1.json``.  ``test_entry_points_match_the_in_process_run``
runs ``python -m uvangle`` and ``python -m uvangle.cli`` as processes on a
JSON golden, an SVG golden, a domain error, a parse error and ``--help``, and
asserts that each prints what the in-process run prints.  The golden files were
captured before the angle moved from the auxiliary-line ratio to the (u, v)
slope, so these tests pin the printed values of the README commands across
refactors.
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
and stderr with its newlines escaped.  To recapture after an intended change
of an error line:

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

# Every kind of parse error, each converter's messages, one domain error per
# command that has one (invariance has none), and each kind of invalid argv
# that perfbench's cli-oneshot stream draws (perfbench/inputs.py::bad_command).
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
    ("isoptic", "--A", "0.5,1", "--B", "0.5,1", "--u", "1,1", "--v", "1,-1", "--theta", "1.5"),
    (*ISOPTIC, "--theta", "1", "--samples", "1", "--output", "svg"),
    ("power", "--kappa", "0", "--center", "0.5,1", "--P", "2,2"),
    ("radical-center", "--h1", "0.5,1,1", "--h2", "1.5,2,1.5", "--h3", "2.5,3,2"),
    ("chords", "--t", "1,3,2,1.5"),
    ("degenerate", "--m1", "0", "--m2", "1.5"),
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
    expected = (GOLDEN / "cli_errors.txt").read_text().splitlines()
    actual = error_lines()
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


# What a process adds to main: the entry point's module, exit code and stream bytes.
ENTRY_POINT_RUNS = (
    CASES["angle.json"],
    CASES["isoptic_sheared.svg"],
    ("angle", "--O", "0,0", "--A", "1,0", "--B", "1,2", "--u", "1,0", "--v", "0,1"),  # domain
    ("angle", "--O", "0,0", "--A", "1,2,3", "--B", "1,2", "--u", "1,0", "--v", "0,1"),  # parse
    ("--help",),  # argparse's help, at the width COLUMNS gives both runs
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
    assert codes == [0, 0, 2, 1, 0]


if __name__ == "__main__":
    (GOLDEN / "cli_errors.txt").write_text("\n".join(error_lines()) + "\n")
