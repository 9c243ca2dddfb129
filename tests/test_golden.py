"""Byte-for-byte comparison of CLI output with committed golden files.

Each case runs ``python -m uvangle`` and ``python -m uvangle.cli`` and
compares stdout with ``tests/golden/<name>.<ext>``.  The golden files were
captured before the angle moved from the auxiliary-line ratio to the (u, v)
slope, so these tests pin the printed values of the README commands across
refactors.
The two ``isoptic_sheared`` files were captured before ``sample_locus``
classified its samples in the canonical frame; they pin the sample
coordinates on a sheared, non-unit frame with an odd sample count and a
negative angle.
To recapture after an intended output change, write each case's stdout to
its golden file.

``invariance`` is absent: its group and shear deviations measure the
roundoff of ``affine_angle`` itself.  Only its lambda field, computed from
``sigma_lambda``, is pinned (``test_invariance_lambda_field_is_pinned``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    "degenerate.json": ("degenerate", "--m1", "2", "--m2", "1"),
}

# lambda_independence_max_rel_dev of ``invariance --trials 200 --seed 0``.
INVARIANCE_LAMBDA_DEV = 1.3162111726105019e-14


# The package entry point (what users and the benchmark run) and the module one.
ENTRY_POINTS = ("uvangle", "uvangle.cli")


def run_cli(entry: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", entry, *argv], capture_output=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    for entry in ENTRY_POINTS:
        proc = run_cli(entry, *CASES[name])
        assert proc.returncode == 0, (entry, proc.stderr.decode())
        assert proc.stdout == (GOLDEN / name).read_bytes(), entry


def test_invariance_lambda_field_is_pinned():
    for entry in ENTRY_POINTS:
        proc = run_cli(entry, "invariance", "--trials", "200", "--seed", "0")
        assert proc.returncode == 0, (entry, proc.stderr.decode())
        outputs = json.loads(proc.stdout)["outputs"]
        assert outputs["lambda_independence_max_rel_dev"] == INVARIANCE_LAMBDA_DEV, entry
