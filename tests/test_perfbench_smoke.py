"""The benchmark's smoke run: every workload, tiny, with all of its checks."""

from pathlib import Path

from helpers import run_process

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_perfbench_smoke_passes():
    proc = run_process(str(RUN), "--smoke")
    stdout = proc.stdout.decode()
    assert proc.returncode == 0, stdout[-2000:] + proc.stderr.decode()[-2000:]
    assert "smoke ok" in stdout
