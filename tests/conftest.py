from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "uvangle"

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line per acceptance criterion."""

    def record(name: str, ok: bool, detail: str = "") -> None:
        ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Net source size, tracked beside the benchmarks: what `wc -l src/uvangle/*.py` totals.
    lines = sum(len(p.read_bytes().splitlines()) for p in SOURCES.glob("*.py"))
    terminalreporter.write_line(f"source lines (src/uvangle/*.py): {lines}")
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"  {status}  {name}  {detail}")
