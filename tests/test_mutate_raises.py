import ast
import subprocess

import mutate_raises as M


def test_a_checked_guard_turned_into_pass_fails_its_tests(tmp_path):
    M.copy_tree(tmp_path)
    original = (tmp_path / M.PACKAGE / "kernel.py").read_text()
    (site,) = [
        s for s in M.raise_sites(original)
        if "reference directions must be independent" in ast.get_source_segment(original, s)
    ]
    mutant = M.replace_with_pass(original, site)
    assert mutant.count("\n") == original.count("\n")
    assert len(M.raise_sites(mutant)) == len(M.raise_sites(original)) - 1
    proc = M.run_mutant(tmp_path, "kernel.py", site, original)
    assert proc.returncode == 1, proc.stdout
    assert "FAILED tests/test_kernel.py::" in proc.stdout
    assert (tmp_path / M.PACKAGE / "kernel.py").read_text() == original


def test_mutant_runs_leave_out_only_the_unused_import_lint(tmp_path, monkeypatch):
    # The lint fails whenever a mutated raise was its module's only use of an
    # exception class, so it would decide those mutants' verdicts by itself.
    runs = []

    def run_suite(tree, *args):
        runs.append(args)
        return subprocess.CompletedProcess(args, 0)

    monkeypatch.setattr(M, "run_suite", run_suite)
    (tmp_path / M.PACKAGE).mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_power.py").write_text("")
    source = "def f():\n    raise ValueError('x')\n"
    (tmp_path / M.PACKAGE / "power.py").write_text(source)
    (site,) = M.raise_sites(source)
    M.run_mutant(tmp_path, "power.py", site, source)
    lint = "--deselect=tests/test_imports.py::test_no_unused_imports"
    assert runs == [
        ("tests/test_power.py", "tests/test_golden.py", lint),
        ("tests", "--ignore=tests/test_power.py", "--ignore=tests/test_golden.py", lint),
    ]
