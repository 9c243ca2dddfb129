import ast

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
