"""Raise-to-pass mutation sweep: which guards in ``src/uvangle`` does no test check?

Each ``raise`` statement of ``src/uvangle/*.py`` in turn is replaced by
``pass`` in a temporary copy of the tree, and the Tier-1 suite runs on the
copy under ``-x``: the module's own test file (``tests/test_<module>.py``)
first when there is one, then ``tests/test_golden.py``, which pins every CLI
error line, then the rest.  A mutant survives when the suite
still passes: no test fails without that guard.  One mutant runs at a time,
and the line numbers of the other statements do not move.  Mutant runs leave
out the unused-import lint, which fails whenever the mutated raise was its
module's only use of an exception class, whatever the other tests do; the
unmutated baseline runs it.

    python tests/mutate_raises.py                  # every raise, then the survivors
    python tests/mutate_raises.py kernel.py power.py

A full sweep runs the suite about once per raise: 79 raises took 7 minutes
on a 2-vCPU machine and ``kernel.py`` alone, 23 raises, 2.5 minutes, when
``tests/test_golden.py`` still ran among the rest.  ``cli.py``, 8 raises,
takes 54 s, against 56 s with that order.  pytest does not collect this
file; ``test_mutate_raises.py`` checks one known guard with it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "uvangle"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
UNUSED_IMPORT_LINT = "--deselect=tests/test_imports.py::test_no_unused_imports"
# Pins every CLI error line, so it kills most guards of the argument converters.
GOLDEN = "tests/test_golden.py"
# A mutant can loop forever where a raise ended a loop; one suite run takes well under this.
TIMEOUT_S = 1800


def raise_sites(source: str) -> list[ast.Raise]:
    """The ``raise`` statements of a module, in source order."""
    sites = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return sorted(sites, key=lambda node: (node.lineno, node.col_offset))


def replace_with_pass(source: str, site: ast.Raise) -> str:
    """source with the statement ``site`` replaced by ``pass``; its other lines stay blank."""
    lines = source.splitlines(keepends=True)
    first, last = lines[site.lineno - 1], lines[site.end_lineno - 1]
    encoded_first, encoded_last = first.encode(), last.encode()  # ast offsets count bytes
    mutated = (
        encoded_first[: site.col_offset] + b"pass" + encoded_last[site.end_col_offset :]
    ).decode()
    blank = ["\n"] * (site.end_lineno - site.lineno)
    return "".join(lines[: site.lineno - 1] + [mutated] + blank + lines[site.end_lineno :])


def copy_tree(dest: Path) -> None:
    """Copy the working tree, without git metadata, caches and benchmark output, into dest."""
    shutil.copytree(ROOT, dest, ignore=IGNORED, dirs_exist_ok=True)


def run_suite(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """Run pytest under ``-x`` on ``tree`` with ``args``.

    pytest exits 0 when every test passed and 1 when a test failed; any
    other code means the run gave no verdict.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def run_mutant(
    tree: Path, module: str, site: ast.Raise, original: str
) -> subprocess.CompletedProcess:
    """The suite's run with ``site`` of ``module`` replaced by ``pass``; the module is restored.

    The module's own test file and then ``GOLDEN`` run first, and the rest
    of the suite only when they pass; neither run has the unused-import lint.
    """
    path = tree / PACKAGE / module
    own = f"tests/test_{Path(module).stem.lstrip('_')}.py"
    first = [own, GOLDEN] if (tree / own).exists() else [GOLDEN]
    path.write_text(replace_with_pass(original, site))
    try:
        proc = run_suite(tree, *first, UNUSED_IMPORT_LINT)
        if proc.returncode != 0:
            return proc
        return run_suite(tree, "tests", *(f"--ignore={f}" for f in first), UNUSED_IMPORT_LINT)
    finally:
        path.write_text(original)


def main(argv: list[str]) -> int:
    modules = argv or sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    survivors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="uvangle-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        baseline = run_suite(tree, "tests")
        if baseline.returncode != 0:
            print(baseline.stdout[-2000:], baseline.stderr[-2000:], sep="\n")
            print("the unmutated suite does not pass; no mutant can be judged")
            return 2
        for module in modules:
            original = (tree / PACKAGE / module).read_text()
            for site in raise_sites(original):
                where = f"{module}:{site.lineno}"
                try:
                    verdict = {0: "SURVIVED", 1: "killed"}.get(
                        run_mutant(tree, module, site, original).returncode, "no verdict"
                    )
                except subprocess.TimeoutExpired:
                    verdict = "no verdict (timeout)"
                text = ast.get_source_segment(original, site).splitlines()[0]
                print(f"{verdict:20} {where}  {text}", flush=True)
                if verdict == "SURVIVED":
                    survivors.append(where)
    print(f"{len(survivors)} surviving mutants" + "".join(f"\n  {s}" for s in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
