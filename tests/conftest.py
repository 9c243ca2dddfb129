import ast
import io
import sys
import tokenize
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


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _line_kinds(source: str) -> tuple[int, int, int, int]:
    """(code, docstring, comment, blank) line counts of one module; they sum to its lines.

    Docstring lines are the ranges of module, class and function docstrings
    (``ast``); comment lines hold only a comment (``tokenize``); blank lines
    hold no token at all.
    """
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= code | docstring
    total = len(source.splitlines())
    return len(code), len(docstring), len(comment), total - len(code | docstring | comment)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Net source size, tracked beside the benchmarks: the total is what
    # `wc -l src/uvangle/*.py` prints; code lines are the count to track, and the
    # `raise` statements are the guards.  Beside them, the children that
    # helpers.run_process started: each costs an interpreter start.
    sources = [p.read_text() for p in SOURCES.glob("*.py")]
    kinds = [_line_kinds(source) for source in sources]
    code, docstring, comment, blank = (sum(k) for k in zip(*kinds))
    total = code + docstring + comment + blank
    raises = sum(isinstance(node, ast.Raise) for s in sources for node in ast.walk(ast.parse(s)))
    terminalreporter.write_line(
        f"source lines (src/uvangle/*.py): {total} ({code} code, {docstring} docstring, "
        f"{comment} comment, {blank} blank), {raises} raise statements"
    )
    helpers = sys.modules.get("helpers")
    children = len(helpers.CHILDREN) if helpers else 0
    terminalreporter.write_line(f"child processes started by helpers.run_process: {children}")
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"  {status}  {name}  {detail}")
