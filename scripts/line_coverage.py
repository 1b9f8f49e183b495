#!/usr/bin/env python3
"""List the statements of src/orlnorm that a pytest run never executes.

Runs pytest in this process under sys.settrace, with the standard library
only, then prints each statement of the package that never ran as
`path:line: source`, one count per file and the total:

    python3 scripts/line_coverage.py                  # the whole suite
    python3 scripts/line_coverage.py tests/test_spaces.py -x

The package is imported from src/, which the script puts first on
sys.path.  The arguments go to pytest unchanged; the exit code is pytest's.
When pytest stops on collection errors, or collects or runs no test, there
is nothing to report: the script prints no report and exits with that
code.  A
statement ran when a line event fired on a line of its header: all lines
of a simple statement; those of a compound statement up to its body,
decorators included; and for a `try`, also its first body statement.
Docstrings and `global`/`nonlocal` declarations run no code and are not
counted.  Code run in a child process (the CLI tests that start
`python -m orlnorm`) is not seen.  Tracing makes the suite several times
slower.
"""
import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orlnorm"
_NO_RUN = (pytest.ExitCode.INTERRUPTED, pytest.ExitCode.INTERNAL_ERROR,
           pytest.ExitCode.USAGE_ERROR, pytest.ExitCode.NO_TESTS_COLLECTED)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements of the module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first))
    return out


def _header(node: ast.stmt) -> set[int]:
    """The lines on which a line event means that `node` ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if not body:
        return set(range(first, node.end_lineno + 1))
    lines = set(range(first, max(node.lineno, body[0].lineno - 1) + 1))
    if isinstance(node, ast.Try):
        lines |= _header(body[0])
    return lines


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(line, header lines) of every statement in the file that runs code."""
    tree = ast.parse(path.read_text(), str(path))
    skip = _docstrings(tree)
    return sorted(((node.lineno, _header(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and id(node) not in skip
                   and not isinstance(node, (ast.Global, ast.Nonlocal))),
                  key=lambda stmt: stmt[0])


def traced_pytest(args: list[str], files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args` under a line tracer; (exit code, lines run per file)."""
    ran: dict[str, set[int]] = {f: set() for f in files}

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    recorders = {f: recorder(lines) for f, lines in ran.items()}
    by_code_name: dict[str, object] = {}  # co_filename -> its file's recorder, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_name:
            by_code_name[name] = recorders.get(os.path.realpath(name))
        return by_code_name[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    paths = {os.path.realpath(p): p for p in sorted(PACKAGE.glob("*.py"))}
    code, ran = traced_pytest(sys.argv[1:], set(paths))
    if code in _NO_RUN:
        print(f"line_coverage: pytest exited with {code} before running the suite; no report",
              file=sys.stderr)
        return code
    total = unrun_total = 0
    counts = []
    for real, path in paths.items():
        rel = path.relative_to(PACKAGE.parent.parent)
        source = path.read_text().splitlines()
        stmts = statements(path)
        unrun = [line for line, header in stmts if not header & ran[real]]
        for line in unrun:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        counts.append(f"{rel}: {len(unrun)} of {len(stmts)} statements unrun")
        total += len(stmts)
        unrun_total += len(unrun)
    print("\n".join(counts))
    print(f"total: {unrun_total} of {total} statements unrun")
    return code


if __name__ == "__main__":
    sys.exit(main())
