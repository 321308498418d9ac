"""List the statements of archdim's functions that a pytest run never
executes: a pytest plugin, loaded from ``tools``.

    PYTHONPATH=src:tools python -m pytest -p unreached [PYTEST ARGS ...]

From before pytest loads the first conftest, the plugin line-traces every
frame of the ``archdim`` package, in every thread (``sys.settrace`` and
``threading.settrace``; no coverage package is needed).  At the end of the
session it prints one ``path:line [function] statement`` line per
statement of a function body that never ran, in file and line order, with
the statement's first source line.  A statement ran when any line it spans
ran, so a compound statement whose body ran counts as run.  Docstrings and
``nonlocal`` and ``global`` declarations, which execute nothing, are not
listed.  The tracer's own allocations show in ``tracemalloc``, so a test
that counts what a call allocates may fail under it
(``test_a_bound_sweep_allocates_only_when_it_binds`` does).
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from collections.abc import Iterator
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("archdim").origin).resolve().parent

# the lines run, by code file name, and whether a file name is archdim's
_ran: dict[str, set[int]] = {}
_ours: dict[str, bool] = {}


def _trace(frame, event, arg):
    """The global trace function: a line tracer for archdim's frames."""
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
    if not ours:
        return None
    lines = _ran.setdefault(name, set())

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


def _statements(body: list[ast.stmt],
                name: str) -> Iterator[tuple[str, ast.stmt]]:
    """(function, statement) for every statement of the function ``name``
    whose body is ``body``, nested blocks included, and for those of the
    functions it defines, under their own names."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(stmt, ast.ClassDef):
            yield from _functions(stmt, f"{name}.{stmt.name}")
            continue
        yield name, stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _functions(stmt, f"{name}.{stmt.name}")
            continue
        blocks = [getattr(stmt, field, [])
                  for field in ("body", "orelse", "finalbody")]
        blocks += [part.body for part in getattr(stmt, "handlers", [])
                   + getattr(stmt, "cases", [])]
        for block in blocks:
            yield from _statements(block, name)


def _functions(node: ast.AST, name: str) -> Iterator[tuple[str, ast.stmt]]:
    """(function, statement) for the function bodies in ``node``, a
    module, class or function named ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]  # the docstring
        yield from _statements(body, name)
        return
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = stmt.name if not name else f"{name}.{stmt.name}"
            yield from _functions(stmt, inner)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str, str]]:
    """(line, function, first source line) of each statement of a function
    body in the module at ``path`` none of whose lines is in ``ran``."""
    source = path.read_text()
    text = source.splitlines()
    found = []
    for name, stmt in _functions(ast.parse(source), ""):
        if ran.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1)):
            found.append((stmt.lineno, name, text[stmt.lineno - 1].strip()))
    return sorted(found)


def report() -> list[str]:
    """The plugin's lines for what has been traced so far."""
    ran: dict[Path, set[int]] = {}
    for name, lines in _ran.items():
        ran.setdefault(Path(name).resolve(), set()).update(lines)
    try:
        shown = PACKAGE.relative_to(Path.cwd())
    except ValueError:
        shown = PACKAGE
    return [f"{shown / path.relative_to(PACKAGE)}:{line} [{name}] {stmt}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, name, stmt in unreached(path, ran.get(path, set()))]


def pytest_load_initial_conftests() -> None:
    # before any conftest or test module imports archdim
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    threading.settrace(None)
    lines = report()
    terminalreporter.section(f"archdim statements never run: {len(lines)}")
    for line in lines:
        terminalreporter.write_line(line)
