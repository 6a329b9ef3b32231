"""A pytest plugin that lists the function-body lines of ``src/ocametrics`` the
suite never runs:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

It traces with ``sys.settrace`` and ``threading.settrace`` from before the
first conftest loads, and after the run prints one ``path:line: source``
line per executable line of a function, method or lambda that no test
reached.  Only the pytest process is traced: a CLI child that a test starts
as a subprocess runs untraced, so what only such a child runs is listed.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ocametrics"

_hit: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg, prefix=str(SOURCE)):
    return _local if frame.f_code.co_filename.startswith(prefix) else None


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code`` but its ``def`` line, and of every code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _function_lines(code: types.CodeType) -> set[int]:
    """The lines of the functions defined in a module's or a class body's ``code``."""
    lines = set()
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        # a class body runs at import; only its methods are function bodies
        is_class = {"__module__", "__qualname__"} <= set(const.co_names)
        lines |= _function_lines(const) if is_class else _code_lines(const)
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    hit = {(str(Path(name).resolve()), line) for name, line in _hit}
    missed = []
    for path in sorted(SOURCE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_function_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in hit:
                missed.append(f"{path.relative_to(SOURCE.parent.parent)}:{line}: "
                              f"{text[line - 1].strip()}")
    terminalreporter.write_sep("-", f"{len(missed)} function-body lines never run")
    for entry in missed:
        terminalreporter.write_line(entry)
