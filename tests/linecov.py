"""An opt-in line trace of src/: the lines of the package that a test run
never executes. No coverage package is a dependency, so this pytest plugin
traces with sys.settrace:

    PYTHONPATH=src:tests python -m pytest -p linecov

Tracing starts when pytest configures the plugin, before any test imports
the package, and the lines never run are printed at the end of the session,
one file to a line. A line counts when its code objects' line table
(`co_lines`) names it, so a `nonlocal` declaration, which compiles to
nothing, never shows. The trace sees this process only: what a test runs in
a subprocess (the demos, the scipy-free CLI run) reads as never run, and so
does the CLI's `__main__` call. A traced run takes about twice as long.
"""

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def code_lines(code: CodeType) -> set:
    """The lines in the line tables of a code object and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


class LineTrace:
    def __init__(self) -> None:
        self.run = {str(path): set() for path in sorted(SRC.rglob("*.py"))}
        self._lines_of = {}  # co_filename -> its set in self.run, or None outside src/

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._lines_of.get(name, False)
        if lines is False:
            lines = self._lines_of[name] = self.run.get(os.path.realpath(name))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def never_run(self):
        """(path relative to the repo, sorted lines never run) per file that has any."""
        for path, lines in self.run.items():
            source = Path(path).read_text()
            missed = sorted(code_lines(compile(source, path, "exec")) - lines)
            if missed:
                yield Path(path).relative_to(ROOT), missed


_trace = LineTrace()


def pytest_configure(config):
    sys.settrace(_trace.trace)
    threading.settrace(_trace.trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = list(_trace.never_run())
    count = sum(len(lines) for _, lines in missed)
    terminalreporter.write_sep("-", f"linecov: {count} lines of src/ never run")
    for path, lines in missed:
        terminalreporter.write_line(f"{path}: {' '.join(map(str, lines))}")
