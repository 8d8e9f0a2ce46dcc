"""Line tracer for ``src/condrisk``: a pytest plugin on the standard library.

It loads only when asked, outside tier-1:

    PYTHONPATH=src:tests python -m pytest -q -p line_trace tests perfbench/tests

It traces every thread from its import on (so conftest imports and the
helper threads of ``riskcore._map_chunks`` count) and, when the session
ends, writes COVERAGE_45.json at the repository root: for each module of
``src/condrisk``, the statements of function bodies (found with ``ast``,
docstrings left out) that never ran, by line, and their total.  Runtime
gates may fail under the tracer; the report does not depend on them.
"""

import ast
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "condrisk").glob("*.py"))
# read now, before the package is imported, so an edit during the run cannot shift the lines
_TEXTS = {path: path.read_text() for path in SOURCES}
REPORT = ROOT / "COVERAGE_45.json"
_ran = {str(path): set() for path in SOURCES}
_files = {}  # co_filename -> its set in _ran, or None outside src/condrisk


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        _files[name] = _ran.get(os.path.abspath(name))
    lines = _files[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local(frame, event, arg)


def _body_statements(tree: ast.AST):
    """Each statement inside a function but docstrings and declarations, and
    its own lines: from its first decorator or itself up to its first nested
    statement, or to its end without one."""
    fns = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    skip = {id(fn.body[0]) for fn in fns if ast.get_docstring(fn) is not None}
    for stmt in (s for fn in fns for top in fn.body for s in ast.walk(top) if isinstance(s, ast.stmt)):
        if id(stmt) not in skip and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
            start = (getattr(stmt, "decorator_list", None) or [stmt])[0].lineno
            inner = min((n.lineno for n in ast.iter_child_nodes(stmt) if isinstance(n, ast.stmt)), default=None)
            yield stmt.lineno, range(start, max(start + 1, inner or stmt.end_lineno + 1))


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    files, counted = {}, set()
    for path in SOURCES:
        ran = _ran[str(path)]
        for line, own in _body_statements(ast.parse(_TEXTS[path])):
            counted.add((path.name, line))
            if ran.isdisjoint(own):
                files.setdefault(path.name, set()).add(line)
    files = {name: sorted(lines) for name, lines in sorted(files.items())}
    report = {"statements": len(counted), "unexecuted": sum(map(len, files.values())), "files": files}
    REPORT.write_text(json.dumps(report, indent=1) + "\n")


sys.settrace(_trace)
threading.settrace(_trace)
