"""Guards on the public API: no new settable options, no exported name
without a job."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import condrisk

# Raising this bound needs a CHANGES.md line naming the two callers that need
# different values of the new option; a value only one caller uses is a constant.
MAX_DEFAULTED_PARAMETERS = 31


def _public_callables():
    for name in sorted(dir(condrisk)):
        obj = getattr(condrisk, name)
        if name.startswith("_") or not callable(obj):
            continue
        if not getattr(obj, "__module__", "").startswith("condrisk"):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _defaulted(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # exception classes keep the built-in constructor, which has none
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def test_public_api_adds_no_option():
    """Counts the parameters that have a default value.

    The counting rule: every public name that ``condrisk`` exports and that is
    a function or class defined in the package counts the parameters with a
    default in its signature (a class: its constructor).  A class also counts
    those of each public function defined in its own body.  Dataclass fields
    declared with ``init=False`` are not in a signature, so they do not count.
    """
    found = {name: _defaulted(obj) for name, obj in _public_callables()}
    total = sum(len(v) for v in found.values())
    listing = {name: v for name, v in found.items() if v}
    assert total <= MAX_DEFAULTED_PARAMETERS, listing


def _immutable_values():
    """One value of each type whose attributes must not be assignable."""
    algebra = condrisk.BooleanAlgebra(2)
    space = condrisk.FiniteProbSpace([0.5, 0.5], [[1], [2]])
    return [
        space,
        condrisk.RandomVariable([1.0, 2.0]),
        condrisk.ConditionalValue([1.0, 2.0]),
        condrisk.DualVariable([-1.0, -1.0]),
        algebra.atom(1),
        condrisk.PartitionOfUnity([algebra.atom(1), algebra.atom(2)]),
        condrisk.ModuleSpec.lp(2.0),
        condrisk.neg_cond_expectation(space),
    ]


@pytest.mark.parametrize("value", _immutable_values(), ids=lambda v: type(v).__name__)
def test_values_refuse_attribute_assignment(value):
    """Every attribute, and a new one, is refused: a value that can be
    changed in place can drift from what was checked when it was built."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
    elif hasattr(type(value), "__slots__"):
        names = list(type(value).__slots__)
    else:
        names = list(vars(value))
    for name in names + ["not_an_attribute"]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, None))


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "condrisk"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]


def _package_lines():
    """Each package line that is not an import line, with the name it
    defines when it is a ``def`` or ``class`` line."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        imports = {
            i
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for i in range(n.lineno, n.end_lineno + 1)
        }
        defines = {
            n.lineno: n.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        }
        for i, line in enumerate(text.splitlines(), start=1):
            if i not in imports:
                yield line, defines.get(i)


def test_every_exported_name_is_reached():
    """Every name ``condrisk`` exports is referenced in the package outside
    its own ``def``/``class`` line and the import lines, or in the README,
    the acceptance suite or the benchmark: a name only its own unit tests
    reach has no job."""
    lines = list(_package_lines())
    outside = "\n".join(
        p.read_text()
        for p in [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    )
    unreached = []
    for name in _exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not (word.search(outside) or any(word.search(line) and own != name for line, own in lines)):
            unreached.append(name)
    assert unreached == []


def _unread_imports(path):
    """Names a module imports (``__future__`` features aside) that it never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        (a.asname or a.name).split(".")[0]
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__"
        for a in n.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    """A module of the package reads every name it imports; ``__init__``
    imports to export, which the test above checks."""
    found = {p.name: _unread_imports(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert {name: unread for name, unread in found.items() if unread} == {}
