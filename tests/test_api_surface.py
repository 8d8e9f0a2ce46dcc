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
MAX_DEFAULTED_PARAMETERS = 27


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
        names = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
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
    """Each package line that is not an import line, with the names of the
    ``def`` and ``class`` blocks it lies in."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        imports = {
            i
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for i in range(n.lineno, n.end_lineno + 1)
        }
        owners = {}
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                for i in range(n.lineno, n.end_lineno + 1):
                    owners.setdefault(i, set()).add(n.name)
        for i, line in enumerate(text.splitlines(), start=1):
            if i not in imports:
                yield line, owners.get(i, set())


def test_every_exported_name_is_reached():
    """Every name ``condrisk`` exports is referenced in the package outside
    the ``def``/``class`` blocks of that name and the import lines, or in the
    README, the acceptance suite or the benchmark: a name only its own unit
    tests reach has no job, and neither has a wrapper that only calls a
    method of its own name."""
    lines = list(_package_lines())
    outside = "\n".join(
        p.read_text()
        for p in [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    )
    unreached = []
    for name in _exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not (word.search(outside) or any(word.search(line) and name not in own for line, own in lines)):
            unreached.append(name)
    assert unreached == []


def _exported_members():
    """``(class name, member name, function)`` of each public method,
    property and classmethod defined in the body of an exported class."""
    for name in _exported_names():
        cls = getattr(condrisk, name)
        if not inspect.isclass(cls):
            continue
        for attr, member in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(member, property):
                yield name, attr, member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                yield name, attr, member.__func__
            elif inspect.isfunction(member):
                yield name, attr, member


def test_every_public_member_is_reached():
    """Every public method, property and classmethod of an exported class is
    read as ``.name`` in the package outside its own ``def``, or in the
    benchmark, the acceptance suite or the reference helpers, or the README
    names it in backticks: a member only its own unit tests reach has no job.
    The match is by name, so a member that shares its name with one of
    another type (``list.extend``) passes unseen."""
    package = {path.name: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
    outside = "\n".join(
        p.read_text()
        for p in [
            *sorted((ROOT / "perfbench").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py",
            ROOT / "tests" / "_helpers.py",
        ]
    )
    spans = re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())
    unreached = []
    for owner, attr, fn in _exported_members():
        source, start = inspect.getsourcelines(fn)
        own = (Path(inspect.getsourcefile(fn)).name, range(start, start + len(source)))
        dot = re.compile(rf"\.{re.escape(attr)}\b")
        in_package = any(
            dot.search(line)
            for module, lines in package.items()
            for i, line in enumerate(lines, start=1)
            if not (module == own[0] and i in own[1])
        )
        named = any(re.search(rf"\b{re.escape(attr)}\b", span) for span in spans)
        if not (in_package or named or dot.search(outside)):
            unreached.append(f"{owner}.{attr}")
    assert unreached == []


def test_every_private_helper_is_called():
    """Every module-level private function or class of the package is read
    in the package outside its own definition, as a name or as an attribute:
    a helper that a deletion left without a caller fails here."""
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_"):
                defined[own] = path.name
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own:
                    read.add(n.id)
                elif isinstance(n, ast.Attribute) and n.attr != own:
                    read.add(n.attr)
    assert {name: module for name, module in defined.items() if name not in read} == {}


def test_one_memo_rule():
    """A table filled on a miss is a ``boolalg._Memo``: ``MEMO_CAP`` is the
    one memo cap, and the memo type is the one code that clears a table, so
    a cap and a clear written by hand elsewhere fail here."""
    caps, clears = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                caps += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("MEMO_CAP")]
            if not (path.name == "boolalg.py" and isinstance(top, ast.ClassDef) and top.name == "_Memo"):
                clears += [
                    f"{path.name}:{n.lineno}"
                    for n in ast.walk(top)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "clear"
                ]
    assert (caps, clears) == (["MEMO_CAP"], [])


def _integer_checks(tree):
    """Lines of ``tree`` that read an integer by hand: ``isinstance`` or
    ``issubclass`` against ``bool``, a comparison with ``bool``, ``np.bool_``,
    ``np.integer`` and its kinds, ``operator.index`` and ``__index__``."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("isinstance", "issubclass"):
            against = n.args[1:]
        elif isinstance(n, ast.Compare):
            against = n.comparators
        elif isinstance(n, ast.Attribute):
            numpy_kind = isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")
            if (
                numpy_kind and n.attr in ("bool_", "integer", "signedinteger", "unsignedinteger")
                or isinstance(n.value, ast.Name) and n.value.id == "operator" and n.attr == "index"
                or n.attr == "__index__" and isinstance(n.ctx, ast.Load)
            ):
                found.append(n.lineno)
            continue
        else:
            continue
        if any(isinstance(a, ast.Name) and a.id == "bool" for arg in against for a in ast.walk(arg)):
            found.append(n.lineno)
    return found


def _functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef))


# where an integer may be read by hand: the rule itself, and the space's bulk
# read of its blocks (one ``operator.index`` pass over every atom, in C) with
# the scan that words its refusal
INTEGER_RULE_HOMES = ("errors._as_int", "probspace.FiniteProbSpace.__init__", "probspace._partition_error")


def test_one_integer_rule():
    """Every atom, block, mask, count, seed and item number is read by
    ``errors._as_int``: a bool, numpy-integer or ``operator.index`` check
    written by hand anywhere but its homes fails here, and the checks it
    replaced stay gone."""
    found, homes, defined = [], {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.stem, line) for line in _integer_checks(tree)]
        for name, f in _functions(tree):
            defined.add(name)
            if f"{path.stem}.{name}" in INTEGER_RULE_HOMES:
                homes[f"{path.stem}.{name}"] = [(path.stem, line) for line in _integer_checks(f)]
    assert sorted(homes) == sorted(INTEGER_RULE_HOMES) and all(homes.values())
    assert sorted(found) == sorted(line for lines in homes.values() for line in lines)
    assert defined.isdisjoint({"_int_error", "_check_seed", "_check_count"})
    bvm = ast.parse((PACKAGE / "bvm.py").read_text())
    assert all(n.module != "riskcore" for n in ast.walk(bvm) if isinstance(n, ast.ImportFrom))


def _gathers_by_order(tree):
    """Lines of ``v.take(<x>.order, ...)`` and of reads ``v[<x>.order]`` (an
    index tuple that holds ``<x>.order`` included) in ``tree``."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "take" and n.args:
            index = n.args[0]
        elif isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load):
            index = n.slice
        else:
            continue
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        if any(isinstance(a, ast.Attribute) and a.attr == "order" for a in parts):
            found.append(n.lineno)
    return found


def test_one_gather_rule():
    """A gather into a space's block order is ``FiniteProbSpace._in_order``,
    which keeps a value's copy: a ``.take`` or an index read by a space's
    ``order`` anywhere else in the package fails here, so a gather written
    by hand cannot bypass the copy."""
    found, own = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if path.name == "probspace.py" and isinstance(top, ast.ClassDef) and top.name == "FiniteProbSpace":
                gather = next(f for f in top.body if isinstance(f, ast.FunctionDef) and f.name == "_in_order")
                own = _gathers_by_order(gather)
        found += [(path.name, line) for line in _gathers_by_order(tree)]
    assert own and found == [("probspace.py", line) for line in own]


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


@pytest.mark.parametrize(
    "message",
    [
        "random variable entries must be finite",
        "conditional value entries must not be NaN",
        "dual variable entries must be finite",
        "dual variable entries must be <= 0",
        "produced a non-finite risk value",
    ],
)
def test_each_value_rule_is_written_once(message):
    """A value rule lives with its type (or its one helper), and a row
    check calls it rather than restating it, so the two cannot drift."""
    found = {p.name: p.read_text().count(message) for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(found.values()) == 1, {name: n for name, n in found.items() if n}


# names that Python 3.11 added to the standard library, by module (None: a
# builtin), which the declared floor of 3.10 lacks
NEWER_NAMES = {
    ("tomllib", None),
    ("typing", "Self"),
    ("enum", "StrEnum"),
    (None, "ExceptionGroup"),
    (None, "BaseExceptionGroup"),
    ("datetime", "UTC"),
}


def _newer_names(tree):
    """``(line, module, name)`` of each read of a name in ``NEWER_NAMES``:
    an import of it or of its module, an attribute of its module, or a
    builtin by its bare name."""
    modules = {module for module, name in NEWER_NAMES if name is None and module}
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found += [(n.lineno, a.name, None) for a in n.names if a.name in modules]
        elif isinstance(n, ast.ImportFrom):
            if n.module in modules:
                found.append((n.lineno, n.module, None))
            found += [(n.lineno, n.module, a.name) for a in n.names if (n.module, a.name) in NEWER_NAMES]
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            if (n.value.id, n.attr) in NEWER_NAMES:
                found.append((n.lineno, n.value.id, n.attr))
        elif isinstance(n, ast.Name) and (None, n.id) in NEWER_NAMES:
            found.append((n.lineno, None, n.id))
    return found


def test_the_sources_need_no_newer_python_than_declared():
    """Every package file parses under the grammar of the Python floor that
    ``pyproject.toml`` declares, and reads none of the names 3.11 added."""
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    floor = tuple(map(int, declared.groups()))
    assert floor == (3, 10)  # NEWER_NAMES is what the next version added
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path), feature_version=floor)
        found[path.name] = _newer_names(tree)
    assert {name: reads for name, reads in found.items() if reads} == {}
    # each kind of read is found
    probe = "import tomllib\nfrom typing import Self\nimport enum\nenum.StrEnum\nExceptionGroup\n"
    assert len(_newer_names(ast.parse(probe))) == 4
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_one_equal_mass_rule():
    """Two conditional masses are equal when they agree to 12 decimals, and
    ``probspace._mass_key`` is where that is written: a rounding anywhere
    else in the package fails here, so the law trials' groups and
    ``same_conditional_law`` cannot drift apart."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, f in _functions(ast.parse(path.read_text())):
            found += [
                (path.stem, name)
                for n in ast.walk(f)
                if isinstance(n, ast.Call)
                and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) in ("round", "around")
            ]
    assert found == [("probspace", "_mass_key")]


# the layers under the name engine, which read truth values without it
MODEL_FREE = ("probspace", "riskcore", "duality", "transfer", "modelspaces")
INTERPRETATION_MAPS = ("real_eq_truth", "real_le_truth", "l1_eq_truth", "l1_le_truth", "mix_reals", "seq_index")


def test_the_truth_maps_live_beside_the_values_they_read():
    """The interpretation maps act on ``ConditionalValue``s and payoffs, not
    on names, so they live in ``probspace`` and the layers under the name
    engine import nothing from ``bvm`` or ``formulalang``."""
    imports = {}
    for stem in MODEL_FREE:
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        # ``from .bvm import x`` and ``from . import bvm`` alike
        modules = {m for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for m in [n.module, *(a.name for a in n.names)]}
        imports[stem] = sorted(modules & {"bvm", "formulalang"})
    assert {stem: found for stem, found in imports.items() if found} == {}
    defined = {
        stem: {top.name for top in ast.parse((PACKAGE / f"{stem}.py").read_text()).body if isinstance(top, ast.FunctionDef)}
        for stem in ("bvm", "probspace")
    }
    assert defined["bvm"].isdisjoint(INTERPRETATION_MAPS)
    assert defined["probspace"].issuperset(INTERPRETATION_MAPS)
