"""A guard against new settable options in the public API."""

import dataclasses
import inspect

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
