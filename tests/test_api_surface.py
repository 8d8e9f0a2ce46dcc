"""A guard against new settable options in the public API."""

import inspect

import condrisk

# Raising this bound needs a CHANGES.md line naming the two callers that need
# different values of the new option; a value only one caller uses is a constant.
MAX_DEFAULTED_PARAMETERS = 36


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
