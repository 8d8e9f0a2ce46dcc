"""Shared exception types, and the one rule for an integer argument."""

import operator


class CondriskError(Exception):
    """Base class for all library-specific errors."""


class ParseError(CondriskError):
    """Syntax error in a textual literal or formula, with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _as_int(value, what: str, lo: int, hi) -> int:
    """``value`` as a Python ``int`` in ``lo..hi``: the one integer rule of
    every atom, block, mask, count, seed and item number.

    An ``int`` or anything else ``operator.index`` takes (a numpy integer) is
    taken; a bool, which is an int to Python, is not.  Every refusal is a
    ``ValueError`` naming ``what``.  ``hi`` None marks a count (``lo`` 1) or
    a seed (``lo`` 0), refused in one sentence whatever the fault."""
    try:
        i = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        i = None
    if i is not None and lo <= i and (hi is None or i <= hi):
        return i
    if hi is None:
        raise ValueError(f"{what} must be a {'positive' if lo else 'non-negative'} integer, got {value!r}")
    if i is None:
        raise ValueError(f"{what} must be an int, " + ("not a bool" if isinstance(value, bool) else f"got {value!r}"))
    raise ValueError(f"{what} {i} outside {lo}..{hi}")
