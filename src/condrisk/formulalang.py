"""Bounded first-order formulas over names: parser, printer, evaluators.

Quantifiers are always bounded by a name-valued term and are evaluated in the
dom-relativized form, which agrees with the descent form whenever the bound is
almost-everywhere nonempty and extends it otherwise (see the package docs).
The two-valued evaluation at a single atom is the independent factorization
oracle for the Boolean-valued route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Union

from .boolalg import AlgebraMismatchError, BoolElem
from .bvm import (
    LITERAL_PUNCT,
    Name,
    Token,
    Universe,
    UniverseError,
    atom_position,
    maximum_witness,
    name_to_literal,
    parse_name_tokens,
    scan,
)
from .errors import CondriskError, ParseError

KEYWORDS = {"forall", "exists", "in", "empty", "check", "name", "mix"}
LITERAL_HEADS = {"empty", "check", "name", "mix"}


class FormulaError(CondriskError):
    pass


class UnboundVariableError(ParseError):
    pass


# -- abstract syntax -------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    name: Name


Term = Union[Var, Lit]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class In:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ForallIn:
    var: str
    domain: Term
    body: "Formula"


@dataclass(frozen=True)
class ExistsIn:
    var: str
    domain: Term
    body: "Formula"


Formula = Union[Eq, In, Not, And, Or, Implies, ForallIn, ExistsIn]


# -- tokenizer --------------------------------------------------------------------

_PUNCT = {
    **LITERAL_PUNCT,
    "->": "ARROW",
    "|": "OR",
    "&": "AND",
    "!": "NOT",
    ".": "DOT",
    "=": "EQ",
}


# -- parser -----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[Token], universe: Universe, free_names: Iterable[str]):
        self.tokens = tokens
        self.i = 0
        self.universe = universe
        self.free = set(free_names)
        self.bound: List[str] = []

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.i += 1
        return tok

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "ARROW":
            self.i += 1
            return Implies(left, self.disj())
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek().kind == "OR":
            self.i += 1
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.atom()
        while self.peek().kind == "AND":
            self.i += 1
            node = And(node, self.atom())
        return node

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.i += 1
            return Not(self.atom())
        if tok.kind == "(":
            self.i += 1
            node = self.formula()
            self.take(")")
            return node
        if tok.kind == "IDENT" and tok.text in ("forall", "exists"):
            self.i += 1
            var = self.take("IDENT")
            if var.text in KEYWORDS:
                raise ParseError(f"{var.text!r} is reserved", var.pos)
            kw = self.take("IDENT")
            if kw.text != "in":
                raise ParseError("expected 'in' after the bound variable", kw.pos)
            domain = self.term()
            self.take("DOT")
            self.bound.append(var.text)
            body = self.formula()
            self.bound.pop()
            cls = ForallIn if tok.text == "forall" else ExistsIn
            return cls(var.text, domain, body)
        left = self.term()
        op = self.peek()
        if op.kind == "EQ":
            self.i += 1
            return Eq(left, self.term())
        if op.kind == "IDENT" and op.text == "in":
            self.i += 1
            return In(left, self.term())
        raise ParseError("expected '=' or 'in' after a term", op.pos)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError("expected a term", tok.pos)
        if tok.text in LITERAL_HEADS:
            name, self.i = parse_name_tokens(self.tokens, self.i, self.universe)
            return Lit(name)
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is reserved", tok.pos)
        self.i += 1
        if tok.text not in self.bound and tok.text not in self.free:
            raise UnboundVariableError(f"unbound variable {tok.text!r}", tok.pos)
        return Var(tok.text)


def parse(text: str, universe: Universe, free_names: Iterable[str] = ()) -> Formula:
    """Parse a formula; identifiers must be quantifier-bound or in free_names."""
    parser = _Parser(scan(text, _PUNCT, universe._literal_memo), universe, free_names)
    node = parser.formula()
    parser.take("EOF")
    return node


def print_formula(f: Formula) -> str:
    """Fully parenthesized canonical text; parse(print(f)) rebuilds f."""

    def term(t: Term) -> str:
        return t.name if isinstance(t, Var) else name_to_literal(t.name)

    def rec(node: Formula, top: bool = False) -> str:
        if isinstance(node, Eq):
            s = f"{term(node.left)} = {term(node.right)}"
        elif isinstance(node, In):
            s = f"{term(node.left)} in {term(node.right)}"
        elif isinstance(node, Not):
            return f"!({rec(node.body, True)})"
        elif isinstance(node, And):
            s = f"{rec(node.left)} & {rec(node.right)}"
        elif isinstance(node, Or):
            s = f"{rec(node.left)} | {rec(node.right)}"
        elif isinstance(node, Implies):
            s = f"{rec(node.left)} -> {rec(node.right)}"
        elif isinstance(node, (ForallIn, ExistsIn)):
            kw = "forall" if isinstance(node, ForallIn) else "exists"
            s = f"{kw} {node.var} in {term(node.domain)} . {rec(node.body, True)}"
        else:
            raise TypeError(f"not a formula node: {node!r}")
        return s if top or isinstance(node, (Eq, In)) else f"({s})"

    return rec(f, True)


def free_variables(f: Formula) -> set:
    return set(_staged(f)[2])


# -- the one syntactic pass ---------------------------------------------------------
# _stage reads a formula once, as closures run(at, env, m) for collapse_eval:
# ``at`` is the atom's 0-based index, ``env`` maps the free variables to
# names and ``m[d]`` holds the member bound at quantifier depth d.  A literal
# reads its name's collapses at ``at``.  None of it reads the truth tables.
# The same pass finds the universes of the literals and the free variables,
# which both evaluators check before they walk.

# the closure of each node type, built from its subformulas' closures, or for
# an atomic formula from its two terms' readers
_NODE = {
    Eq: lambda left, right: lambda at, env, m: left(at, env, m) == right(at, env, m),
    In: lambda left, right: lambda at, env, m: left(at, env, m) in right(at, env, m),
    Not: lambda body: lambda at, env, m: not body(at, env, m),
    And: lambda left, right: lambda at, env, m: left(at, env, m) and right(at, env, m),
    Or: lambda left, right: lambda at, env, m: left(at, env, m) or right(at, env, m),
    Implies: lambda left, right: lambda at, env, m: (not left(at, env, m)) or right(at, env, m),
}


def _read_free(var):
    """A free variable's reader: it looks the name up in ``env`` each time."""

    def read(at, env, m):
        if var not in env:
            raise FormulaError(f"no binding for {var!r}")
        return env[var].collapses[at]

    return read


def _quantifier(forall, domain, d, body):
    # every closure returns a bool, so one member whose body is not ``forall``
    # decides the quantifier
    def run(at, env, m):
        for s in domain(at, env, m):
            m[d] = s
            if body(at, env, m) is not forall:
                return not forall
        return forall

    return run


def _stage(f: Formula) -> tuple:
    """``f`` as closures ``run(at, env, m)``, with the universes of its
    literals, its free variables and its quantifier depth."""
    universes: set = set()
    free: set = set()
    depth = 0

    def term(t: Term, bound: dict):
        if isinstance(t, Lit):
            universes.add(t.name.universe)
            collapses = t.name.collapses
            return lambda at, env, m: collapses[at]
        if t.name in bound:
            slot = bound[t.name]
            return lambda at, env, m: m[slot]
        free.add(t.name)
        return _read_free(t.name)

    def rec(node: Formula, bound: dict, level: int):
        nonlocal depth
        kind = type(node)
        if kind is Eq or kind is In:
            return _NODE[kind](term(node.left, bound), term(node.right, bound))
        if kind is Not:
            return _NODE[Not](rec(node.body, bound, level))
        if kind is ForallIn or kind is ExistsIn:
            # the slot is the nesting level: a binder that shadows another
            # leaves ``bound`` no larger, yet needs a slot of its own
            domain = term(node.domain, bound)
            depth = max(depth, level + 1)
            body = rec(node.body, {**bound, node.var: level}, level + 1)
            return _quantifier(kind is ForallIn, domain, level, body)
        if kind not in _NODE:
            raise TypeError(f"not a formula node: {node!r}")
        return _NODE[kind](rec(node.left, bound, level), rec(node.right, bound, level))

    run = rec(f, {}, 0)
    return run, frozenset(universes), tuple(free), depth


def _staged(f: Formula) -> tuple:
    """``_stage(f)``, run on the first call for a formula object and kept on
    it, in an attribute that nodes neither compare nor print."""
    try:
        return f._staged
    except AttributeError:
        stage = _stage(f)
        object.__setattr__(f, "_staged", stage)
        return stage


def _universe(stage: tuple, env: Mapping[str, Name]) -> Optional[Universe]:
    """The one universe of a staged formula's literals and of the names
    ``env`` binds to its free variables, or None if there is none."""
    _, literals, free, _ = stage
    if not free and len(literals) == 1:
        (universe,) = literals
        return universe
    universes = set(literals)
    for var in free:
        if var in env:
            u = env[var]
            universes.add(u.universe if isinstance(u, Name) else None)
    if len(universes) > 1 or None in universes:
        raise UniverseError("name belongs to a different universe")
    return next(iter(universes), None)


# -- Boolean-valued evaluation -------------------------------------------------------


def evaluate(f: Formula, env: Optional[Mapping[str, Name]] = None) -> BoolElem:
    """Boolean truth value; quantifiers range over dom of the bound's value."""
    env = dict(env or {})
    uni = _universe(_staged(f), env)
    if uni is None:
        raise FormulaError("cannot infer the universe: no name appears in the formula")
    full = uni.algebra.full

    def term(t: Term, scope: Dict[str, Name]) -> Name:
        if isinstance(t, Lit):
            return t.name
        try:
            return scope[t.name]
        except KeyError:
            raise FormulaError(f"no binding for {t.name!r}") from None

    # runs on masks, with the truth values of atomic formulas from the universe
    def rec(node: Formula, scope: Dict[str, Name]) -> int:
        if isinstance(node, Eq):
            return uni.truth_eq(term(node.left, scope), term(node.right, scope)).mask
        if isinstance(node, In):
            return uni.truth_in(term(node.left, scope), term(node.right, scope)).mask
        if isinstance(node, Not):
            return rec(node.body, scope) ^ full
        if isinstance(node, And):
            return rec(node.left, scope) & rec(node.right, scope)
        if isinstance(node, Or):
            return rec(node.left, scope) | rec(node.right, scope)
        if isinstance(node, Implies):
            return (rec(node.left, scope) ^ full) | rec(node.right, scope)
        domain = term(node.domain, scope)
        if isinstance(node, ForallIn):
            acc = full
            for child, mask in domain.masks:
                acc &= (mask ^ full) | rec(node.body, {**scope, node.var: child})
            return acc
        acc = 0
        for child, mask in domain.masks:
            acc |= mask & rec(node.body, {**scope, node.var: child})
        return acc

    return uni.algebra.from_mask(rec(f, env))


# -- two-valued evaluation at one atom -------------------------------------------


class _RefusedAtom:
    """An atom ``atom_position`` refused, in place of its index: reading a
    collapse at it raises that refusal, so the walk raises it where it first
    reads a name, after any unbound variable it reaches before."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error

    def __index__(self):
        raise self.error


def collapse_eval(f: Formula, atom: int, env: Optional[Mapping[str, Name]] = None) -> bool:
    """Two-valued evaluation at one atom, over collapsed hereditary finite sets."""
    stage = _staged(f)
    run, _, _, depth = stage
    env = env or {}
    uni = _universe(stage, env)
    at = None  # with no universe, the walk refuses an unbound variable first
    if uni is not None:
        try:
            at = atom_position(uni.algebra, atom) - 1
        except (ValueError, AlgebraMismatchError) as error:
            at = _RefusedAtom(error)
    return run(at, env, [None] * depth)


def witness(f: Formula, var: str, bound: Name, env: Optional[Mapping[str, Name]] = None) -> Name:
    """Maximum-principle witness for the formula's single free variable."""
    env = dict(env or {})
    free = free_variables(f) - set(env)
    if free != {var}:
        raise FormulaError(
            f"witness needs exactly one free variable {var!r}; found {sorted(free)}"
        )
    return maximum_witness(lambda t: evaluate(f, {**env, var: t}), bound)
