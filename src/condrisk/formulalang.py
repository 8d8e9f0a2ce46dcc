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
    atom_collapse,
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
    out: set = set()

    def term(t: Term, bound: frozenset):
        if isinstance(t, Var) and t.name not in bound:
            out.add(t.name)

    def rec(node: Formula, bound: frozenset):
        if isinstance(node, (Eq, In)):
            term(node.left, bound)
            term(node.right, bound)
        elif isinstance(node, Not):
            rec(node.body, bound)
        elif isinstance(node, (And, Or, Implies)):
            rec(node.left, bound)
            rec(node.right, bound)
        else:
            term(node.domain, bound)
            rec(node.body, bound | {node.var})

    rec(f, frozenset())
    return out


# -- Boolean-valued evaluation -------------------------------------------------------


def _find_universe(f: Formula, env: Mapping[str, Name]) -> Universe:
    for name in env.values():
        return name.universe

    def scan(node):
        if isinstance(node, (Eq, In)):
            for t in (node.left, node.right):
                if isinstance(t, Lit):
                    return t.name.universe
            return None
        if isinstance(node, Not):
            return scan(node.body)
        if isinstance(node, (And, Or, Implies)):
            return scan(node.left) or scan(node.right)
        if isinstance(node.domain, Lit):
            return node.domain.name.universe
        return scan(node.body)

    uni = scan(f)
    if uni is None:
        raise FormulaError("cannot infer the universe: no name appears in the formula")
    return uni


def evaluate(f: Formula, env: Optional[Mapping[str, Name]] = None) -> BoolElem:
    """Boolean truth value; quantifiers range over dom of the bound's value."""
    env = dict(env or {})
    uni = _find_universe(f, env)
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
        if domain.universe is not uni:
            raise UniverseError("name belongs to a different universe")
        if isinstance(node, ForallIn):
            acc = full
            for child, mask in domain.masks:
                acc &= (mask ^ full) | rec(node.body, {**scope, node.var: child})
            return acc
        acc = 0
        for child, mask in domain.masks:
            acc |= mask & rec(node.body, {**scope, node.var: child})
        return acc

    return uni.algebra.from_mask(rec(f, dict(env)))


# -- two-valued evaluation at one atom -------------------------------------------
# collapse_eval stages a formula once as closures run(at, env, m): ``at`` is
# the atom's 0-based index, ``env`` maps the free variables to names and
# ``m[d]`` holds the member bound at quantifier depth d.  A literal reads its
# name's collapses at ``at``.  None of it reads the truth tables.

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

def _reader(kind, x):
    """The closure that reads a staged term."""
    if kind == "lit":
        return lambda at, env, m: x[at]
    if kind == "bound":
        return lambda at, env, m: m[x]
    return x


def _read_by_collapse(name):
    return lambda at, env, m: atom_collapse(name, at)


def _read_free(var, by_collapse):
    """A free variable's reader: it looks the name up in ``env`` each time."""

    def read(at, env, m):
        if var not in env:
            raise FormulaError(f"no binding for {var!r}")
        return atom_collapse(env[var], at) if by_collapse else env[var].collapses[at]

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


def _stage(f: Formula, by_collapse: bool = False) -> tuple:
    """``f`` as closures ``run(at, env, m)``, with the algebra of its
    literals (None if it has none, False if they have several), its free
    variables and its quantifier depth.

    With ``by_collapse``, ``at`` is the atom itself, and each literal and
    free variable reads it through ``atom_collapse`` when the walk gets there.
    """
    algebras: set = set()
    free: set = set()
    depth = 0

    def term(t: Term, bound: dict) -> tuple:
        if isinstance(t, Lit):
            algebras.add(t.name.universe.algebra)
            if by_collapse:
                return "read", _read_by_collapse(t.name)
            return "lit", t.name.collapses
        if t.name in bound:
            return "bound", bound[t.name]
        free.add(t.name)
        return "read", _read_free(t.name, by_collapse)

    def rec(node: Formula, bound: dict, level: int):
        nonlocal depth
        kind = type(node)
        if kind is Eq or kind is In:
            return _NODE[kind](_reader(*term(node.left, bound)), _reader(*term(node.right, bound)))
        if kind is Not:
            return _NODE[Not](rec(node.body, bound, level))
        if kind is ForallIn or kind is ExistsIn:
            # the slot is the nesting level: a binder that shadows another
            # leaves ``bound`` no larger, yet needs a slot of its own
            domain = _reader(*term(node.domain, bound))
            depth = max(depth, level + 1)
            body = rec(node.body, {**bound, node.var: level}, level + 1)
            return _quantifier(kind is ForallIn, domain, level, body)
        return _NODE[kind](rec(node.left, bound, level), rec(node.right, bound, level))

    run = rec(f, {}, 0)
    algebra = False if len(algebras) > 1 else algebras.pop() if algebras else None
    return run, algebra, tuple(free), depth


def _one_algebra(algebra, free, env):
    """The one algebra of every name the walk may reach, the literals' and
    the bound free variables', or None."""
    for var in free:
        if var in env:
            u = env[var]
            if not isinstance(u, Name) or algebra is not None and u.universe.algebra is not algebra:
                return None
            algebra = u.universe.algebra
    return algebra or None


def collapse_eval(f: Formula, atom: int, env: Optional[Mapping[str, Name]] = None) -> bool:
    """Two-valued evaluation at one atom, over collapsed hereditary finite sets.

    The first call on a formula object stages it and keeps the closures on
    it, in an attribute that nodes neither compare nor print.
    """
    try:
        stage = f._collapse_stage
    except AttributeError:
        stage = _stage(f)
        object.__setattr__(f, "_collapse_stage", stage)
    run, algebra, free, depth = stage
    env = env or {}
    algebra = _one_algebra(algebra, free, env)
    at = None
    if algebra is not None:
        try:
            at = atom_position(algebra, atom) - 1
        except (TypeError, ValueError, AlgebraMismatchError):
            pass
    if at is None:
        # some name the walk may reach reads the atom otherwise or refuses
        # it: each reads it through atom_collapse, when the walk gets there
        run, at = _stage(f, by_collapse=True)[0], atom
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
