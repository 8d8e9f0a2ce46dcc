import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_formula, random_name
from condrisk import (
    BooleanAlgebra,
    PartitionOfUnity,
    Universe,
    collapse_eval,
    evaluate,
    free_variables,
    parse,
    print_formula,
    witness,
)
from condrisk import bvm
from condrisk.bvm import LITERAL_MEMO_CAP, name_to_literal, parse_name_literal, scan
from condrisk.errors import CondriskError, ParseError
from condrisk.formulalang import (
    _PUNCT,
    And,
    Eq,
    ForallIn,
    FormulaError,
    Lit,
    Not,
    Or,
    UnboundVariableError,
    Var,
)


def test_parse_examples(u2):
    f = parse("empty = empty", u2)
    assert isinstance(f, Eq) and isinstance(f.left, Lit)
    assert f.left.name is u2.empty

    f = parse("forall x in u . x = empty", u2, free_names={"u"})
    assert isinstance(f, ForallIn) and f.var == "x"
    assert f.body == Eq(Var("x"), Lit(u2.empty))

    with pytest.raises(UnboundVariableError):
        parse("x = empty", u2)


def test_parse_errors_carry_position(u2):
    with pytest.raises(ParseError) as err:
        parse("empty = ", u2)
    assert err.value.pos == 8
    with pytest.raises(ParseError):
        parse("forall in u . x = empty", u2, free_names={"u"})
    with pytest.raises(ParseError):
        parse("empty empty", u2)
    with pytest.raises(ParseError):
        parse("(empty = empty", u2)


def test_evaluate_examples(u2, a2):
    assert evaluate(parse("empty = empty", u2)) == a2.one
    u = u2.make_name({u2.empty: a2.atom(1)})
    env = {"u": u}
    f = parse("forall x in u . x = empty", u2, free_names=env)
    assert evaluate(f, env) == a2.one
    f = parse("exists x in u . x = empty", u2, free_names=env)
    assert evaluate(f, env) == a2.atom(1)


def test_connective_identities(u2, a2):
    rng = np.random.default_rng(40)
    for _ in range(40):
        f = random_formula(u2, rng, 2)
        g = random_formula(u2, rng, 1)
        vf, vg = evaluate(f), evaluate(g)
        assert evaluate(Not(Not(f))) == vf
        from condrisk.formulalang import Implies

        assert evaluate(Implies(f, g)) == evaluate(Or(Not(f), g))
        assert evaluate(And(f, g)) == (vf & vg)


def test_factorization_property(u2, a2):
    rng = np.random.default_rng(41)
    for _ in range(60):
        f = random_formula(u2, rng, 2)
        truth = evaluate(f)
        for atom in (1, 2):
            assert (atom in truth.atoms) == collapse_eval(f, atom)


def test_factorization_three_atoms():
    uni = Universe(BooleanAlgebra(3))
    rng = np.random.default_rng(42)
    for _ in range(40):
        f = random_formula(uni, rng, 2)
        truth = evaluate(f)
        for atom in (1, 2, 3):
            assert (atom in truth.atoms) == collapse_eval(f, atom)


def test_equivalent_literal_substitution(u2, a2):
    # hash-consing makes equivalent literal spellings the same name object
    rng = np.random.default_rng(43)
    single = u2.canonical_name([[]])
    via_mix = u2.mix(PartitionOfUnity([a2.atom(1), a2.atom(2)]), [single, single])
    assert via_mix is single
    f1 = parse("check({{}}) in u", u2, free_names={"u"})
    f2 = parse("mix[{1}: check({{}}); {2}: check({{}})] in u", u2, free_names={"u"})
    assert f1 == f2
    for _ in range(10):
        env = {"u": random_name(u2, rng, 2)}
        assert evaluate(f1, env) == evaluate(f2, env)


def test_print_parse_roundtrip(u2):
    rng = np.random.default_rng(44)
    corpus = [random_formula(u2, rng, 2) for _ in range(20)]
    corpus += [
        parse("empty = empty", u2),
        parse("forall x in u . x = empty", u2, free_names={"u"}),
        parse("exists x in u . (x = empty | x in u)", u2, free_names={"u"}),
        parse("!(empty in empty) -> empty = empty", u2),
    ]
    for f in corpus:
        text = print_formula(f)
        again = parse(text, u2, free_names=free_variables(f))
        assert again == f, text


def test_quantifier_body_extends_right(u2, a2):
    env = {"u": u2.make_name({u2.empty: a2.atom(1)})}
    f = parse("forall x in u . x = empty & empty in u", u2, free_names=env)
    # the body is the whole conjunction, which pins [[empty in u]] = {1}
    assert isinstance(f, ForallIn) and isinstance(f.body, And)
    assert evaluate(f, env) == a2.atom(1).complement() | a2.atom(1)


def test_witness_via_formula(u2, a2):
    env = {"v": u2.make_name({u2.empty: a2.atom(1), u2.canonical_name([[]]): a2.atom(2)})}
    phi = parse("x = empty", u2, free_names={"x"})
    wit = witness(phi, "x", env["v"], {})
    assert evaluate(phi, {"x": wit}) == a2.atom(1)
    with pytest.raises(FormulaError):
        witness(parse("x = y", u2, free_names={"x", "y"}), "x", env["v"], {})
    with pytest.raises(FormulaError):
        witness(parse("empty = empty", u2), "x", env["v"], {})


def test_free_variables(u2):
    f = parse("forall x in u . (x = y | x in z)", u2, free_names={"u", "y", "z"})
    assert free_variables(f) == {"u", "y", "z"}


# ParseError messages and positions of bad inputs in both grammars; the literal
# grammar rejects the formula punctuation | & ! . = -> as unexpected characters.
PARSE_ERRORS = [
    ('literal', 'name{empty: {1} | }', "unexpected character '|'", 16),
    ('literal', 'empty & empty', "unexpected character '&'", 6),
    ('literal', '!empty', "unexpected character '!'", 0),
    ('literal', 'name{empty.: {1}}', "unexpected character '.'", 10),
    ('literal', 'empty = empty', "unexpected character '='", 6),
    ('literal', 'empty -> empty', "unexpected character '-'", 6),
    ('literal', 'name{empty: {0}}', 'atom index 0 outside 1..2', 14),
    ('literal', 'name{empty {1}}', "expected ':', found '{'", 11),
    ('literal', 'check({{}}', "expected ')', found ''", 10),
    ('literal', 'empty empty', 'trailing input after name literal', 6),
    ('literal', 'foo', "unknown name literal 'foo'", 0),
    ('literal', 'mix[{1}: empty; {1}: empty]', 'parts overlap on atoms [1]', 0),
    ('literal', '$', "unexpected character '$'", 0),
    ('literal', '', 'expected a name literal', 0),
    ('literal', 'name{empty: {1}, check({,}): {2}}', "expected '{', found ','", 24),
    ('literal', 'mix[{1}: empty]', 'parts do not cover atoms [2]', 0),
    ('literal', 'name{12abc: {1}}', 'expected a name literal', 5),
    ('literal', 'name{empty: {1²}}', "unexpected character '²'", 14),
    ('literal', 'name{empty: {1, 3}}', 'atom index 3 outside 1..2', 17),
    ('literal', 'name{empty: { 2 ,1 }, empty: {1,,2}}', 'expected an atom index', 32),
    ('literal', 'name{empty: {1 2}}', "expected '}', found '2'", 15),
    ('literal', 'mix[{1}: empty; {2, 7}: empty]', 'atom index 7 outside 1..2', 21),
    ('literal', 'name{empty: {1,}}', 'expected an atom index', 15),
    ('literal', 'name{empty: {,1}}', 'expected an atom index', 13),
    ('literal', 'name{empty: {1)}', "expected '}', found ')'", 14),
    ('atomset', '{1,2', "expected '}', found ''", 4),
    ('atomset', '{1,}', 'expected an atom index', 3),
    ('atomset', '{3}', 'atom index 3 outside 1..2', 2),
    ('atomset', '1', "expected '{', found '1'", 0),
    ('atomset', '{1} x', 'trailing input after atom set', 4),
    ('atomset', '{1|2}', "unexpected character '|'", 2),
    ('atomset', '{²}', "unexpected character '²'", 1),
    ('formula', 'x in', 'expected a term', 4),
    ('formula', 'empty = empty ->', 'expected a term', 16),
    ('formula', 'empty # empty', "unexpected character '#'", 6),
    ('formula', 'forall x in empty x in x', "expected 'DOT', found 'x'", 18),
    ('formula', 'y = empty', "unbound variable 'y'", 0),
    ('formula', '(empty = empty', "expected ')', found 'end of input'", 14),
    ('formula', 'empty - empty', "unexpected character '-'", 6),
    ('formula', 'forall in in empty . empty = empty', "'in' is reserved", 7),
    ('formula', 'empty empty', "expected '=' or 'in' after a term", 6),
    ('formula', 'empty = empty empty', "expected 'EOF', found 'empty'", 14),
    ('formula', 'name{empty: {5}} = empty', 'atom index 5 outside 1..2', 14),
    ('formula', '', 'expected a term', 0),
    ('formula', 'exists x in empty . ', 'expected a term', 20),
    ('formula', 'empty = empty &', 'expected a term', 15),
    ('formula', '!(empty)', "expected '=' or 'in' after a term", 7),
    ('formula', 'empty in empty -> -> empty', 'expected a term', 18),
    ('formula', 'forall x on empty . x = x', "expected 'in' after the bound variable", 9),
    ('formula', 'empty = forall', "'forall' is reserved", 8),
    ('formula', 'empty = empty ; empty', "expected 'EOF', found ';'", 14),
    ('formula', 'empty <- empty', "unexpected character '<'", 6),
    ('formula', 'name{empty: {1,2}} = name{empty: {2, 3}}', 'atom index 3 outside 1..2', 38),
]


@pytest.mark.parametrize("grammar, text, message, pos", PARSE_ERRORS)
def test_parse_error_messages_and_positions(u2, grammar, text, message, pos):
    from condrisk.bvm import parse_atom_set, parse_name_literal

    with pytest.raises(ParseError) as err:
        if grammar == "literal":
            parse_name_literal(text, u2)
        elif grammar == "atomset":
            parse_atom_set(text, u2.algebra)
        else:
            parse(text, u2, free_names={"x"})
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})"


def test_evaluate_refuses_a_bound_from_another_universe(u2):
    other = Universe(BooleanAlgebra(3))
    bound = other.make_name({other.empty: other.algebra.one})
    f = parse("forall x in w . u = u", u2, free_names={"u", "w"})
    with pytest.raises(CondriskError):
        evaluate(f, {"u": u2.empty, "w": bound})


# -- atom-set tokens and the per-universe literal memo ------------------------------


def test_atom_sets_take_unicode_digits_and_blanks(u2):
    # \x1c is str.isspace but int() refuses it
    for text in ("name{empty: {\xa01 }}", "name{empty: {١}}", "name{empty: {\x1c1\x1c}}"):
        assert parse_name_literal(text, u2) is parse_name_literal("name{empty: {1}}", u2)


_GAPS = ("", "", " ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c")
_CORRUPTIONS = "{}()[],:; 0123456789x١²"


def _build(universe, recipe):
    if recipe is None:
        return universe.empty
    entries = {}
    for child, atoms in recipe:
        value = universe.algebra.element(atoms)
        c = _build(universe, child)
        entries[c] = entries[c] | value if c in entries else value
    return universe.make_name(entries)


def _gap(draw):
    return draw(st.sampled_from(_GAPS))


def _recipe(draw, m, rank):
    """A random name as nested (child, atoms) pairs; None is the empty name."""
    if rank == 0 or draw(st.integers(0, 3)) == 0:
        return None
    n = draw(st.integers(1, 3))
    return tuple(
        (_recipe(draw, m, rank - 1), tuple(draw(st.lists(st.integers(1, m), max_size=4))))
        for _ in range(n)
    )


def _spell(draw, r):
    """A literal of the recipe ``r`` with random blanks between tokens."""
    if r is None:
        return "empty"
    items = [
        _spell(draw, child) + _gap(draw) + ":" + _gap(draw) + "{" + _gap(draw)
        + (_gap(draw) + "," + _gap(draw)).join(map(str, atoms)) + _gap(draw) + "}"
        for child, atoms in r
    ]
    return "name" + _gap(draw) + "{" + _gap(draw) + (_gap(draw) + "," + _gap(draw)).join(items) + _gap(draw) + "}"


def _corrupt(draw, clean, corruptions):
    """``clean`` with one character replaced, deleted or inserted."""
    at = draw(st.integers(0, len(clean)))
    op = draw(st.sampled_from(("replace", "delete", "insert")))
    ch = draw(st.sampled_from(corruptions))
    if op == "insert":
        return clean[:at] + ch + clean[at:]
    return clean[:at] + ("" if op == "delete" else ch) + clean[at + 1 :]


@st.composite
def spelled_literals(draw):
    """A random name (rank <= 3, up to 16 atoms), a literal of it with random
    blanks between tokens, and that literal with one character corrupted."""
    m = draw(st.integers(min_value=1, max_value=16))
    r = _recipe(draw, m, 3)
    clean = _gap(draw) + _spell(draw, r) + _gap(draw)
    return m, r, clean, _corrupt(draw, clean, _CORRUPTIONS)


def _outcome(text, universe):
    try:
        return parse_name_literal(text, universe).collapses
    except ParseError as exc:
        return str(exc), exc.pos


def _lexed_in_full(outcome, text, algebra):
    """``outcome`` in a fresh universe whose scan finds no literal's close, so
    that it lexes every character and the parser reads every literal."""
    with mock.patch.object(bvm, "_GROUP", re.compile(r"(?!)")):
        return outcome(text, Universe(algebra))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spelled_literals())
def test_literal_memo_agrees_with_a_fresh_parse(case):
    m, recipe, clean, corrupt = case
    algebra = BooleanAlgebra(m)
    warm = Universe(algebra)
    name = _build(warm, recipe)
    assert parse_name_literal(clean, warm) is name
    assert parse_name_literal(name_to_literal(name), warm) is name
    reference = _lexed_in_full(_outcome, corrupt, algebra)
    assert _outcome(corrupt, Universe(algebra)) == _outcome(corrupt, warm) == reference


@st.composite
def spelled_formulas(draw):
    """Up to three random names (rank <= 3, up to 16 atoms) with a spelling
    each, a formula over those spellings, ``empty`` and the free variable
    ``x``, with random blanks, and that formula with one character corrupted."""
    m = draw(st.integers(min_value=1, max_value=16))
    spellings = [_spell(draw, _recipe(draw, m, 3)) for _ in range(draw(st.integers(1, 3)))]

    def term(scope):
        return draw(st.sampled_from(spellings + ["empty", "x", *scope]))

    def formula(depth, scope):
        kind = draw(st.integers(0, 4 if depth else 1))
        if kind == 0:
            return term(scope) + _gap(draw) + "=" + _gap(draw) + term(scope)
        if kind == 1:
            return term(scope) + " in " + term(scope)
        if kind == 2:
            return "!" + _gap(draw) + "(" + formula(depth - 1, scope) + ")"
        if kind == 3:
            op = draw(st.sampled_from(("&", "|", "->")))
            return f"({formula(depth - 1, scope)}{_gap(draw)}{op}{_gap(draw)}{formula(depth - 1, scope)})"
        var = f"v{len(scope)}"
        quant = draw(st.sampled_from(("forall", "exists")))
        return f"({quant} {var} in {term(scope)} . {formula(depth - 1, scope + (var,))})"

    clean = _gap(draw) + formula(3, ()) + _gap(draw)
    return m, spellings, clean, _corrupt(draw, clean, _CORRUPTIONS + "|&!.=->")


def _shape(node):
    """A formula with each literal replaced by its name's collapses, so that
    formulas over two universes compare."""
    if isinstance(node, Lit):
        return node.name.collapses
    if isinstance(node, str):
        return node
    return (type(node).__name__, *(_shape(getattr(node, f.name)) for f in dataclasses.fields(node)))


def _formula_outcome(text, universe):
    try:
        return _shape(parse(text, universe, free_names={"x"}))
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.pos


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spelled_formulas())
def test_formula_literal_memo_agrees_with_a_fresh_parse(case):
    # the warm universe's memo holds every spelling, so its scan passes over
    # them; the cold one passes over repeats only, and the reference over none
    m, spellings, clean, corrupt = case
    algebra = BooleanAlgebra(m)
    warm = Universe(algebra)
    for text in spellings:
        parse_name_literal(text, warm)
    for text in (clean, corrupt):
        outcome = _formula_outcome(text, warm)
        assert outcome == _formula_outcome(text, Universe(algebra))
        assert outcome == _lexed_in_full(_formula_outcome, text, algebra)
    assert _formula_outcome(clean, warm)[0] not in ("ParseError", "UnboundVariableError")


def test_a_formula_of_remembered_literals_scans_to_its_skeleton():
    uni = Universe(BooleanAlgebra(6))
    rng = np.random.default_rng(11)
    names = [u for u in (random_name(uni, rng, 3, 3) for _ in range(40)) if u.rank >= 2][:4]
    assert len(names) == 4
    literals = [name_to_literal(u) for u in names]
    for text in literals:
        parse_name_literal(text, uni)
    skeleton = "(forall v0 in {0} . v0 in {1}) & !({2} = {3} | {1} in {0}) -> exists v1 in {3} . {2} = v1"
    text = skeleton.format(*literals)
    tokens = scan(text, _PUNCT, uni._literal_memo)
    assert len(tokens) == len(scan(skeleton.format("a", "b", "c", "d"), _PUNCT))
    assert len(tokens) < len(scan(text, _PUNCT))
    f = parse(text, uni)
    assert f.left.left.domain.name is names[0] and f.right.body.left.name is names[2]


def test_literal_memo_stays_within_its_cap():
    uni = Universe(BooleanAlgebra(16))
    sizes = []
    for sep in (",", ", "):
        for a in range(1, 17):
            for b in range(1, 17):
                for c in range(1, 17):
                    parse_name_literal(f"name{{empty: {{{a}{sep}{b}{sep}{c}}}}}", uni)
                    sizes.append(len(uni._literal_memo))
    assert max(sizes) == LITERAL_MEMO_CAP
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # cleared


def test_literal_memo_belongs_to_one_universe():
    three = Universe(BooleanAlgebra(3))
    two = Universe(BooleanAlgebra(2))
    text = "name{empty: {3}}"
    assert parse_name_literal(text, three).collapses == (frozenset(), frozenset(), frozenset([frozenset()]))
    with pytest.raises(ParseError) as err:
        parse_name_literal(text, two)
    assert (str(err.value), err.value.pos) == ("atom index 3 outside 1..2 (at position 14)", 14)


def test_witness_on_a_bound_with_an_empty_atom(u2):
    # name{empty: {1}} has no member at atom 2: there the witness is the
    # first ordinal that falsifies the formula, and none falsifies x = x
    v = parse_name_literal("name{empty: {1}}", u2)
    f = parse("x = empty", u2, free_names={"x"})
    exists = parse("exists y in v . y = empty", u2, free_names={"v"})
    wit = witness(f, "x", v)
    for atom in (1, 2):
        assert collapse_eval(f, atom, {"x": wit}) == collapse_eval(exists, atom, {"v": v}), atom
    with pytest.raises(bvm.WitnessError):
        witness(parse("x = x", u2, free_names={"x"}), "x", v)
