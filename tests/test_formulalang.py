import numpy as np
import pytest

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
from condrisk.errors import CondriskError, ParseError
from condrisk.formulalang import (
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
