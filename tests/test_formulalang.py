import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    random_formula,
    random_name,
    reference_collapse_eval,
    reference_parse,
    reference_parse_name_literal,
    spy_calls,
)
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
from condrisk import bvm, formulalang
from condrisk.boolalg import MEMO_CAP, AlgebraMismatchError
from condrisk.bvm import UniverseError, name_to_literal, parse_name_literal
from condrisk.errors import CondriskError, ParseError
from condrisk.formulalang import (
    And,
    Eq,
    ExistsIn,
    ForallIn,
    FormulaError,
    Implies,
    In,
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


def test_print_formula_refuses_what_is_not_a_formula(u2):
    with pytest.raises(TypeError, match=r"^not a formula node: Lit\("):
        print_formula(Lit(u2.empty))
    with pytest.raises(TypeError, match=r"^not a formula node: Var\(name='x'\)$"):
        print_formula(Not(Var("x")))


def test_the_one_pass_refuses_what_is_not_a_formula(u2):
    # evaluate, collapse_eval, free_variables and witness read one pass,
    # which refuses a term where a formula belongs as print_formula does
    for f, shown in ((Lit(u2.empty), r"Lit\("), (Not(Var("x")), r"Var\(name='x'\)$")):
        for call in (lambda: evaluate(f), lambda: collapse_eval(f, 1), lambda: free_variables(f),
                     lambda: witness(f, "x", u2.empty)):
            with pytest.raises(TypeError, match=rf"^not a formula node: {shown}"):
                call()


def test_evaluate_infers_the_universe_past_terms_without_names(u2):
    # the universe comes from the literals, found past an atomic formula of
    # variables and a quantifier bounded by a variable; the variables are
    # then refused as unbound where the walk reaches them
    lit = Eq(Lit(u2.empty), Lit(u2.empty))
    with pytest.raises(FormulaError, match=r"^no binding for 'x'$"):
        evaluate(Or(Eq(Var("x"), Var("x")), lit))
    with pytest.raises(FormulaError, match=r"^no binding for 'w'$"):
        evaluate(ForallIn("y", Var("w"), lit))
    with pytest.raises(FormulaError, match=r"^cannot infer the universe: no name appears in the formula$"):
        evaluate(ExistsIn("y", Var("w"), Eq(Var("y"), Var("w"))))


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
    """``outcome`` in a fresh universe whose formula reader finds no literal
    term's close, so that it passes over no literal and reads every one."""
    with mock.patch.object(formulalang, "_GROUP", re.compile(r"(?!)")):
        return outcome(text, Universe(algebra))


def test_the_readers_patterns_need_no_newer_python_than_declared():
    # possessive repeats and atomic groups came to ``re`` in Python 3.11;
    # on 3.10, which the package supports, they fail to compile on import
    patterns = [
        value.pattern
        for module in (bvm, formulalang)
        for value in vars(module).values()
        if isinstance(value, re.Pattern)
    ]
    assert formulalang._GROUP.pattern in patterns
    for pattern in patterns:
        assert re.search(r"[*+?}]\+|\(\?>", pattern) is None, pattern


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
    # the warm universe's memo holds every spelling, so its reader passes
    # over them; the cold one passes over repeats only, and the reference over none
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


# characters neither grammar lexes, for a second fault after the first
_STRAYS = "²$#<"


def _with_a_stray(draw, text):
    """``text`` with one character that neither grammar lexes inserted."""
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(_STRAYS)) + text[at:]


def _read_outcome(read, text, universe):
    """What ``read(text, universe)`` gives: the shape of its value, or the
    class, message and position of its refusal."""
    try:
        value = read(text, universe)
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.pos
    return value.collapses if isinstance(value, bvm.Name) else _shape(value)


def _formula_reader(text, universe):
    return parse(text, universe, free_names={"x"})


def _formula_reference(text, universe):
    return reference_parse(text, universe, free_names={"x"})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spelled_literals(), spelled_formulas(), st.data())
def test_the_readers_match_the_token_reference(literal_case, formula_case, data):
    # the token reference lexes the whole text before it parses, so an
    # unexpected character anywhere wins over an earlier parse fault; the
    # readers must give the same name or formula, or the same refusal, for
    # clean texts, corrupted ones and corrupted ones with a stray character,
    # in a warm universe (each spelling read before) and in a cold one
    for (m, _, clean, corrupt), spellings, read, reference in (
        (literal_case, None, parse_name_literal, reference_parse_name_literal),
        (formula_case, formula_case[1], _formula_reader, _formula_reference),
    ):
        algebra = BooleanAlgebra(m)
        warm, warm_reference = Universe(algebra), Universe(algebra)
        for text in spellings or [clean]:
            parse_name_literal(text, warm)
            reference_parse_name_literal(text, warm_reference)
        for text in (clean, corrupt, _with_a_stray(data.draw, corrupt)):
            expected = _read_outcome(reference, text, warm_reference)
            assert _read_outcome(read, text, warm) == expected, text
            assert _read_outcome(read, text, Universe(algebra)) == expected, text
            assert _read_outcome(reference, text, Universe(algebra)) == expected, text


def test_a_formula_of_remembered_literals_scans_to_its_skeleton(monkeypatch):
    uni = Universe(BooleanAlgebra(6))
    rng = np.random.default_rng(11)
    names = [u for u in (random_name(uni, rng, 3, 3) for _ in range(40)) if u.rank >= 2][:4]
    assert len(names) == 4
    literals = [name_to_literal(u) for u in names]
    for text in literals:
        parse_name_literal(text, uni)
    skeleton = "(forall v0 in {0} . v0 in {1}) & !({2} = {3} | {1} in {0}) -> exists v1 in {3} . {2} = v1"
    text = skeleton.format(*literals)
    # the reader steps over each remembered literal term whole, as over a
    # variable of the skeleton: it reads none of them
    reads = spy_calls(monkeypatch, formulalang, "parse_name_tokens")
    f = parse(text, uni)
    assert reads == []
    assert f.left.left.domain.name is names[0] and f.right.body.left.name is names[2]
    # a fresh universe reads the first occurrence of each literal and passes
    # over its repeats; with no pass-over, each of the 8 terms is read
    parse(text, Universe(uni.algebra))
    assert len(reads) == 4
    _lexed_in_full(parse, text, uni.algebra)
    assert len(reads) == 4 + 8


def test_literal_memo_stays_within_its_cap():
    uni = Universe(BooleanAlgebra(16))
    sizes = []
    for sep in (",", ", "):
        for a in range(1, 17):
            for b in range(1, 17):
                for c in range(1, 17):
                    parse_name_literal(f"name{{empty: {{{a}{sep}{b}{sep}{c}}}}}", uni)
                    sizes.append(len(uni._literal_memo))
    assert max(sizes) == MEMO_CAP
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


# -- the staged collapse_eval against the per-call walk ----------------------------


def _eval_outcome(evaluate_at, f, atom, env):
    try:
        return evaluate_at(f, atom, env)
    except Exception as exc:  # the refusal must match in type and message
        return type(exc), str(exc)


@st.composite
def collapse_cases(draw):
    """A random formula (depth <= 3) over up to four names of 8 or 16 atoms,
    the free variables x and y and bound ones, an environment binding some
    of x and y, and, if ``mixed``, literals of a second, 4-atom universe."""
    m = draw(st.sampled_from((8, 16)))
    recipes = [_recipe(draw, m, 3) for _ in range(draw(st.integers(1, 4)))]
    mixed = draw(st.integers(0, 3)) == 0

    def term(scope):
        kind = draw(st.integers(0, 3 if mixed else 2))
        if kind == 0:
            return Lit, draw(st.integers(0, len(recipes) - 1))
        if kind == 3:
            return "other", draw(st.integers(0, len(recipes) - 1))
        return Var, draw(st.sampled_from(scope + ("x", "y")))

    def formula(depth, scope):
        kind = draw(st.integers(0, 7 if depth else 1))
        if kind < 2:
            return (Eq, In)[kind], term(scope), term(scope)
        if kind == 2:
            return Not, formula(depth - 1, scope)
        if kind < 6:
            return (And, Or, Implies)[kind - 3], formula(depth - 1, scope), formula(depth - 1, scope)
        # a binder may shadow a free variable or an outer binder
        var = draw(st.sampled_from((f"v{len(scope)}", "v0", "x")))
        return (ForallIn, ExistsIn)[kind - 6], var, term(scope), formula(depth - 1, scope + (var,))

    env = {v: _recipe(draw, m, 3) for v in draw(st.lists(st.sampled_from("xy"), unique=True))}
    return m, recipes, formula(3, ()), env


def _collapse_case(m, recipes, skeleton, env_recipes):
    uni, other = Universe(BooleanAlgebra(m)), Universe(BooleanAlgebra(4))
    names = [_build(uni, r) for r in recipes]
    others = [other.canonical_name(h) for h in ([], [[]], [[[]]], [[], [[]]])]

    def build(node):
        head, *rest = node
        if head is Lit:
            return Lit(names[rest[0]])
        if head == "other":
            return Lit(others[rest[0]])
        if head is Var:
            return Var(rest[0])
        return head(*(r if isinstance(r, str) else build(r) for r in rest))

    env = {v: _build(uni, r) for v, r in env_recipes.items()}
    return uni, other, build(skeleton), env


def _universes_reached(f, env):
    """The universes of the literals of ``f`` and of the names ``env`` binds
    to its free variables, by a walk of the tree."""
    out = set()

    def term(t, bound):
        if isinstance(t, Lit):
            out.add(t.name.universe)
        elif t.name not in bound and t.name in env:
            out.add(env[t.name].universe)

    def rec(node, bound):
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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(collapse_cases())
def test_staged_collapse_eval_matches_the_walk_at_every_atom(case):
    uni, other, f, env = _collapse_case(*case)
    alg = uni.algebra
    m = alg.atom_count
    atoms = [a for i in range(1, m + 1) for a in (i, np.int64(i), np.uint8(i), alg.atom(i))]
    # refusals: a bool, indices out of range, elements that are no atom or
    # come from another algebra, a non-integral index
    atoms += [True, np.bool_(False), 0, -1, m + 1, 2.0, alg.from_mask(0), alg.from_mask(3),
              other.algebra.atom(1)]
    if len(_universes_reached(f, env)) > 1:
        # names of two universes: both evaluators refuse before any walk
        refused = (UniverseError, "name belongs to a different universe")
        assert _eval_outcome(lambda f, atom, env: evaluate(f, env), f, None, env) == refused
        for atom in atoms:
            assert _eval_outcome(collapse_eval, f, atom, env) == refused, (atom, print_formula(f))
        return
    for atom in atoms:
        expected = _eval_outcome(reference_collapse_eval, f, atom, env)
        assert _eval_outcome(collapse_eval, f, atom, env) == expected, (atom, print_formula(f))


def test_a_binder_inside_a_shadowing_binder_reads_a_slot_of_its_own():
    # x is bound twice, so the scope does not grow at the inner x; y must
    # still get a slot apart from it, or x = y compares y with itself
    uni = Universe(BooleanAlgebra(4))
    a, b, c = (uni.canonical_name(h) for h in ([[]], [[]], [[[]]]))
    for quantifier in (ForallIn, ExistsIn):
        f = quantifier("x", Lit(a), quantifier("x", Lit(b), quantifier("y", Lit(c), Eq(Var("x"), Var("y")))))
        for atom in range(1, 5):
            assert collapse_eval(f, atom) is reference_collapse_eval(f, atom) is False


def test_collapse_eval_refuses_as_the_walk_does_and_where_it_does():
    uni, other = Universe(BooleanAlgebra(8)), Universe(BooleanAlgebra(4))
    u, w = uni.canonical_name([[]]), other.canonical_name([[]])
    same, later = Eq(Lit(u), Lit(u)), Eq(Var("x"), Lit(u))
    cases = [
        (same, True, ValueError, "atom must be an int, not a bool"),
        (same, 0, ValueError, "atom 0 outside 1..8"),
        (same, np.int16(9), ValueError, "atom 9 outside 1..8"),
        (same, uni.algebra.from_mask(6), ValueError, "collapse needs a single atom"),
        (same, other.algebra.atom(1), AlgebraMismatchError, "atom from a different algebra"),
        (later, 1, FormulaError, "no binding for 'x'"),
        # the walk reaches the unbound x before it reads a name at the atom
        (later, 0, FormulaError, "no binding for 'x'"),
        (later, True, FormulaError, "no binding for 'x'"),
    ]
    for f, atom, kind, message in cases:
        for evaluate_at in (collapse_eval, reference_collapse_eval):
            with pytest.raises(kind) as err:
                evaluate_at(f, atom)
            assert str(err.value) == message
    # a fault the walk never reaches raises nothing
    assert collapse_eval(Or(same, later), 3) is True
    assert collapse_eval(Or(same, later), uni.algebra.atom(7)) is True
    # names of two universes are refused before any walk, as evaluate refuses
    # them, even where the walk would never reach the second universe's name
    for f in (Or(Not(same), Eq(Lit(w), Lit(w))), Or(same, Eq(Lit(w), Lit(w)))):
        for call in (lambda: evaluate(f), lambda: collapse_eval(f, 6), lambda: collapse_eval(f, 3)):
            with pytest.raises(UniverseError, match="^name belongs to a different universe$"):
                call()


def test_collapse_eval_stages_each_formula_once(monkeypatch):
    uni = Universe(BooleanAlgebra(16))
    rng = np.random.default_rng(37)
    f = random_formula(uni, rng, 3)
    staged = spy_calls(monkeypatch, formulalang, "_stage")
    truth = evaluate(f)
    assert [a in truth.atoms for a in range(1, 17)] == [collapse_eval(f, a) for a in range(1, 17)]
    assert len(staged) == 1
    again = dataclasses.replace(f)
    assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
    collapse_eval(again, 1)
    assert len(staged) == 2  # a new object is staged anew; no cache outside it


def test_a_closed_formula_reads_no_collapse_through_atom_collapse(monkeypatch):
    # formulalang reads collapses by index only; it does not import atom_collapse
    assert not hasattr(formulalang, "atom_collapse")
    uni = Universe(BooleanAlgebra(8))
    rng = np.random.default_rng(38)
    formulas = [random_formula(uni, rng, 3) for _ in range(20)]
    expected = [[reference_collapse_eval(f, a) for a in range(1, 9)] for f in formulas]
    reads = spy_calls(monkeypatch, bvm, "atom_collapse")
    assert [[collapse_eval(f, a) for a in range(1, 9)] for f in formulas] == expected
    assert reads == []


def test_both_evaluators_refuse_names_of_two_universes():
    a, b = Universe(BooleanAlgebra(2)), Universe(BooleanAlgebra(4))
    twin = Universe(a.algebra)  # a second universe over the same algebra
    refusals = [
        (Eq(Lit(a.empty), Lit(b.empty)), {}),
        (Eq(Lit(a.empty), Lit(twin.empty)), {}),
        (Eq(Var("x"), Lit(a.empty)), {"x": b.empty}),
        (ForallIn("y", Var("x"), Eq(Var("y"), Lit(a.empty))), {"x": twin.empty}),
        (Eq(Var("x"), Lit(a.empty)), {"x": frozenset()}),  # not a name
    ]
    for f, env in refusals:
        with pytest.raises(UniverseError, match="^name belongs to a different universe$"):
            evaluate(f, env)
        for atom in (1, 2, a.algebra.atom(1)):
            with pytest.raises(UniverseError, match="^name belongs to a different universe$"):
                collapse_eval(f, atom, env)
    # an env entry for a variable the formula does not use is ignored, and a
    # bound variable is not free, whatever env binds to its name
    f = ForallIn("x", Lit(a.empty), Eq(Var("x"), Lit(a.empty)))
    assert evaluate(f, {"x": b.empty, "z": 3}) == a.algebra.one
    assert collapse_eval(f, 2, {"x": b.empty, "z": 3}) is True
