import copy
import functools
import json
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from condrisk import duality
from condrisk.cli import _fmt, ingest, main, script_entry
from condrisk.cli import ScenarioError

LOG2 = math.log(2.0)
S4 = {
    "probs": [0.25, 0.25, 0.25, 0.25],
    "blocks": [[1, 2], [3, 4]],
    "measures": [
        {"kind": "entropic", "gamma": [1.0, 1.0]},
        {"kind": "avar", "lambda": [0.5, 0.5]},
        {"kind": "worst_case"},
        {"kind": "neg_expectation"},
    ],
    "payoffs": [[-LOG2, -LOG2, 0.0, 0.0], [1, 3, 2, 6]],
}


@pytest.fixture
def s4_path(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(S4))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_space_validate(capsys, s4_path):
    code, out = run(capsys, ["space", "validate", "--scenario", s4_path])
    assert code == 0
    assert out == {"atoms": 4, "blocks": 2}


def test_risk_eval(capsys, s4_path):
    code, out = run(
        capsys,
        ["risk", "eval", "--scenario", s4_path, "--measure", "entropic", "--payoff", "0"],
    )
    assert code == 0
    assert out == [0.69314718056, 0.0]


def test_risk_check_axioms(capsys, s4_path):
    code, out = run(
        capsys,
        ["risk", "check-axioms", "--scenario", s4_path, "--measure", "worst_case",
         "--trials", "50", "--seed", "3"],
    )
    assert code == 0
    assert out["passed"] is True
    assert set(out["axioms"]) == {
        "convexity",
        "monotonicity",
        "cash_invariance",
        "local_property",
        "conditional_law_invariance",
    }


def test_numpy_scalars_are_written_as_the_json_of_their_python_values():
    got = _fmt({"n": np.int64(3), "x": np.float64(0.1), "big": np.float32(np.inf), "ok": np.True_, "yes": True})
    assert got == {"n": 3, "x": 0.1, "big": "inf", "ok": True, "yes": True}
    assert [type(v) for v in got.values()] == [int, float, str, bool, bool]
    assert json.dumps(got) == '{"n": 3, "x": 0.1, "big": "inf", "ok": true, "yes": true}'


def test_negative_seed_refused_by_name(capsys, s4_path):
    code, out = run(
        capsys,
        ["risk", "check-axioms", "--scenario", s4_path, "--measure", "worst_case",
         "--seed", "-1"],
    )
    assert code == 2
    assert out == {"error": "seed must be a non-negative integer, got -1"}


def test_dual_penalty(capsys, s4_path):
    code, out = run(
        capsys,
        ["dual", "penalty", "--scenario", s4_path, "--measure", "neg_expectation",
         "--y", "[-2,0,-1,-1]"],
    )
    assert code == 0
    assert out["penalty"] == ["inf", 0.0]


def test_dual_represent(capsys, s4_path):
    code, out = run(
        capsys,
        ["dual", "represent", "--scenario", s4_path, "--measure", "entropic",
         "--payoff", "0"],
    )
    assert code == 0
    entry = out["entries"][0]
    assert set(entry) == {"payoff", "direct", "dual", "gap", "maximizer", "attained"}
    assert entry["direct"] == [0.69314718056, 0.0]
    assert entry["attained"] is True


def test_transfer_verify_cmd(capsys, s4_path):
    code, out = run(
        capsys,
        ["transfer", "verify", "--scenario", s4_path, "--measure", "avar",
         "--items", "1,5"],
    )
    assert code == 0
    assert out["passed"] is True
    assert set(out["items"]) == {"1", "5"}
    assert out["items"]["5"]["per_atom"] == [True, True]


@pytest.mark.parametrize("items", ["", ","])
def test_transfer_verify_cmd_refuses_an_empty_item_list(capsys, s4_path, items):
    code, out = run(
        capsys, ["transfer", "verify", "--scenario", s4_path, "--measure", "avar", "--items", items]
    )
    assert code == 2 and out == {"error": "transfer_verify needs at least one item"}


def test_bvm_eval(capsys, s4_path):
    code, out = run(
        capsys,
        ["bvm", "eval", "forall x in u . x = empty", "--scenario", s4_path,
         "--bind", "u=name{empty:{1}}"],
    )
    assert code == 0
    assert out == {"truth": [1, 2]}
    code, out = run(
        capsys,
        ["bvm", "eval", "exists x in u . x = empty", "--scenario", s4_path,
         "--bind", "u=name{empty:{1}}"],
    )
    assert code == 0
    assert out == {"truth": [1]}


def test_bvm_mix(capsys, s4_path):
    code, out = run(
        capsys,
        ["bvm", "mix", "--scenario", s4_path, "--parts", "{1};{2}",
         "--names", "empty;check({{}})"],
    )
    assert code == 0
    assert out["name"] == "name{empty: {2}}"


def test_bvm_mix_refuses_a_literal_past_its_cap(capsys, s4_path, monkeypatch):
    monkeypatch.setattr("condrisk.bvm.LITERAL_CHAR_CAP", 10)
    code, out = run(
        capsys,
        ["bvm", "mix", "--scenario", s4_path, "--parts", "{1};{2}",
         "--names", "empty;check({{}})"],
    )
    assert code == 2
    assert out == {"error": "the literal of this name exceeds LITERAL_CHAR_CAP = 10 characters"}


def test_exit_code_on_failed_check(capsys, s4_path, monkeypatch):
    # a built-in's exact dual attains rho(x) to rounding, so a representation
    # that cannot attain is hard to fake with builtins; with the oracle and
    # difference routes off, the fallback candidates fall short of an absurd tolerance
    # and represent trips the failure exit code
    monkeypatch.setattr(duality, "_exact_duals", lambda *args: None)
    monkeypatch.setattr(duality, "_difference_duals", lambda *args: None)
    code, out = run(
        capsys,
        ["dual", "represent", "--scenario", s4_path, "--measure", "entropic",
         "--payoff", "1", "--tol", "1e-18"],
    )
    assert code == 1
    assert out["passed"] is False


def test_exact_duals_attain_where_the_ascent_stops_short(capsys, s4_path, monkeypatch):
    argv = ["dual", "represent", "--scenario", s4_path, "--measure", "entropic",
            "--payoff", "1", "--tol", "1e-12"]
    code, out = run(capsys, argv)
    assert code == 0 and out["passed"] is True
    assert "warnings" not in out["entries"][0]
    monkeypatch.setattr(duality, "_exact_duals", lambda *args: None)
    monkeypatch.setattr(duality, "_difference_duals", lambda *args: None)
    code, out = run(capsys, argv)
    assert code == 1 and out["passed"] is False


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "command",
    [["transfer", "verify", "--measure", "avar"], ["dual", "represent", "--measure", "entropic"]],
)
def test_bad_tolerance_exits_2(capsys, s4_path, command, tol):
    code, out = run(capsys, command + ["--scenario", s4_path, "--tol", tol])
    assert code == 2
    assert "tol must be a finite number >= 0" in out["error"]


def test_input_errors(capsys, tmp_path, s4_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"probs": [0.5, 0.4], "blocks": [[1], [2]]}))
    code, out = run(capsys, ["space", "validate", "--scenario", str(bad)])
    assert code == 2
    assert out["error"] == "probs sum 0.9"

    bad.write_text(json.dumps({"probs": [0.5, 0.5], "blocks": [[1], [5]]}))
    code, out = run(capsys, ["space", "validate", "--scenario", str(bad)])
    assert code == 2
    assert "atom 5" in out["error"]

    bad.write_text("{not json")
    code, out = run(capsys, ["space", "validate", "--scenario", str(bad)])
    assert code == 2
    assert "malformed JSON" in out["error"]

    code, out = run(capsys, ["bvm", "eval", "x = empty", "--scenario", s4_path])
    assert code == 2
    assert out["position"] == 0

    code, out = run(
        capsys,
        ["risk", "eval", "--scenario", s4_path, "--measure", "nope", "--payoff", "0"],
    )
    assert code == 2

    code, out = run(
        capsys,
        ["risk", "eval", "--scenario", s4_path, "--measure", "entropic", "--payoff", "7"],
    )
    assert code == 2


def test_measure_index_is_decimal_digits(capsys, s4_path):
    # a superscript digit is a digit to str.isdigit but not to int()
    code, out = run(
        capsys,
        ["risk", "eval", "--scenario", s4_path, "--measure", "\u00b2", "--payoff", "0"],
    )
    assert code == 2
    assert out["error"] == "no measure '\u00b2' in the scenario"


def test_ingest_field_errors(tmp_path):
    path = tmp_path / "x.json"
    cases = [
        ({"probs": [], "blocks": [[1]]}, "probs"),
        ({"probs": [1.0], "blocks": []}, "blocks"),
        ({"probs": [0.5, 0.5], "blocks": [[1], []]}, "block 2"),
        ({"probs": [0.5, 0.5], "blocks": [[1], [2]], "measures": [{"kind": "magic"}]}, "kind"),
        ({"probs": [0.5, 0.5], "blocks": [[1], [2]], "measures": [{"kind": "entropic"}]}, "gamma"),
        ({"probs": [0.5, 0.5], "blocks": [[1], [2]], "payoffs": [[1.0]]}, "payoffs[0]"),
    ]
    for raw, needle in cases:
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as err:
            ingest(str(path))
        assert needle in str(err.value)


def test_non_finite_measure_parameter_named_at_ingest(capsys, tmp_path):
    path = tmp_path / "nan.json"
    raw = {
        "probs": [0.25, 0.25, 0.25, 0.25],
        "blocks": [[1, 2], [3, 4]],
        "measures": [{"kind": "entropic", "gamma": math.nan}],
        "payoffs": [[1, 3, 2, 6]],
    }
    # a NaN is a JSON number to the table and is refused by the measure
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError, match=r"measures\[0\]: gamma must be finite"):
        ingest(str(path))
    for bad in (None, {}, "abc", [1.0, None]):
        raw["measures"][0]["gamma"] = bad
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match=r"measures\[0\]\.gamma: expected a JSON number or an array"):
            ingest(str(path))
    code, out = run(
        capsys,
        ["risk", "eval", "--scenario", str(path), "--measure", "entropic", "--payoff", "0"],
    )
    assert code == 2
    assert out["error"].startswith("measures[0].gamma: expected a JSON number")


def _two_atoms(**change):
    raw = {
        "probs": [0.5, 0.5],
        "blocks": [[1], [2]],
        "measures": [{"kind": "avar", "lambda": 0.5}, {"kind": "entropic", "gamma": 1.0}],
        "payoffs": [[1.0, 0.0]],
    }
    return {**raw, **change}


@pytest.mark.parametrize(
    "raw, field",
    [
        (_two_atoms(probs=[True, 1e-13]), "probs"),
        (_two_atoms(payoffs=[[True, False]]), "payoffs[0]"),
        (_two_atoms(measures=[{"kind": "avar", "lambda": True}]), "measures[0].lambda"),
        (_two_atoms(measures=[{"kind": "entropic", "gamma": [1.0, True]}]), "measures[0].gamma"),
        (_two_atoms(blocks=[[True], [2]]), "blocks[0]"),
    ],
    ids=["probs", "payoff", "lambda", "gamma", "blocks"],
)
def test_json_booleans_are_refused_where_numbers_are_expected(capsys, tmp_path, raw, field):
    # Python's bool is an int, and numpy reads true and false as 1 and 0
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(raw))
    code, out = run(capsys, ["space", "validate", "--scenario", str(path)])
    assert code == 2
    assert out["error"].startswith(f"{field}: ")


def test_dual_penalty_refuses_a_json_boolean(capsys, s4_path):
    code, out = run(
        capsys,
        ["dual", "penalty", "--scenario", s4_path, "--measure", "worst_case",
         "--y", "[false, -1, -1, -1]"],
    )
    assert code == 2
    assert out["error"].startswith("--y: ")


def test_ingest_roundtrip_structure(s4_path):
    scenario = ingest(s4_path)
    assert scenario.space.n_atoms == 4
    assert scenario.space.n_blocks == 2
    assert [m.label for m in scenario.measures] == [
        "entropic",
        "avar",
        "worst_case",
        "neg_expectation",
    ]
    assert len(scenario.payoffs) == 2


def test_unknown_command_exits_2():
    assert main(["bogus"]) == 2


@pytest.mark.parametrize(
    "blocks",
    [[[1.9], [2]], [["1"], [2]], [1, 2], ["12"]],
    ids=["float", "string", "bare-index", "string-block"],
)
def test_atom_indices_must_be_json_integers(capsys, tmp_path, blocks):
    # int() reads 1.9 and "1" as atom 1; a bare index or a string is not an index array
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(_two_atoms(blocks=blocks)))
    code, out = run(capsys, ["space", "validate", "--scenario", str(path)])
    assert code == 2
    assert out == {"error": "blocks[0]: expected an array of JSON integers"}


HUGE = 10**400  # a JSON integer past the float range
NUMBER_OR_ARRAY = "expected a JSON number or an array of JSON numbers"


@pytest.mark.parametrize(
    "raw, error",
    [
        (_two_atoms(payoffs=3), "payoffs: expected an array of arrays of JSON numbers"),
        (_two_atoms(measures=3), "measures: expected an array of JSON objects"),
        (_two_atoms(measures=None), "measures: expected an array of JSON objects"),
        (_two_atoms(probs=[0.5, HUGE]), "probs: an integer past the float range"),
        (_two_atoms(payoffs=[[HUGE, 0.0]]), "payoffs[0]: an integer past the float range"),
        (
            _two_atoms(measures=[{"kind": "entropic", "gamma": HUGE}]),
            "measures[0].gamma: an integer past the float range",
        ),
        (
            _two_atoms(measures=[{"kind": "avar", "lambda": [0.5, HUGE]}]),
            "measures[0].lambda: an integer past the float range",
        ),
        (
            _two_atoms(measures=[{"kind": ["avar"]}]),
            "measures[0].kind: ['avar'] is not one of ['avar', 'entropic', 'neg_expectation', 'worst_case']",
        ),
        (
            _two_atoms(measures=[{"kind": "avar", "lambda": 0.5}, {"kind": "entropic", "gamma": "1.5"}]),
            f"measures[1].gamma: {NUMBER_OR_ARRAY}",
        ),
        (_two_atoms(measures=[{"kind": "avar", "lambda": ["0.5", "1"]}]), f"measures[0].lambda: {NUMBER_OR_ARRAY}"),
        (_two_atoms(payoffs=[["1", 0.5]]), "payoffs[0]: expected an array of JSON numbers"),
        (_two_atoms(payoffs=[[[1], 0.5]]), "payoffs[0]: expected an array of JSON numbers"),
        ('["-1", "-1"]', "--y: expected an array of JSON numbers"),
        ("[[-1], -1]", "--y: expected an array of JSON numbers"),
        ({**_two_atoms(), "typo": 1}, "typo: not one of the fields ['blocks', 'measures', 'payoffs', 'probs']"),
        (
            _two_atoms(measures=[{"kind": "avar", "lambda": 0.5, "gamma": 1.0}]),
            "measures[0].gamma: not one of the fields ['kind', 'lambda']",
        ),
    ],
    ids=[
        "payoffs", "measures", "measures-null", "probs", "payoff", "gamma", "lambda", "kind",
        "gamma-string", "lambda-strings", "payoff-string", "payoff-nested", "y-strings", "y-nested",
        "unknown-key", "gamma-on-avar",
    ],
)
def test_malformed_fields_are_input_errors(capsys, tmp_path, raw, error):
    # a scenario, or the --y of dual penalty (a string) on a valid one; each
    # of these crashed, was read as numbers, or gave numpy's own wording
    path = tmp_path / "bad.json"
    argv = ["space", "validate"]
    if isinstance(raw, str):
        argv, raw = ["dual", "penalty", "--measure", "avar", "--y", raw], _two_atoms()
    path.write_text(json.dumps(raw))
    code, out = run(capsys, argv + ["--scenario", str(path)])
    assert code == 2
    assert out == {"error": error}


def test_dual_penalty_refuses_an_entry_past_the_float_range(capsys, s4_path):
    code, out = run(
        capsys,
        ["dual", "penalty", "--scenario", s4_path, "--measure", "worst_case",
         "--y", f"[-{HUGE}, -1, -1, -1]"],
    )
    assert code == 2
    assert out == {"error": "--y: an integer past the float range"}


# -- the field table under mutation -------------------------------------------------

PARAMS = {"avar": "lambda", "entropic": "gamma", "neg_expectation": None, "worst_case": None}
# stand-ins of each JSON type, integers past the float range, and numbers
JUNK = ["1.5", "x", True, False, None, HUGE, -HUGE, {}, [], 0, -1, 2.5]


def well_typed(raw):
    """The field table written out by hand: every field has its declared JSON
    type, and no key is outside it."""

    def number(v):
        return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max

    def numbers(v):
        return type(v) is list and all(map(number, v))

    def measure(m):
        if type(m) is not dict or type(m.get("kind")) is not str or m["kind"] not in PARAMS:
            return False
        param = PARAMS[m["kind"]]
        return m.keys() == {"kind", param} - {None} and (param is None or number(m[param]) or numbers(m[param]))

    return (
        raw.keys() <= {"probs", "blocks", "measures", "payoffs"}
        and numbers(raw.get("probs"))
        and type(raw.get("blocks")) is list
        and all(type(b) is list and all(type(i) is int for i in b) for b in raw["blocks"])
        and type(raw.get("measures", [])) is list
        and all(map(measure, raw.get("measures", [])))
        and type(raw.get("payoffs", [])) is list
        and all(map(numbers, raw.get("payoffs", [])))
    )


def _paths(node, path=()):
    """The path to each value inside a JSON value, the value itself first."""
    yield path
    children = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_scenarios(draw):
    raw = copy.deepcopy(draw(st.sampled_from([S4, _two_atoms()])))
    for _ in range(draw(st.integers(1, 3))):
        *at, key = draw(st.sampled_from(list(_paths(raw))[1:]))
        parent = functools.reduce(operator.getitem, at, raw)
        change = draw(st.sampled_from(["swap", "nest", "string", "drop", "add"]))
        if change == "swap":
            parent[key] = draw(st.sampled_from(JUNK))
        elif change == "nest":
            parent[key] = [parent[key]]
        elif change == "string":
            parent[key] = json.dumps(parent[key])
        elif change == "drop" and type(parent) is dict:
            del parent[key]
        elif change == "add" and type(parent) is dict:
            parent[draw(st.sampled_from(["extra", "gamma", "lambda", "kind"]))] = draw(st.sampled_from(JUNK))
    return raw


COMMANDS = [
    ["space", "validate"],
    ["risk", "eval", "--measure", "0", "--payoff", "0"],
    ["risk", "check-axioms", "--measure", "1", "--trials", "2"],
    ["dual", "represent", "--measure", "0", "--payoff", "0"],
    ["transfer", "verify", "--measure", "1", "--items", "1,5"],
    ["bvm", "eval", "forall x in u . x = empty", "--bind", "u=name{empty:{1}}"],
    ["bvm", "mix", "--parts", "{1};{2}", "--names", "empty;empty"],
]
Y_VALUES = ["[-1, -1, -1, -1]", "[-1, -1]", '["-1", -1]', "[[-1], -1]", "[true, -1]", "null", f"[-{HUGE}, -1]"]


@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=mutated_scenarios(), y=st.sampled_from(Y_VALUES))
def test_every_command_refuses_a_mutated_scenario_by_its_table(capsys, tmp_path, raw, y):
    # a crash would raise out of main(); exit 0 needs every field's declared type
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(raw))
    for command in COMMANDS + [["dual", "penalty", "--measure", "0", "--y", y]]:
        code = main(command + ["--scenario", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2), (command, out)
        assert "Traceback" not in out + err
        assert code == 2 or well_typed(raw), (command, raw)
        assert code == 0 or "error" in json.loads(out)


# -- refusals made before a command's own work -------------------------------------

ALL_COMMANDS = COMMANDS + [["dual", "penalty", "--measure", "0", "--y", "[-1, -1, -1, -1]"]]
NO_PAYOFFS = "the scenario has no payoffs"
# argv (with S4, MISSING and BARE, a scenario without payoffs, put in) and its error
REFUSALS = {
    **{f"no-scenario-{c[0]}-{c[1]}": (c, "this command needs --scenario") for c in ALL_COMMANDS},
    "missing-file": (["space", "validate", "--scenario", "MISSING"], "scenario file not found: MISSING"),
    # whatever --payoff says
    "no-payoffs-risk-eval": (["risk", "eval", "--scenario", "BARE", "--measure", "0", "--payoff", "0"], NO_PAYOFFS),
    "no-payoffs-dual-represent": (["dual", "represent", "--scenario", "BARE", "--measure", "0"], NO_PAYOFFS),
    "no-payoffs-dual-represent-payoff": (
        ["dual", "represent", "--scenario", "BARE", "--measure", "0", "--payoff", "3"], NO_PAYOFFS
    ),
    "no-payoffs-transfer-verify": (["transfer", "verify", "--scenario", "BARE", "--measure", "0"], NO_PAYOFFS),
    "items": (["transfer", "verify", "--scenario", "S4", "--measure", "0", "--items", "1,x"], "--items: cannot parse '1,x'"),
    "bind": (["bvm", "eval", "x = empty", "--scenario", "S4", "--bind", "u"], "--bind needs NAME=<literal>, got 'u'"),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_refusals_exit_2_with_a_json_error(capsys, tmp_path, s4_path, refusal):
    argv, error = REFUSALS[refusal]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({**S4, "payoffs": []}))
    paths = {"S4": s4_path, "MISSING": str(tmp_path / "missing.json"), "BARE": str(bare)}
    code, out = run(capsys, [paths.get(a, a) for a in argv])
    assert code == 2
    assert out == {"error": error.replace("MISSING", paths["MISSING"])}


def test_script_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["condrisk", "bogus"])
    with pytest.raises(SystemExit) as stop:
        script_entry()
    assert stop.value.code == 2
