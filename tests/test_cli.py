import json
import math

import pytest

from condrisk import duality
from condrisk.cli import ingest, main
from condrisk.cli import ScenarioError

LOG2 = math.log(2.0)


@pytest.fixture
def s4_path(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(
        json.dumps(
            {
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
        )
    )
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
    path.write_text(
        json.dumps(
            {
                "probs": [0.25, 0.25, 0.25, 0.25],
                "blocks": [[1, 2], [3, 4]],
                "measures": [{"kind": "entropic", "gamma": None}],
                "payoffs": [[1, 3, 2, 6]],
            }
        )
    )
    with pytest.raises(ScenarioError, match=r"measures\[0\]: gamma must be finite"):
        ingest(str(path))
    raw = json.loads(path.read_text())
    for bad in ({}, "abc", [1.0, None]):
        raw["measures"][0]["gamma"] = bad
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match=r"measures\[0\]: gamma must be"):
            ingest(str(path))
    raw["measures"][0]["gamma"] = None
    path.write_text(json.dumps(raw))
    code, out = run(
        capsys,
        ["risk", "eval", "--scenario", str(path), "--measure", "entropic", "--payoff", "0"],
    )
    assert code == 2
    assert out["error"].startswith("measures[0]: gamma must be finite")


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
    ],
    ids=["probs", "payoff", "lambda", "gamma"],
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


def test_ingest_print_roundtrip(s4_path, tmp_path):
    first = ingest(s4_path)
    echoed = tmp_path / "echo.json"
    echoed.write_text(json.dumps(first.to_dict()))
    second = ingest(str(echoed))
    assert second.to_dict() == first.to_dict()
    assert second.space.blocks == first.space.blocks
    assert [m.label for m in second.measures] == [m.label for m in first.measures]
    assert all(a == b for a, b in zip(second.payoffs, first.payoffs))


def test_unknown_command_exits_2():
    assert main(["bogus"]) == 2
