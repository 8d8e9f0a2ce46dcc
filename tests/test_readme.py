"""The README's Python examples run, and produce the values their comments
state; its CLI lines run on its scenario."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np

from condrisk import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_readme_examples_run_and_match_their_comments():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)

    # each checked line must still be in the README, with its comment
    lines = {line.split("#")[0].strip(): line for b in blocks for line in b.splitlines()}
    checks = {
        "measure.evaluate(x).values": (
            "array([0.6931..., 0.0])",
            lambda v: np.allclose(v, [math.log(2.0), 0.0], atol=1e-12),
        ),
        "res.value.values, res.maximizer.values": (
            "dual value and admissible maximizer",
            lambda v: np.allclose(v[0], ns["measure"].evaluate(ns["x"]).values, atol=1e-6)
            and ns["res"].maximizer.is_admissible(ns["space"]),
        ),
        "report.all_equivalences_hold": ("True", lambda v: v is True),
        'cr.evaluate(f, {"u": u})': (
            "the unity: holds everywhere",
            lambda v: v == ns["space"].algebra.element([1, 2]),
        ),
        'cr.collapse_eval(f, 2, {"u": u})': ("two-valued check at atom 2", lambda v: v is True),
    }
    for expr, (comment, holds) in checks.items():
        assert expr in lines, expr
        assert comment in lines[expr], (expr, comment)
        assert holds(eval(expr, ns)), expr
    assert sorted(ns["report"].items) == [1, 5]


def test_readme_cli_lines_run_on_its_scenario(capsys, monkeypatch, tmp_path):
    section = README.read_text().split("## CLI", 1)[1]
    scenario = re.search(r"```json\n(.*?)```", section, flags=re.S).group(1)
    (tmp_path / "s4.json").write_text(scenario)
    monkeypatch.chdir(tmp_path)
    lines = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1).splitlines()
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1, line
        json.loads(out[0])
    shown = {tuple(shlex.split(line)[1:3]) for line in lines}
    assert shown == {(group, command) for group, (_, commands) in cli._COMMANDS.items() for command in commands}
