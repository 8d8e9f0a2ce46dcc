"""The README's Python examples run, and produce the values their comments state."""

import math
import re
from pathlib import Path

import numpy as np

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
