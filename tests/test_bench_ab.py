"""The statistics of ``tools/bench_ab.py`` on fixed numbers; no run is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def test_paired_stats_of_ten_pairs():
    parent = [320.0, 315.5, 330.2, 318.9, 325.1, 310.4, 322.8, 319.3, 327.6, 316.0]
    change = [341.2, 335.0, 338.8, 344.1, 329.9, 336.7, 345.3, 339.5, 333.3, 350.2]
    got = bench_ab.paired_stats(parent, change, "higher")
    assert got == {
        "better": "higher",
        "parent_median": pytest.approx(319.65, abs=1e-12),
        "parent_iqr": pytest.approx(7.8, abs=1e-12),
        "change_median": pytest.approx(339.15, abs=1e-12),
        "change_iqr": pytest.approx(7.95, abs=1e-12),
        "change_wins": 10,
        "ties": 0,
        "pairs": 10,
        "ratio_median": pytest.approx(1.0647566943313498, abs=1e-15),
        # the bootstrap's generator is seeded, so its interval repeats
        "ratio_ci95": [pytest.approx(1.0260448213204119, abs=1e-15), pytest.approx(1.079021636876764, abs=1e-15)],
    }


def test_paired_stats_counts_wins_by_direction_and_no_ties():
    # lower is better: the first pair is a win, the second a tie, the third a loss
    got = bench_ab.paired_stats([2.0, 3.0, 2.5], [1.5, 3.0, 2.75], "lower")
    assert (got["change_wins"], got["ties"]) == (1, 1)
    assert (got["parent_median"], got["change_median"]) == (2.5, 2.75)
    assert (got["parent_iqr"], got["change_iqr"]) == (0.5, 0.75)
    assert got["ratio_median"] == 1.0
    # every ratio equal: the interval is that ratio
    same = bench_ab.paired_stats([1.0, 2.0, 4.0], [2.0, 4.0, 8.0], "higher")
    assert same["ratio_median"] == 2.0 and same["ratio_ci95"] == [2.0, 2.0] and same["change_wins"] == 3


@pytest.mark.parametrize(
    "parent, change, better, message",
    [
        ([1.0, 2.0], [1.0], "higher", "one value per side for each pair"),
        ([], [], "higher", "one value per side for each pair"),
        ([1.0], [2.0], "faster", "better must be 'higher' or 'lower'"),
    ],
)
def test_paired_stats_refuses_unpaired_values_and_unknown_directions(parent, change, better, message):
    with pytest.raises(ValueError, match=message):
        bench_ab.paired_stats(parent, change, better)
