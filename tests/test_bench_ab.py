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
    got = bench_ab.paired_stats(parent, change, "higher", 0.25)
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
        "gain": pytest.approx(19.5, abs=1e-12),
        "claim_met": True,
        "within_bound": True,
    }


def test_paired_stats_counts_wins_by_direction_and_no_ties():
    # lower is better: the first pair is a win, the second a tie, the third a loss
    got = bench_ab.paired_stats([2.0, 3.0, 2.5], [1.5, 3.0, 2.75], "lower", 0.25)
    assert (got["change_wins"], got["ties"]) == (1, 1)
    assert (got["parent_median"], got["change_median"]) == (2.5, 2.75)
    assert (got["parent_iqr"], got["change_iqr"]) == (0.5, 0.75)
    assert got["ratio_median"] == 1.0
    # every ratio equal: the interval is that ratio
    same = bench_ab.paired_stats([1.0, 2.0, 4.0], [2.0, 4.0, 8.0], "higher", 0.25)
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
        bench_ab.paired_stats(parent, change, better, 0.25)


# ten pairs of a lower-is-better metric: the parent's median is 3.0 and its
# interquartile range 0.1; each change below reads 0.5 lower in every pair
# it wins
_PARENT = [3.0, 2.95, 3.05, 2.9, 3.1, 3.0, 2.95, 3.05, 2.9, 3.1]


@pytest.mark.parametrize(
    "lost, tied, met",
    [
        ((), (), True),
        ((0,), (), True),  # 9 wins of 10
        ((), (0,), True),  # a tie counts for neither
        ((0, 1), (), False),  # 8 wins
        ((0,), (1,), False),  # 8 wins and a tie
    ],
)
def test_the_claim_needs_nine_wins_of_ten(lost, tied, met):
    change = [v + 0.5 if i in lost else v if i in tied else v - 0.5 for i, v in enumerate(_PARENT)]
    got = bench_ab.paired_stats(_PARENT, change, "lower", 0.25)
    assert got["parent_iqr"] == pytest.approx(0.1, abs=1e-12)
    assert (got["change_wins"], got["ties"]) == (10 - len(lost) - len(tied), len(tied))
    assert got["claim_met"] is met


@pytest.mark.parametrize("shift, met", [(1.0, False), (1.0 + 2**-20, True)])
def test_the_claims_median_gain_must_exceed_the_parents_iqr(shift, met):
    # every pair won, by a shift equal to the parent's IQR (1.0, exact in
    # binary) or just past it
    parent = [2.0, 2.5, 3.0, 3.5, 4.0]
    change = [v - shift for v in parent]
    got = bench_ab.paired_stats(parent, change, "lower", 0.25)
    assert got["change_wins"] == 5 and got["parent_iqr"] == 1.0
    assert got["claim_met"] is met


@pytest.mark.parametrize("failed, met", [((0.0, 0.0), True), ((0.02, 0.01), True), ((0.0, 0.01), False)])
def test_the_claim_fails_no_larger_share_of_jobs(failed, met):
    change = [v - 0.5 for v in _PARENT]
    assert bench_ab.paired_stats(_PARENT, change, "lower", 0.25, failed)["claim_met"] is met


@pytest.mark.parametrize(
    "better, change, within",
    [
        ("lower", 125.0, True),  # 25% worse, at the bound
        ("lower", 125.5, False),
        ("lower", 50.0, True),
        ("higher", 75.0, True),
        ("higher", 74.5, False),
        ("higher", 150.0, True),
    ],
)
def test_within_bound_reads_the_median_against_the_parents(better, change, within):
    got = bench_ab.paired_stats([100.0] * 3, [change] * 3, better, 0.25)
    assert got["within_bound"] is within
