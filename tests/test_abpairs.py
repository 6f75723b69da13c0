"""The decision rule of ``tools/abpairs.py``: a change beats its parent
when it wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ by more than the parent's IQR."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"
_SPEC = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)

PARENT = [1.00, 1.02, 1.04, 1.01, 1.03, 1.05, 1.00, 1.02, 1.04, 1.03]


def test_a_clear_gain_passes():
    change = [x - 0.10 for x in PARENT]
    v = abpairs.verdict(PARENT, change)
    assert (v["wins"], v["ties"], v["wins_needed"]) == (10, 0, 9)
    assert v["gap"] == pytest.approx(0.10)
    assert v["passed"]


def test_nine_of_ten_wins_is_enough_and_eight_is_not():
    change = [x - 0.10 for x in PARENT]
    change[3] = PARENT[3] + 0.01
    assert abpairs.verdict(PARENT, change)["passed"]
    change[5] = PARENT[5]                      # a tie is not a win
    v = abpairs.verdict(PARENT, change)
    assert (v["wins"], v["ties"], v["passed"]) == (8, 1, False)


def test_every_pair_won_by_less_than_the_iqr_fails():
    """The parent's quartiles are 1.0125 and 1.0375 (inclusive), so a
    gap of 0.02 in every pair is inside its spread."""
    change = [x - 0.02 for x in PARENT]
    v = abpairs.verdict(PARENT, change)
    assert v["wins"] == 10
    assert v["parent_iqr"] == pytest.approx(0.025)
    assert not v["passed"]


def test_a_slower_change_wins_nothing():
    v = abpairs.verdict(PARENT, [x + 0.10 for x in PARENT])
    assert (v["wins"], v["passed"]) == (0, False)


def test_the_need_rounds_up_and_the_lists_must_pair():
    assert abpairs.verdict(PARENT[:2] * 6, PARENT[:2] * 6)["wins_needed"] == 11
    with pytest.raises(ValueError):
        abpairs.verdict(PARENT, PARENT[:9])


def test_each_side_runs_first_in_turn_and_seeds_parse():
    assert [abpairs.order(r)[0] for r in range(4)] \
        == ["parent", "change", "aa", "parent"]
    assert all(sorted(abpairs.order(r)) == sorted(abpairs.SIDES)
               for r in range(3))
    assert abpairs.parse_seeds("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]


def _main_on(monkeypatch, change, aa):
    """``main`` over ten seeds, ``run_once`` replaced by a lookup of each
    checkout's p50 by seed."""
    by_tree = {Path("parent"): PARENT, Path("change"): change,
               Path("aa"): aa}

    def run_once(tree, workload, seed, seconds):
        return {"correct": True, "failed": 0,
                "metrics": {abpairs.METRIC: {"value": by_tree[tree][seed]}}}
    monkeypatch.setattr(abpairs, "run_once", run_once)
    return abpairs.main(["parent", "change", "aa", "--workload", "w",
                         "--seeds", "0-9"])


def test_exit_status_needs_the_change_to_pass_and_the_control_to_fail(
        monkeypatch, capsys):
    faster = [x - 0.10 for x in PARENT]
    assert _main_on(monkeypatch, faster, PARENT) == 0
    assert _main_on(monkeypatch, faster, faster) == 2
    assert "inconclusive" in capsys.readouterr().out
    assert _main_on(monkeypatch, PARENT, faster) == 1
