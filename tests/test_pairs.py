"""The parent/change pair runner's summary and file check, without running the harness."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

DIRECTIONS = {"wall_s": "lower", "rows_per_s": "higher"}


def _runs(parent_walls, change_walls):
    runs = []
    for i, (p, c) in enumerate(zip(parent_walls, change_walls), 1):
        order = [("parent", p), ("change", c)] if i % 2 else [("change", c), ("parent", p)]
        for side, wall in order:
            runs.append({"pair": i, "side": side, "correct": True, "metrics": {"wall_s": wall, "rows_per_s": 1 / wall}})
    return runs


def _doc(runs):
    n = len(runs) // 2
    workload = {"parent": "a", "change": "b", "pairs": n, "seconds": 1, "seed": None, "runs": runs}
    workload["metrics"] = pairs.summarize(runs, DIRECTIONS)
    return {"workloads": {"wss_all": workload}}


def test_summary_counts_wins_by_direction():
    runs = _runs([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 1.0, 4.0])
    summary = pairs.summarize(runs, DIRECTIONS)
    wall = summary["wall_s"]
    assert wall["wins"] == 2 and wall["pairs"] == 4  # a tie is not a win
    assert wall["parent"]["median"] == 2.5 and wall["change"]["median"] == 1.75
    assert wall["parent_iqr"] == wall["parent"]["q3"] - wall["parent"]["q1"] > 0
    assert summary["rows_per_s"]["wins"] == 2  # higher is better, the same two pairs


def test_a_single_pair_has_no_spread():
    wall = pairs.summarize(_runs([1.0], [2.0]), DIRECTIONS)["wall_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert wall["parent_iqr"] == 0 and wall["wins"] == 0


def test_check_accepts_only_well_formed_correct_files():
    doc = _doc(_runs([1.0, 2.0], [1.0, 2.0]))
    assert pairs.check(doc) == []
    doc["workloads"]["wss_all"]["runs"][1]["correct"] = False
    assert pairs.check(doc)
    doc = _doc(_runs([1.0, 2.0], [1.0, 2.0]))
    del doc["workloads"]["wss_all"]["runs"][0]
    assert pairs.check(doc)
    doc = _doc(_runs([1.0, 2.0], [1.0, 2.0]))
    doc["workloads"]["wss_all"]["metrics"]["wall_s"]["wins"] = 3
    assert pairs.check(doc)
    doc = _doc(_runs([1.0, 2.0], [1.0, 2.0]))
    del doc["workloads"]["wss_all"]["metrics"]
    assert pairs.check(doc)
    assert pairs.check({}) == ["no workloads"]
