"""scripts/bench_pairs.py: its statistics on fixed numbers, and how it reads
a run, with stand-in run.py scripts instead of the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


bench_pairs = load_script()

PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
CHANGE = [0.9, 2.0, 3.3, 3.0, None]     # the last change run gave no value


def test_summary_of_a_lower_is_better_metric():
    got = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert got["parent_median"] == 3.0
    assert got["change_median"] == 2.5
    assert got["parent_quartiles"] == [2.0, 4.0]
    assert got["ratios"] == pytest.approx([0.9, 1.0, 1.1, 0.75])
    # the tie (2.0, 2.0) counts for neither side, the incomplete pair is out
    assert (got["pairs"], got["pairs_won"], got["pairs_lost"]) == (4, 2, 1)


def test_summary_of_a_higher_is_better_metric():
    got = bench_pairs.summarize(PARENT, CHANGE, "higher")
    assert (got["pairs"], got["pairs_won"], got["pairs_lost"]) == (4, 1, 2)


def test_summary_without_values():
    got = bench_pairs.summarize([None], [4.0], "lower")
    assert got["parent_median"] is None and got["parent_quartiles"] is None
    assert got["change_median"] == 4.0
    assert (got["ratios"], got["pairs"], got["pairs_won"]) == ([], 0, 0)


def test_pairs_swap_the_side_that_runs_first():
    assert [bench_pairs.pair_order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]


@pytest.mark.parametrize("stdout, want", [
    ("# summary\nwall_s 1\n{\"failed\": 0}\n\n", {"failed": 0}),
    ("# summary only\n", None),
    ("[1, 2]\n", None),
    ("", None),
])
def test_last_json_line(stdout, want):
    assert bench_pairs.last_json_line(stdout) == want


def fake_checkout(tmp_path, body):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(body)
    return tmp_path


def test_a_run_with_failed_operations_is_kept_and_marked(tmp_path):
    result = {"correct": False, "attempted": 7, "failed": 2,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    checkout = fake_checkout(
        tmp_path, "import sys\nprint('# summary')\n"
        f"print({json.dumps(json.dumps(result))})\nsys.exit(1)\n")
    run = bench_pairs.run_once(checkout, "tables", 1.0)
    assert run == {"exit": 1, "attempted": 7, "failed": 2,
                   "marked_failed": True, "metrics": {"wall_s": 0.5}}


def test_a_run_without_a_result_is_kept_and_marked(tmp_path):
    checkout = fake_checkout(
        tmp_path, "import sys\nprint('benchmark error: no src', "
        "file=sys.stderr)\nsys.exit(2)\n")
    run = bench_pairs.run_once(checkout, "tables", 1.0)
    assert run["exit"] == 2 and run["marked_failed"]
    assert run["metrics"] is None and "no src" in run["error"]


def test_report_keeps_every_run_in_pair_order():
    def run(value, failed=0):
        return {"exit": int(bool(failed)), "attempted": 3, "failed": failed,
                "marked_failed": bool(failed), "metrics": {"wall_s": value}}

    runs = {"tables": {"parent": [run(1.0), run(2.0, failed=1)],
                       "change": [run(0.5), run(3.0)]}}
    metric = {"name": "wall_s", "unit": "s", "better": "lower",
              "bound": 0.25}
    got = bench_pairs.report(runs, [metric])["tables"]
    assert [(r["pair"], r["side"], r["first"]) for r in got["runs"]] == [
        (0, "parent", True), (0, "change", False),
        (1, "change", True), (1, "parent", False)]
    assert [r["marked_failed"] for r in got["runs"]] == [
        False, False, False, True]
    wall = got["metrics"]["wall_s"]
    assert (wall["bound"], wall["pairs_won"], wall["pairs_lost"]) == (
        0.25, 1, 1)
    assert wall["ratios"] == [0.5, 1.5]
