"""``tools/paired_bench.py``: one tiny pair, and its summary arithmetic."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "paired_bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tool():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tiny_pair_of_this_checkout(tmp_path):
    out = tmp_path / "BENCH.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--pairs", "1", "--seed", "3",
         "--seconds", "0", "--tiny", "--workloads", "dense-cli", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - started < 10
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pairs"] == 1 and list(doc["workloads"]) == ["dense-cli"]
    run = doc["workloads"]["dense-cli"]
    assert run["seeds"] == [3]
    for side in ("parent", "change"):
        assert run["operations"][side]["failed"] == 0
        assert run["operations"][side]["attempted"] >= 1
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in run["metrics"].values():
        assert len(m["parent"]) == len(m["change"]) == 1
        assert m["parent_q1"] == m["parent_median"] == m["parent_q3"] == m["parent"][0]
        assert m["change_wins"] == (m["change"][0] < m["parent"][0])


def test_summary_counts_wins_and_compares_the_gap_with_the_parent_iqr():
    def pairs(name, parent, change):
        return [({"metrics": {name: {"value": p, "unit": "s"}}},
                 {"metrics": {name: {"value": c, "unit": "s"}}}) for p, c in zip(parent, change)]

    tool = _tool()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    # Lower is better: 4 wins, 1 tie; the median gap 4 exceeds the IQR, 13.5 - 10.5.
    got = tool.summary(pairs("x_s", parent, [6.0, 7.0, 8.0, 9.0, 14.0]), {})["x_s"]
    assert got["change_wins"] == 4 and got["pairs"] == 5
    assert (got["parent_q1"], got["parent_median"], got["parent_q3"]) == (10.5, 12.0, 13.5)
    assert got["change_median"] == 8.0 and got["gap_exceeds_parent_iqr"]
    # Higher is better: the same values are 4 losses, and a gap the wrong way.
    got = tool.summary(pairs("r", parent, [6.0, 7.0, 8.0, 9.0, 14.0]), {"r": "higher"})["r"]
    assert got["change_wins"] == 0 and not got["gap_exceeds_parent_iqr"]
    # Five wins, but a median gap of 1, within the parent's IQR.
    got = tool.summary(pairs("x_s", parent, [9.0, 10.0, 11.0, 12.0, 13.0]), {})["x_s"]
    assert got["change_wins"] == 5 and not got["gap_exceeds_parent_iqr"]


def test_one_cold_run_per_side_of_this_checkout(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cold_cli.py"), "--parent", str(ROOT), "--runs", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["runs"] == 1
    assert list(doc["commands"]) == ["query_similarity", "query_factors", "heatmap", "check"]
    for sides in doc["commands"].values():
        assert list(sides) == ["parent", "change"]
        for side in sides.values():
            for got in side.values():
                assert len(got["values"]) == 1 and got["values"][0] > 0
                assert got["q1"] == got["median"] == got["q3"] == got["values"][0]
