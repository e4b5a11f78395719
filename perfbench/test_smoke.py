"""Smoke test of the benchmark on tiny variants of its workloads.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted output file is caught as a failed operation, and that the
benchmark refuses to run without the hetsim sources beside it.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from hetsim import dataio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    # Traced, a few seconds give several traced cycles, so the run also
    # checks that the exact counts repeat between them.
    proc = _run("--workload", workload, "--seed", "3", "--seconds", str(3 * trace),
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        cycles = int(re.search(r"(\d+) timed cycles", proc.stdout).group(1))
        assert cycles >= 4
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def _corrupt_first_value(path: Path) -> None:
    """Replace the value on the first data row of a CSV with a nearby double."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head, _, value = lines[1].rstrip("\n").rpartition(",")
    lines[1] = f"{head},{'%.17g' % (float(value) + 2**-40)}\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("workload", ["dense-cli", "lowrank-biblio"])
def test_corrupted_output_raises_fail_frac(workload, monkeypatch, tmp_path):
    save_similarity, save_factors = dataio.save_similarity, dataio.save_factors

    def corrupt_similarity(state, network, path):
        save_similarity(state, network, path)
        _corrupt_first_value(Path(path))

    def corrupt_factors(states, network, out_dir, seed, iterations):
        save_factors(states, network, out_dir, seed, iterations)
        _corrupt_first_value(next(Path(out_dir).glob("U_*.csv")))

    monkeypatch.setattr(dataio, "save_similarity", corrupt_similarity)
    monkeypatch.setattr(dataio, "save_factors", corrupt_factors)
    res = workloads.run(workload, 3, 0, False, True, tmp_path)
    assert len(res["failures"]) / res["attempted"] > 0
    assert any(f.startswith("write:") for f in res["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
