"""Cold start-up of the CLI: fresh ``python -m hetsim.cli`` processes, a parent
checkout against this one.

Run from the repository root:

    python3 tools/cold_cli.py --parent ../parent --runs 9 --out BENCH_name.json

The change's CLI first writes one ``synth random --K 4 --N 200 --seed 1``
bundle to a temporary directory and solves it dense and low-rank.  Each run
then starts, in each checkout, one fresh process per command on those
files: ``query --similarity``, ``query --factors``, ``heatmap
--similarity`` and ``check``.  Even runs start the parent's processes first
and odd runs the change's, so a drift of the machine's speed falls on both
sides alike.  Every process runs ``python -m hetsim.cli`` with the
checkout's ``src/`` as ``PYTHONPATH`` and one OpenBLAS thread (unless
``OPENBLAS_NUM_THREADS`` is set), its output discarded.  The summary written
to ``--out`` gives, per command and side, each process's wall time and peak
resident size, with their first quartile, median and third quartile.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from paired_bench import ROOT, quartiles

BUNDLE = ["synth", "random", "--K", "4", "--N", "200", "--seed", "1"]


def commands(work: Path) -> dict[str, list[str]]:
    similarity, factors = str(work / "dense" / "similarity.csv"), str(work / "lowrank" / "factors")
    return {
        "query_similarity": ["query", "--similarity", similarity, "--type", "c0", "--id", "c0_1"],
        "query_factors": ["query", "--factors", factors, "--bundle", str(work / "bundle"),
                          "--type", "c0", "--id", "c0_1"],
        "heatmap": ["heatmap", "--similarity", similarity, "--type", "c0",
                    "--out", str(work / "heatmap.svg")],
        "check": ["check", "--bundle", str(work / "bundle")],
    }


def start(checkout: Path, argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak resident MB of one fresh CLI process in ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    cmd = [sys.executable, "-m", "hetsim.cli", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode()  # to its end, so a long message cannot block the child
    _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage, unlike Popen.wait
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{err}")
    return seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def stats(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="the changed checkout (default: this one)")
    parser.add_argument("--runs", type=int, default=9, help="processes per command and side")
    parser.add_argument("--out", type=Path, required=True, help="the summary JSON to write")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "src" / "hetsim" / "cli.py").is_file():
            parser.error(f"--{side} {checkout} has no src/hetsim/cli.py")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for argv in ([*BUNDLE, "--out", str(work / "bundle")],
                     ["solve", "--bundle", str(work / "bundle"), "--out", str(work / "dense")],
                     ["solve", "--bundle", str(work / "bundle"), "--out", str(work / "lowrank"),
                      "--solver", "lowrank"]):
            start(sides["change"], argv)
        cases = commands(work)
        timed = {name: {side: [] for side in sides} for name in cases}
        for k in range(args.runs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                for name, argv in cases.items():
                    timed[name][side].append(start(sides[side], argv))

    doc = {
        "what": "fresh `python -m hetsim.cli` processes, wall seconds and peak resident MB",
        "inputs": " ".join(BUNDLE) + ", solved dense and lowrank at the defaults",
        "order": "run k starts the parent's processes first for even k, the change's for odd k",
        "runs": args.runs,
        "nproc": os.cpu_count(),
        "commands": {
            name: {side: {"seconds": stats([s for s, _ in got]),
                          "rss_mb": stats([mb for _, mb in got])}
                   for side, got in by_side.items()}
            for name, by_side in timed.items()
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
