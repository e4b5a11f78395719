"""Paired A/B runs of the benchmark: a parent checkout against this one.

Run from the repository root:

    python3 tools/paired_bench.py --parent ../parent --pairs 10 --seed 8000 \\
        --out BENCH_name.json --what "what the change does"

For each workload, pair k runs ``perfbench/run.py`` at seed ``--seed + k``
once in each checkout, each from its own root, so each side imports its own
``src/``.  Even pairs run the parent first and odd pairs the change first,
so a drift of the machine's speed falls on both sides alike.  Every other
setting is the same on both sides.  The summary written to ``--out`` gives,
per workload and metric, each side's values, their first quartile, median
and third quartile, the pairs the change won (ties count for neither side),
and whether the gap between the medians exceeds the parent's interquartile
range.  Whether a value is better when higher or lower is read from the
change's ``BENCHMARK.json``; a metric it does not name is better when lower.
Only ``perfbench/run.py`` is run; in each checkout it writes its results
under ``.perfbench/`` and changes nothing else.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"


def run_side(checkout: Path, workload: str, seed: int, args) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: both sides' values and quartiles, the change's wins, and the
    median gap against the parent's interquartile range."""
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": "higher" if sign < 0 else "lower",
            "parent": parent,
            "change": change,
            "parent_q1": p1, "parent_median": pm, "parent_q3": p3,
            "change_q1": c1, "change_median": cm, "change_q3": c3,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_change_rel": round(cm / pm - 1, 4) if pm else None,
            "gap_exceeds_parent_iqr": sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1,
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="the changed checkout (default: this one)")
    parser.add_argument("--workloads", default="dense-grid,dense-cli,lowrank-biblio",
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="the seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's small inputs")
    parser.add_argument("--out", type=Path, required=True, help="the summary JSON to write")
    parser.add_argument("--what", default="", help="what the change does, for the summary")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / RUN).is_file():
            parser.error(f"--{side} {checkout} has no {RUN}")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    seeds = list(range(args.seed, args.seed + args.pairs))
    workloads = {}
    for workload in args.workloads.split(","):
        pairs = []
        for k, seed in enumerate(seeds):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            got = {side: run_side(sides[side], workload, seed, args) for side in order}
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} seed {seed}: {' then '.join(order)} done", flush=True)
        workloads[workload] = {
            "seeds": seeds,
            "operations": {side: {key: sum(pair[i][key] for pair in pairs)
                                  for key in ("attempted", "failed")}
                           for i, side in enumerate(["parent", "change"])},
            "metrics": summary(pairs, better),
        }
    flags = f" --trace {args.trace}" + " --tiny" * args.tiny
    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g}{flags}",
        "order": "pair k runs the parent first for even k, the change first for odd k",
        "pairs": args.pairs,
        "nproc": os.cpu_count(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
