"""Seeded end-to-end and per-layer benchmark of the hetsim CLI path.

Run from the repository root:

    python3 perfbench/run.py --workload dense-cli --seed 0 --seconds 30 --trace 0

Untraced (``--trace 0``) it prints the end-to-end metrics; traced
(``--trace 1``) it prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, and the spans of a traced run, are written
under ``.perfbench/results/``.  hetsim is imported from ``src/`` of the
same checkout; without it the benchmark exits with code 2.
"""

import os
import sys

# Pinned before numpy is imported: the bit-exact factor checks hold only at
# a fixed BLAS thread count, and one thread is also the faster setting for
# these problem sizes on two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dense-grid", "dense-cli", "lowrank-biblio"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hetsim" / "__init__.py").is_file():
        print(f"error: no hetsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    base = ROOT / ".perfbench"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' * args.tiny}"
    tracer = res.pop("tracer")
    if tracer is not None:
        tracer.write_jsonl(results / f"{stem}-spans.jsonl")
    env = environment()
    failed = len(res["failures"])
    for line in res["failures"][:20]:
        print(f"FAIL {line}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed}: {res['cycles']} timed cycles, "
          f"{res['query_samples']} query samples")
    for name, m in res["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if res["raw_medians"]:
        print(f"{args.workload} unscaled medians: " + ", ".join(
            f"{name} = {v:.6g} s" for name, v in res["raw_medians"].items()))
    print(f"{args.workload} fail_frac = {failed / res['attempted']:.6g} ratio "
          f"({failed} failed checks / {res['attempted']} operations)")
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **res}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
