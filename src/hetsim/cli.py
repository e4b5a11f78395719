"""Command-line front end: solve, synth, eval-q, query, heatmap, check.

Exit codes are a stable scripting contract: 0 success, 2 config error,
3 non-convergence, 4 I/O error.  A single --seed (or HETSIM_SEED) drives
all randomness through derived streams, so runs are one-flag reproducible;
every command prints its effective configuration first.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import dataio, dense, lowrank, model, synth

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONVERGE = 3
EXIT_IO = 4

# The most radii one eval-q sweep may ask for: the grid is built before the
# first solve.
MAX_SWEEP_POINTS = 10_000


class ConfigError(ValueError):
    pass


def _seed(flag: int | None) -> int:
    """The effective seed: ``--seed``, else HETSIM_SEED, else 0; refused,
    naming its source, unless it is an integer >= 0."""
    if flag is not None:
        if flag < 0:
            raise ConfigError(f"--seed must be an integer >= 0, got {flag}")
        return flag
    env = os.environ.get("HETSIM_SEED", "0")
    try:
        seed = int(env)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"HETSIM_SEED must be an integer >= 0, got {env!r}")
    return seed


def _echo_config(command: str, args: argparse.Namespace) -> None:
    """One strict-JSON line; a non-finite float shows as "nan", "inf" or "-inf"."""
    shown = {k: str(v) if isinstance(v, float) and not np.isfinite(v) else v
             for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps({'command': command, **shown}, default=str)}")


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"malformed layer counts {text!r}") from None


def _parse_sweep(text: str) -> list[float]:
    """The radii r0 + i·step up to r1, each rounded to 12 significant digits."""
    try:
        r0, r1, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"malformed sweep spec {text!r} (want r0:r1:step)") from None
    if not np.isfinite([r0, r1, step]).all():
        raise ConfigError(f"sweep spec {text!r} needs finite r0, r1 and step")
    if step <= 0 or r1 < r0:
        raise ConfigError("sweep spec needs r1 >= r0 and step > 0")
    # Counted before any point is built; a billionth of a step keeps r1 in.
    steps = (r1 - r0) / step + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep spec {text!r} gives {steps + 1:.6g} radii, more than {MAX_SWEEP_POINTS}"
        )
    return [min(float("%.12g" % (r0 + i * step)), r1) for i in range(int(steps) + 1)]


def _svd_config(network: model.HeteroNetwork, args, seed: int) -> lowrank.SvdConfig:
    """SvdConfig from the shared solver options; ``--ranks`` is an integer or 'full'."""
    ranks = args.ranks
    if ranks == "full":
        rank = max((t.size for t in network.types), default=1)
    else:
        try:
            rank = int(ranks)
        except ValueError:
            raise ConfigError(f"--ranks must be an integer or 'full', got {ranks!r}") from None
        if rank < 1:
            raise ConfigError("--ranks must be at least 1")
    return lowrank.SvdConfig(rank=rank, oversample=args.oversample, power=args.power, seed=seed)


def cmd_check(args) -> int:
    network, weights = dataio.load_network(args.bundle)
    weights = weights or model.default_weights(network)
    report = model.check_convergence_conditions(network, weights)
    for t in report.overweight:
        print(f"overweight type: {t} (sum={report.weight_sums[t]:.6g})")
    for t, bound in sorted(report.lyapunov_bounds.items()):
        print(f"lyapunov bound[{t}] = {bound:.6g}")
    print("check: PASS" if report.ok else "check: FAIL")
    return EXIT_OK if report.ok else EXIT_CONFIG


def _stalling(per_type: list[dict[str, float]]) -> str:
    """The type with the largest last residual (on a tie the first in name
    order), that residual, and its ratio to its residual one sweep earlier."""
    last = per_type[-1]
    name = max(last, key=last.get)
    text = f"stalling type {name!r}: residual={last[name]:.6g}"
    if len(per_type) > 1 and per_type[-2][name]:
        text += f", last-sweep ratio={last[name] / per_type[-2][name]:.6g}"
    return text


def _solve(network, weights, args, seed: int, check: bool = True):
    """``(result, trace)`` of the solver ``--solver`` names: factors by type for
    lowrank, a ``SimilaritySet`` otherwise.  Only lyapunov reads ``--c``."""
    config = dense.SolverConfig(tol=args.tol, max_iter=args.max_iter)
    if args.solver == "lowrank":
        svd = _svd_config(network, args, seed)
        return lowrank.solve_lowrank(network, weights, config, svd, check=check)
    if args.solver == "lyapunov":
        return dense.solve_lyapunov(network, weights, config, check=check, damping=args.c)
    return dense.solve_dense(network, weights, config, check=check)


def cmd_solve(args) -> int:
    network, weights = dataio.load_network(args.bundle)
    weights = weights or model.default_weights(network)
    result, trace = _solve(network, weights, args, args.seed, check=not args.force)
    # The writers create --out, so a solve that fails before here leaves none.
    out = Path(args.out)
    if args.solver == "lowrank":
        dataio.save_factors(result, network, out / "factors", args.seed, trace.iterations)
    else:
        dataio.save_similarity(result, network, out / "similarity.csv")
    dataio.save_trace(trace, out / "trace.csv")
    for i, r in enumerate(trace.residuals, start=1):
        print(f"iteration {i}: residual={r:.6g}")
    if not trace.converged:
        print(f"did not converge within {args.max_iter} iterations; "
              f"{_stalling(trace.per_type)}", file=sys.stderr)
        return EXIT_NOCONVERGE
    print(f"converged in {trace.iterations} iterations")
    return EXIT_OK


def cmd_synth(args) -> int:
    out = Path(args.out)
    if args.mode == "random":
        spec = synth.RandomNetworkSpec(k=args.K, n=args.N, seed=args.seed)
        network = synth.random_network(spec)
        dataio.save_network(network, out)
        print(f"wrote bundle with {len(network.types)} types, "
              f"{len(network.relations)} relations to {out}")
    else:
        counts = _parse_counts(args.counts)
        spec = synth.LayeredGraphSpec(counts=counts, radius=args.r, seed=args.seed)
        network, points = synth.layered_points_graph(spec)
        dataio.save_network(network, out)
        dataio.save_points(points, out / "points.csv")
        print(f"wrote layered bundle ({len(counts)} layers) to {out}")
    return EXIT_OK


def cmd_eval_q(args) -> int:
    if args.sweep:
        if args.trials < 1:
            raise ConfigError("--trials must be at least 1")
        counts = _parse_counts(args.counts)
        if min(counts) < 2:  # a layer's quality ranks pairs of other points
            raise ConfigError(f"--counts needs at least 2 points per layer, got {args.counts!r}")
        grid = _parse_sweep(args.sweep)
        for ridx, r in enumerate(grid):
            qs, unconverged = [], 0
            for trial in range(args.trials):
                seq = np.random.SeedSequence(entropy=args.seed, spawn_key=(ridx, trial))
                seed = int(seq.generate_state(1)[0])
                spec = synth.LayeredGraphSpec(counts=counts, radius=r, seed=seed)
                network, points = synth.layered_points_graph(spec)
                result, trace = _solve(network, model.default_weights(network), args, seed)
                block = result["layer0"]  # the sweep prints layer 0's quality alone
                if args.solver == "lowrank":
                    block = block.dense()
                unconverged += not trace.converged
                qs.append(synth.ordering_quality(synth.geometric_ground_truth(points.layers[0]),
                                                 block))
            print(f"r={r:g} meanQ={np.mean(qs):.6g} trials={len(qs)} "
                  f"unconverged={unconverged}")
        return EXIT_OK

    if not args.bundle or not args.similarity:
        raise ConfigError("eval-q needs either --sweep or both --bundle and --similarity")
    network, _ = dataio.load_network(args.bundle)
    points_csv = Path(args.bundle) / "points.csv"
    points = dataio.load_points(points_csv)
    state = dataio.load_similarity(args.similarity, network)
    # Every type layer{k} of the bundle needs its layer k of points.
    numbered = [int(t.name[5:]) for t in network.types
                if re.fullmatch("layer(0|[1-9][0-9]*)", t.name)]
    if beyond := [k for k in numbered if k >= len(points.layers)]:
        raise dataio.BundleError(f"{points_csv}: no points in layer {min(beyond)}")
    for k, layer in enumerate(points.layers):  # layer k is type layer{k}, an entity per point
        if len(state.blocks.get(f"layer{k}", ())) != len(layer):
            raise dataio.BundleError(f"{points_csv}: layer {k} does not fit the bundle")
        if len(layer) < 2:  # the layer's quality ranks pairs of other points
            raise dataio.BundleError(f"{points_csv}: layer {k} has fewer than 2 points")
    qs = synth.layer_quality(points, state.blocks)
    for k, q in enumerate(qs):
        print(f"Q[layer{k}] = {q:.6g}")
    print(f"Q = {qs[0]:.6g}")
    return EXIT_OK


def cmd_query(args) -> int:
    if bool(args.factors) == bool(args.similarity):
        raise ConfigError("query takes exactly one of --factors and --similarity")
    if args.factors:
        # Entity ids live in the bundle; the factors container stores indices.
        if not args.bundle:
            raise ConfigError("--factors queries need --bundle for entity ids")
        states = dataio.load_factors(args.factors, only=args.type)
        t = dataio.load_entity_type(args.bundle, args.type)
        ids, index = t.ids, t.index
        if args.id not in index:
            raise ConfigError(f"unknown entity id {args.id!r} in type {args.type!r}")
        if args.type not in states:
            raise ConfigError(f"no factors for type {args.type!r}")
        if states[args.type].n != t.size:
            raise dataio.BundleError(f"factors for type {args.type!r} do not fit the bundle")
        results = lowrank.top_k(states[args.type], index[args.id], args.k)
    else:
        ids, block = dataio.read_similarity_block(args.similarity, args.type)
        index = {eid: i for i, eid in enumerate(ids)}
        if args.id not in index:
            raise ConfigError(f"unknown entity id {args.id!r} in type {args.type!r}")
        results = lowrank.rank_others(block[index[args.id]], index[args.id], args.k)
    for rank, (j, score) in enumerate(results, start=1):
        print(f"{rank},{ids[j]},{'%.17g' % score}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    if bool(args.factors) == bool(args.similarity):
        raise ConfigError("heatmap takes exactly one of --factors and --similarity")
    if args.similarity:
        _, block = dataio.read_similarity_block(args.similarity, args.type)
    else:
        states = dataio.load_factors(args.factors, only=args.type)
        if args.type not in states:
            raise ConfigError(f"no factors for type {args.type!r}")
        block = states[args.type].dense()
    dataio.export_heatmap(block, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_solver_options(p: argparse.ArgumentParser, solvers: list[str]) -> None:
    """The solver options ``solve`` and ``eval-q`` share, each default once."""
    p.add_argument("--solver", choices=solvers, default="dense")
    p.add_argument("--tol", type=float, default=dense.SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=dense.SolverConfig.max_iter)
    p.add_argument("--ranks", default=str(lowrank.SvdConfig.rank),
                   help="per-type rank (integer) or 'full'")
    p.add_argument("--oversample", type=int, default=lowrank.SvdConfig.oversample)
    p.add_argument("--power", type=int, default=lowrank.SvdConfig.power)
    p.add_argument("--seed", type=int, default=None)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", required=True)


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    _add_solver_options(p, ["dense", "lowrank", "lyapunov"])
    p.add_argument("--c", type=float, default=0.8, help="damping for the lyapunov solver")
    p.add_argument("--force", action="store_true",
                   help="skip the convergence-condition precheck")


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    mode = p.add_subparsers(dest="mode", required=True)
    pr = mode.add_parser("random", help="fully-connected typed network")
    pr.add_argument("--K", type=int, required=True)
    pr.add_argument("--N", type=int, required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", required=True)
    pl = mode.add_parser("layered", help="layered geometric graph with points")
    pl.add_argument("--counts", required=True, help="comma-separated points per layer")
    pl.add_argument("--r", type=float, required=True)
    pl.add_argument("--seed", type=int, default=None)
    pl.add_argument("--out", required=True)


def _eval_q_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle")
    p.add_argument("--similarity")
    p.add_argument("--sweep", help="radius sweep r0:r1:step over fresh layered graphs")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--counts", default="40,40,40")
    _add_solver_options(p, ["dense", "lowrank"])


def _query_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--factors")
    p.add_argument("--similarity")
    p.add_argument("--bundle")
    p.add_argument("--type", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--k", type=int, default=6)


def _heatmap_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--similarity")
    p.add_argument("--factors")
    p.add_argument("--type", required=True)
    p.add_argument("--out", required=True)


# Per command: name, help, argument adder and handler, in the order --help lists them.
COMMANDS = (
    ("check", "run convergence-condition checks on a bundle", _check_arguments, cmd_check),
    ("solve", "solve a bundle and write similarity + trace", _solve_arguments, cmd_solve),
    ("synth", "generate a synthetic bundle", _synth_arguments, cmd_synth),
    ("eval-q", "ordering-quality evaluation", _eval_q_arguments, cmd_eval_q),
    ("query", "top-k most similar entities", _query_arguments, cmd_query),
    ("heatmap", "similarity block as an SVG heatmap", _heatmap_arguments, cmd_heatmap),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one:
    for an argv that starts with that name, both give the same output."""
    parser = argparse.ArgumentParser(
        prog="hetsim", description="Per-type similarity over heterogeneous networks.")
    names = [name for name, *_ in COMMANDS]
    one = command in names
    # A lone command's usage line still lists them all, as argparse would.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(names) if one else None)
    for name, text, add_arguments, handler in COMMANDS:
        if not one or name == command:
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _seed(args.seed)
        _echo_config(args.command, args)
        return args.func(args)
    except (dataio.BundleError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except dense.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGE
    except (ConfigError, model.NetworkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
