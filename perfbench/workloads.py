"""Seeded workloads that drive hetsim through the calls the CLI makes.

A run repeats one cycle, the CLI's order on the workload's bundles:

    setup    dataio.load_network + model.default_weights, every bundle
    solve    dense.solve_dense or lowrank.solve_lowrank, every network
    write    dataio.save_similarity or dataio.save_factors, first network
    query    cli.main(["query", ...]) per sampled id, stdout captured
    heatmap  cli.main(["heatmap", ...])

Cycles are kept short (1-2 s), so that one run holds many of them and
every metric is sampled over the whole run.  Two fixed reference tasks run
before each cycle and after each stage, and the stage times are scaled by
them to one machine speed; see ``reference_s`` and ``cycle_times``.

Bundles are written during untimed preparation.  Every output is checked
after its cycle, outside the cycle's timers; see ``check_cycle``.  Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse

from hetsim import cli, dataio, dense, lowrank, model, synth
from tracing import Tracer, layer_totals

QUERY_K = 10
# test_10's stationarity criterion: this many consecutive relative
# residuals below REL_TOL.
STATIONARY_RUN = 5
REL_TOL = 1e-3
# Dense blocks are symmetric up to rounding in the sandwich W S W^T.
SYMMETRY_TOL = 1e-12
# A run times at least this many cycles after its warm-up cycle.
MIN_CYCLES = 2
# Distinct ids the queries rotate through.
QUERY_IDS = 16

END_TO_END = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("write_s", "s"),
    ("query_p50_s", "s"),
    ("heatmap_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("model.check_convergence_conditions.s", "s"),
    ("model.coupling_operators.s", "s"),
    ("model.column_stochastic.calls", "count"),
    ("dense.sweep.calls", "count"),
    ("dense.sweep.s", "s"),
    ("dense.residual.s", "s"),
    ("dense.residual_by_type.s", "s"),
    ("dense.sweep.gflop_computed", "Gflop"),
    ("dense.sweep.gflop_per_s", "Gflop/s"),
    ("lowrank.sweep_lowrank.calls", "count"),
    ("lowrank.sweep_lowrank.s", "s"),
    ("lowrank.build_update_operator.s", "s"),
    ("lowrank.UpdateOperator.apply.calls", "count"),
    ("lowrank.UpdateOperator.apply.s", "s"),
    ("lowrank.UpdateOperator.diagonal.s", "s"),
    ("lowrank.spmv_count", "count"),
    ("lowrank.randomized_eig.calls", "count"),
    ("lowrank.randomized_eig.s", "s"),
    ("lowrank.randomized_eig.self_s", "s"),
    ("lowrank.factored_residual.s", "s"),
    ("lowrank.sweeps_to_stationary", "count"),
    ("lowrank.top_k.s", "s"),
    ("lowrank.FactoredSimilarity.dense.s", "s"),
    ("dataio.load_network.s", "s"),
    ("dataio.save_similarity.s", "s"),
    ("dataio.save_similarity.bytes", "bytes"),
    ("dataio.save_factors.s", "s"),
    ("dataio.save_factors.bytes", "bytes"),
    ("dataio.read_similarity_block.s", "s"),
    ("dataio.load_factors.s", "s"),
    ("dataio.export_heatmap.s", "s"),
    ("dataio.export_heatmap.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.traced_total_s", "s"),
    ("trace.overhead_s", "s"),
]

# Counts that must repeat exactly from one traced cycle to the next.
EXACT_COUNTS = [
    "dense.sweep.calls",
    "model.column_stochastic.calls",
    "lowrank.spmv_count",
    "lowrank.UpdateOperator.apply.calls",
    "dataio.save_similarity.bytes",
    "dataio.save_factors.bytes",
    "dataio.export_heatmap.bytes",
]


# -- inputs -------------------------------------------------------------------


def typed_random_network(sizes, rng) -> model.HeteroNetwork:
    """``synth random``'s edge rule on fixed type sizes.

    One relation per unordered type pair, 2 * min(|t_i|, |t_j|) distinct
    edges drawn uniformly without replacement.  The sizes are fixed so that
    the cost of a solve does not depend on the seed; only the edges do.
    """
    type_specs = [
        (f"c{i}", [f"c{i}_{j}" for j in range(n)]) for i, n in enumerate(sizes)
    ]
    relation_specs = []
    for i, si in enumerate(sizes):
        for j in range(i + 1, len(sizes)):
            sj = sizes[j]
            cells = rng.choice(si * sj, size=2 * min(si, sj), replace=False)
            rows, cols = np.divmod(cells, sj)
            edges = [(f"c{i}_{a}", f"c{j}_{b}") for a, b in zip(rows, cols)]
            relation_specs.append((f"r_c{i}_c{j}", f"c{i}", f"c{j}", edges))
    return model.build_network(type_specs, relation_specs)


def grid_networks(seed: int, count: int, k: int, n: int) -> list[model.HeteroNetwork]:
    """``count`` networks with the type sizes ``synth random --K k --N n`` draws
    at generator seeds 0..count-1, and edges drawn from ``seed``."""
    nets = []
    for i in range(count):
        spec = synth.RandomNetworkSpec(k=k, n=n, seed=i)
        sizes = [t.size for t in synth.random_network(spec).types]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        nets.append(typed_random_network(sizes, rng))
    return nets


def biblio_network(seed: int, sizes: dict[str, int]) -> model.HeteroNetwork:
    """test_10's bibliographic network; generator seed 42 + ``seed``, so
    seed 0 reproduces test_10 exactly at its sizes."""
    rng = np.random.default_rng(42 + seed)
    type_specs = [
        (name, [f"{name[0]}{i}" for i in range(n)]) for name, n in sizes.items()
    ]
    relation_specs = []
    for name, src, dst in (
        ("published_in", "papers", "venues"),
        ("written_by", "papers", "authors"),
        ("hosts", "venues", "authors"),
    ):
        m = 3 * max(sizes[src], sizes[dst])
        a = rng.integers(0, sizes[src], m)
        b = rng.integers(0, sizes[dst], m)
        pairs = np.unique(np.stack([a, b], axis=1), axis=0)
        relation_specs.append(
            (name, src, dst, [(f"{src[0]}{i}", f"{dst[0]}{j}") for i, j in pairs])
        )
    return model.build_network(type_specs, relation_specs)


# test_10's sizes (papers 3625, venues 99, topics 65, authors 554) scaled
# by 0.15, so that one solve takes about a second.
BIBLIO_SIZES = {"papers": 544, "venues": 15, "topics": 10, "authors": 83}
BIBLIO_TINY = {"papers": 120, "venues": 12, "topics": 4, "authors": 24}


@dataclass(frozen=True)
class Workload:
    """One cycle solves every network; then the first network's result is
    written, queried ``queries`` times and drawn once."""

    name: str
    solver: str  # "dense" or "lowrank"
    tol: float
    max_iter: int
    query_type: str
    queries: int
    rank: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-grid", "dense", 1e-6, 150, "c0", 2),
        Workload("dense-cli", "dense", 1e-9, 300, "c0", 3),
        # tol 1e-12 is never met, so every solve runs all 120 sweeps; the
        # stationarity check first holds at sweep 82-94 on the seeds tried.
        Workload("lowrank-biblio", "lowrank", 1e-12, 120, "authors", 3, rank=15),
    )
}
TINY = {
    "dense-grid": Workload("dense-grid", "dense", 1e-6, 150, "c0", 2),
    "dense-cli": Workload("dense-cli", "dense", 1e-9, 300, "c0", 3),
    "lowrank-biblio": Workload("lowrank-biblio", "lowrank", 1e-12, 100, "authors", 3, rank=8),
}


def make_networks(name: str, seed: int, tiny: bool) -> list[model.HeteroNetwork]:
    if name == "dense-grid":
        return grid_networks(seed, 2, 3, 12) if tiny else grid_networks(seed, 4, 10, 100)
    if name == "dense-cli":
        # The type sizes synth random --K 4 --N 200 draws at its seed 1.
        sizes = [20, 24, 28] if tiny else [147, 151, 176, 195]
        return [
            typed_random_network(sizes, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))))
            for i in range(2 if tiny else 3)
        ]
    return [biblio_network(seed, BIBLIO_TINY if tiny else BIBLIO_SIZES)]


# -- one cycle ------------------------------------------------------------------


def _setup(bundles):
    loaded = []
    for b in bundles:
        net, weights = dataio.load_network(b)
        if weights is None:
            weights = model.default_weights(net)
        loaded.append((net, weights))
    return loaded


def _cli(argv) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0


class SpmvCounter:
    """Sums ``spmv_count`` over the update operators a solve builds.

    ``sweep_lowrank`` finishes with one operator before it builds the next,
    so a count is final once the next operator arrives.  Only the latest is
    held: each one references its partners' factors.
    """

    def __init__(self):
        self.total = 0
        self._last = None

    def __call__(self, op):
        self.flush()
        self._last = op

    def flush(self):
        if self._last is not None:
            self.total += self._last.spmv_count
            self._last = None


# -- machine speed ----------------------------------------------------------------

# The benchmark's host is shared, and its speed drifts, by up to a factor of
# two over minutes and by tens of percent within a second: every stage of a
# run slows together, interpreted code more than compiled kernels.  So two
# fixed reference tasks run before each cycle and after each of its stages,
# and each stage time is also reported scaled to the speed at which the
# tasks take INTERPRETER_S and KERNELS_S; see ``cycle_times``.
INTERPRETER_S = 0.0095
KERNELS_S = 0.009
_REF_RNG = np.random.default_rng(0)
_REF_SQUARE = _REF_RNG.random((200, 200))
_REF_TALL = _REF_RNG.random((2000, 40))
_REF_SPARSE = scipy.sparse.random(2000, 2000, density=0.002, format="csr", random_state=_REF_RNG)


def reference_s() -> tuple[float, float]:
    """Wall times of the two reference tasks.

    The first runs in the interpreter: a Python loop, and ``%.17g``
    formatting and parsing as in the CSV files.  The second runs in compiled
    kernels: sparse x dense products, QR, ``eigh`` and BLAS products, as in
    the solvers.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    text = ",".join("%.17g" % x for x in _REF_SQUARE[:30].ravel())
    sum(float(x) for x in text.split(","))
    t1 = time.perf_counter()
    for _ in range(5):
        _REF_SPARSE @ _REF_TALL
        q, _ = np.linalg.qr(_REF_TALL[:600])
        np.linalg.eigh(q.T @ _REF_TALL[:600])
        _REF_SQUARE @ _REF_SQUARE
    return t1 - t0, time.perf_counter() - t1


# The stages of a cycle, in order; the queries form one stage.
STAGES = ("setup_s", "solve_s", "write_s", "query_s", "heatmap_s")


def run_cycle(wl: Workload, bundles, out: Path, query_ids) -> dict:
    """One cycle, with the reference tasks run before it and after each stage.

    Returns the raw stage times (one per query for ``query_s``), the
    reference times, and everything the checks need.
    """
    refs = [reference_s()]

    def stage(t0: float) -> float:
        elapsed = time.perf_counter() - t0
        refs.append(reference_s())
        return elapsed

    t0 = time.perf_counter()
    loaded = _setup(bundles)
    setup_s = stage(t0)

    config = dense.SolverConfig(tol=wl.tol, max_iter=wl.max_iter)
    t0 = time.perf_counter()
    if wl.solver == "dense":
        solved = [dense.solve_dense(net, weights, config) for net, weights in loaded]
    else:
        svd = lowrank.SvdConfig(rank=wl.rank, oversample=10, power=2, seed=0)
        solved = [lowrank.solve_lowrank(net, weights, config, svd) for net, weights in loaded]
    solve_s = stage(t0)

    # Write the first result, query it, draw it: the CLI's steps after a solve.
    net = loaded[0][0]
    state, trace = solved[0]
    t0 = time.perf_counter()
    if wl.solver == "dense":
        written = out / "similarity.csv"
        dataio.save_similarity(state, net, written)
        source = ["--similarity", str(written)]
        query_source = source
    else:
        written = out / "factors"
        dataio.save_factors(state, net, written, 0, trace.iterations)
        source = ["--factors", str(written)]
        query_source = [*source, "--bundle", str(bundles[0])]
    write_s = stage(t0)

    queries = []
    for eid in query_ids:
        argv = ["query", *query_source, "--type", wl.query_type, "--id", eid, "--k", str(QUERY_K)]
        queries.append((eid, *_cli(argv)))
    refs.append(reference_s())

    svg = out / "heatmap.svg"
    heatmap = _cli(["heatmap", *source, "--type", wl.query_type, "--out", str(svg)])
    refs.append(reference_s())

    return {
        "ref_s": refs,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "write_s": write_s,
        "query_s": [q[3] for q in queries],
        "heatmap_s": heatmap[2],
        "loaded": loaded,
        "solved": solved,
        "written": written,
        "queries": queries,
        "heatmap": (*heatmap, svg),
    }


def cycle_times(p: dict, scaled: bool) -> dict:
    """A cycle's stage times, raw or scaled to the reference speed, and their
    sum as ``total_s``.

    A stage time is multiplied by the nominal reference time over the measured
    one, with each task's time the mean of its two runs around the stage.  The
    solve mixes interpreted and compiled work, so it is scaled by the sum of
    both tasks; the other stages parse and format text in the interpreter, so
    they are scaled by the interpreter task alone.
    """
    times = {}
    for i, key in enumerate(STAGES):
        interp, kernels = (statistics.fmean(r) for r in zip(*p["ref_s"][i : i + 2]))
        if not scaled:
            scale = 1.0
        elif key == "solve_s":
            scale = (INTERPRETER_S + KERNELS_S) / (interp + kernels)
        else:
            scale = INTERPRETER_S / interp
        values = p[key] if isinstance(p[key], list) else [p[key]]
        times[key] = [v * scale for v in values]
    times["total_s"] = [sum(sum(v) for v in times.values())]
    return times


# -- checks -------------------------------------------------------------------


def factored_norm(states) -> float:
    """Frobenius norm of the whole factored state, as test_10 computes it."""
    total = 0.0
    for f in states.values():
        g = f.U.T @ f.U
        total += f.n + 2 * float((np.diag(g) * f.d).sum())
        total += float((np.outer(f.d, f.d) * g * g).sum())
    return float(np.sqrt(total))


def sweeps_to_stationary(states, trace) -> int:
    """First sweep that ends STATIONARY_RUN relative residuals below REL_TOL; 0 if none."""
    rel = np.asarray(trace.residuals) / factored_norm(states)
    for i in range(STATIONARY_RUN - 1, rel.size):
        if (rel[i - STATIONARY_RUN + 1 : i + 1] < REL_TOL).all():
            return i + 1
    return 0


def _as_file(block: np.ndarray) -> np.ndarray:
    """A dense block as the similarity CSV stores it: upper triangle, mirrored."""
    upper = np.triu(block)
    return upper + np.triu(block, 1).T


def _expected_top_k(wl, state, t, a) -> list[tuple[str, str]]:
    if wl.solver == "dense":
        scores = _as_file(state[t.name])[a]
        order = np.lexsort((np.arange(t.size), -scores))
        ranked = [(int(j), float(scores[j])) for j in order if j != a][:QUERY_K]
    else:
        ranked = lowrank.top_k(state[t.name], a, QUERY_K)
    return [(t.ids[j], "%.17g" % s) for j, s in ranked]


def _printed_top_k(stdout: str) -> list[tuple[str, str]]:
    rows = []
    for line in stdout.splitlines():
        if line.startswith("config:"):
            continue
        _, eid, score = line.rsplit(",", 2)
        rows.append((eid, score))
    return rows


def check_cycle(wl: Workload, p: dict) -> tuple[int, list[str]]:
    """Check every output of a cycle.

    Returns the number of operations attempted and one message per failed
    operation.
    """
    attempted = 0
    failures: list[str] = []

    for (net, _), (state, trace) in zip(p["loaded"], p["solved"]):
        attempted += 1
        if wl.solver == "dense":
            bad = [
                name for name, b in state.blocks.items()
                if not (np.diag(b) == 1.0).all()
                or float(np.abs(b - b.T).max()) > SYMMETRY_TOL
            ]
            if not trace.converged or bad:
                failures.append(
                    f"solve: converged={trace.converged} after {trace.iterations} sweeps; "
                    f"blocks without symmetry or unit diagonal: {bad}"
                )
        elif sweeps_to_stationary(state, trace) == 0:
            failures.append("solve: no 5 consecutive relative residuals below 1e-3")

    net = p["loaded"][0][0]
    state = p["solved"][0][0]
    t = net.type(wl.query_type)
    block = _as_file(state[t.name]) if wl.solver == "dense" else state[t.name].dense()
    ramp = f"{float(block.min()):.6g} -> rgb"
    top = f"{float(block.max()):.6g} -> rgb"
    attempted += 1
    try:
        if wl.solver == "dense":
            reread = dataio.load_similarity(p["written"], net)
            same = all(
                np.array_equal(np.triu(reread[n]), np.triu(state[n]))
                for n in state.blocks
            )
        else:
            reread = dataio.load_factors(p["written"])
            same = reread.keys() == state.keys() and all(
                np.array_equal(reread[n].U, state[n].U)
                and np.array_equal(reread[n].d, state[n].d)
                for n in state
            )
    except dataio.BundleError as exc:
        failures.append(f"write: reread failed: {exc}")
    else:
        if not same:
            failures.append("write: reread differs from the in-memory result")

    for eid, code, stdout, _ in p["queries"]:
        attempted += 1
        if code != cli.EXIT_OK:
            failures.append(f"query {eid}: exit code {code}")
        elif _printed_top_k(stdout) != _expected_top_k(wl, state, t, t.index[eid]):
            failures.append(f"query {eid}: top-{QUERY_K} differs from the in-memory ranking")

    code, _, _, svg = p["heatmap"]
    attempted += 1
    if code != cli.EXIT_OK:
        failures.append(f"heatmap: exit code {code}")
    else:
        text = svg.read_text(encoding="utf-8")
        if text.count("<rect ") != t.size**2 or ramp not in text or top not in text:
            failures.append("heatmap: SVG does not match the in-memory block")
    return attempted, failures


# -- derived per-layer numbers ------------------------------------------------------


def sweep_flops(net: model.HeteroNetwork, weights: model.WeightMatrix) -> int:
    """Computed flops of one dense sweep: per weighted relation side, the two
    sparse-dense products of W S W^T (2 nnz (|p| + |t|)) plus scaling and
    accumulating the |t| x |t| result."""
    flops = 0
    for r in net.relations:
        sides = [(r.src, r.dst)] if r.src.name == r.dst.name else [(r.src, r.dst), (r.dst, r.src)]
        for t, p in sides:
            if weights.weight(t.name, r.name):
                flops += 2 * r.n_edges * (p.size + t.size) + 2 * t.size**2
    return flops


def _file_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir())
    return path.stat().st_size


def layer_metrics(wl: Workload, p: dict, spans, cycle_id: int, spmv: int) -> dict[str, float]:
    totals = layer_totals(spans, cycle_id)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field in ("s", "self_s", "calls"):
            out[metric] = get(layer, field)
    gflop = 0.0
    if wl.solver == "dense":
        gflop = sum(
            trace.iterations * sweep_flops(net, weights)
            for (net, weights), (_, trace) in zip(p["loaded"], p["solved"])
        ) / 1e9
    out["dense.sweep.gflop_computed"] = gflop
    sweep_s = out["dense.sweep.s"]
    out["dense.sweep.gflop_per_s"] = gflop / sweep_s if sweep_s else 0.0
    out["lowrank.spmv_count"] = spmv
    out["lowrank.sweeps_to_stationary"] = (
        sweeps_to_stationary(*p["solved"][0]) if wl.solver == "lowrank" else 0
    )
    written = _file_bytes(p["written"])
    out["dataio.save_similarity.bytes"] = written if wl.solver == "dense" else 0
    out["dataio.save_factors.bytes"] = written if wl.solver == "lowrank" else 0
    out["dataio.export_heatmap.bytes"] = _file_bytes(p["heatmap"][3])
    return out


def install_tracer(tracer: Tracer, spmv: SpmvCounter) -> None:
    """Wrap the public functions of model, dense, lowrank, dataio and cli."""
    modules = [model, dense, lowrank, dataio, cli]
    functions = {
        model: ["build_network", "column_stochastic", "default_weights",
                "coupling_operators", "check_convergence_conditions"],
        dense: ["solve_dense", "sweep", "residual", "residual_by_type"],
        lowrank: ["solve_lowrank", "sweep_lowrank", "randomized_eig",
                  "factored_residual", "top_k"],
        dataio: ["load_network", "save_similarity", "read_similarity_block",
                 "save_factors", "load_factors", "export_heatmap"],
        cli: ["main"],
    }
    for mod, names in functions.items():
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.wrap_function(f"{short}.{name}", getattr(mod, name), modules)
    tracer.wrap_function(
        "lowrank.build_update_operator", lowrank.build_update_operator, modules,
        on_return=spmv,
    )
    for cls, method in (
        (lowrank.UpdateOperator, "apply"),
        (lowrank.UpdateOperator, "diagonal"),
        (lowrank.FactoredSimilarity, "dense"),
    ):
        tracer.wrap_method(f"lowrank.{cls.__name__}.{method}", cls, method)


# -- a whole run ----------------------------------------------------------------


# glibc malloc serves a block from mmap, page-faulting it in on every use,
# until a freed mmap block raises its threshold (to at most 32 MiB on 64-bit).
# One large block allocated and freed up front puts the process in the state it
# otherwise reaches only after its first big free, so that every cycle runs
# warm: a cold dense solve of a few hundred entities per type takes about 3x
# as long as a warm one.
ALLOCATOR_WARMUP_BYTES = 30 * 2**20


def prepare(wl: Workload, seed: int, tiny: bool, work: Path):
    """Untimed: warm the allocator, write the bundles, pick the query ids."""
    np.empty(ALLOCATOR_WARMUP_BYTES // 8)
    bundles = []
    for i, net in enumerate(make_networks(wl.name, seed, tiny)):
        b = work / f"bundle{i}"
        dataio.save_network(net, b)
        bundles.append(b)
    first = dataio.load_network(bundles[0])[0].type(wl.query_type)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    picks = rng.choice(first.size, size=min(QUERY_IDS, first.size), replace=False)
    return bundles, [first.ids[i] for i in picks]


def _more(started: float, done: int, minimum: int, seconds: float) -> bool:
    """Another cycle fits if the mean cycle so far still ends within ``seconds``."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


# End-to-end time metric -> the cycle timing it summarises.
METRIC_SAMPLES = {
    "total_s": "total_s",
    "setup_s": "setup_s",
    "solve_s": "solve_s",
    "write_s": "write_s",
    "query_p50_s": "query_s",
    "heatmap_s": "heatmap_s",
}


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool, work: Path) -> dict:
    """Prepare, warm up, then cycle for ``seconds``; returns metrics and checks.

    Every cycle's outputs are checked, the untimed warm-up cycle's too.
    Untraced, each end-to-end time is the median of its samples over the timed
    cycles, each scaled to the reference speed (see ``cycle_times``); the raw
    medians are returned too.  Traced, untraced and traced cycles alternate; the
    per-layer metrics are raw medians over the traced cycles, the exact counts
    must repeat from one traced cycle to the next, and the tracing overhead is
    the difference of the median traced and untraced scaled cycle totals.
    """
    wl = (TINY if tiny else WORKLOADS)[name]
    bundles, query_ids = prepare(wl, seed, tiny, work)
    out = work / "out"
    out.mkdir()

    attempted, failures, cycles = 0, [], []
    tracer, rows, raw = Tracer(), [], None

    def cycle(timed: bool = True, with_trace: bool = False) -> None:
        nonlocal attempted
        first = len(cycles) * wl.queries
        ids = [query_ids[(first + j) % len(query_ids)] for j in range(wl.queries)]
        if with_trace:
            spmv = SpmvCounter()
            install_tracer(tracer, spmv)
            tracer.pass_id = len(rows)
            try:
                p = run_cycle(wl, bundles, out, ids)
            finally:
                tracer.pass_id = None
                tracer.uninstall()
            spmv.flush()
            rows.append(layer_metrics(wl, p, tracer.spans, len(rows), spmv.total))
        else:
            p = run_cycle(wl, bundles, out, ids)
        a, f = check_cycle(wl, p)
        attempted += a
        failures.extend(f)
        if timed:
            cycles.append({"raw": cycle_times(p, scaled=False),
                           "scaled": cycle_times(p, scaled=True),
                           "ref_s": p["ref_s"], "traced": with_trace})

    cycle(timed=False)
    started = time.perf_counter()
    if not traced:
        while _more(started, len(cycles), MIN_CYCLES, seconds):
            cycle()

        def median(kind, key):
            return statistics.median(v for c in cycles for v in c[kind][key])

        metrics = {name: median("scaled", k) for name, k in METRIC_SAMPLES.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
        raw = {name: median("raw", k) for name, k in METRIC_SAMPLES.items()}
        raw["interpreter_reference_s"] = statistics.median(r[0] for c in cycles for r in c["ref_s"])
        raw["kernel_reference_s"] = statistics.median(r[1] for c in cycles for r in c["ref_s"])
        units = dict(END_TO_END)
    else:
        while _more(started, len(cycles), 2 * MIN_CYCLES, seconds):
            cycle(with_trace=len(cycles) % 2 == 1)
        attempted += 1
        differ = [k for k in EXACT_COUNTS if len({row[k] for row in rows}) > 1]
        if differ:
            failures.append(f"trace: counts differ between traced cycles: {differ}")
        metrics = {k: _median([row[k] for row in rows]) for k in rows[0]}
        untraced_total, traced_total = (
            statistics.median(c["scaled"]["total_s"][0] for c in cycles if c["traced"] == t)
            for t in (False, True)
        )
        metrics["trace.untraced_total_s"] = untraced_total
        metrics["trace.traced_total_s"] = traced_total
        metrics["trace.overhead_s"] = traced_total - untraced_total
        units = dict(PER_LAYER)
    return {
        "workload": name,
        "seed": seed,
        "cycles": len(cycles),
        "raw_medians": raw,
        "query_samples": sum(len(c["raw"]["query_s"]) for c in cycles),
        "attempted": attempted,
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": cycles,
        "tracer": tracer if traced else None,
    }


def _median(values):
    """Median; for counts, one of the values, so a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
