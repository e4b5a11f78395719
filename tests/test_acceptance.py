"""Acceptance suite: end-to-end checks at stated tolerances.

Each numbered test prints one PASS/FAIL line and asserts the criterion at
its stated tolerance.  Two criteria (03 and 07) are marked xfail(strict):
the stated bound or value is not attainable by the implemented semantics;
the companion tests right after them pin down the behavior that does hold.
"""

import filecmp
import time

import numpy as np
import pytest
from scipy import stats

import hetsim
from hetsim.cli import EXIT_OK, main as cli_main
from hetsim.dense import coupling_plan
from hetsim.lowrank import randomized_eig
from hetsim.synth import (
    LayeredGraphSpec,
    layer_quality,
    layered_points_graph,
    ordering_quality,
)

from conftest import single_type_graph


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return ok


# -- 1. convergence grid ----------------------------------------------------

GRID_K = (3, 5, 7, 10)
GRID_N = tuple(range(10, 101, 10))
GRID_SEEDS = range(5)


@pytest.fixture(scope="module")
def grid_traces():
    runs = []
    for k in GRID_K:
        for n in GRID_N:
            for seed in GRID_SEEDS:
                net = hetsim.random_network(
                    hetsim.RandomNetworkSpec(k=k, n=n, seed=seed)
                )
                _, trace = hetsim.solve_dense(
                    net,
                    hetsim.default_weights(net),
                    hetsim.SolverConfig(tol=1e-6, max_iter=150),
                )
                runs.append(trace)
    assert len(runs) == 200
    return runs


def test_01_grid_residual_below_1e6_within_50_iterations(grid_traces):
    ok = all(t.converged and t.iterations <= 50 for t in grid_traces)
    ok = report("grid residual < 1e-6 within 50 iterations, all 200 runs", ok)
    assert ok


def test_01b_grid_monotone_and_convergent(grid_traces):
    monotone = all(
        (np.diff(t.residuals) <= 1e-12).all() for t in grid_traces
    )
    converged = all(t.converged for t in grid_traces)
    ok = report("grid monotone residuals, convergence within 150", monotone and converged)
    assert ok


# -- 2. homogeneous reduction ----------------------------------------------


def test_02_homogeneous_reduction_matches_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        a = (rng.random((n, n)) < rng.uniform(0.1, 0.5)).astype(float)
        np.fill_diagonal(a, 0.0)
        net = single_type_graph(a)
        weights = hetsim.default_weights(net)
        w = a / np.maximum(a.sum(axis=0), 1)
        oracle = np.eye(n)
        state = hetsim.SimilaritySet.identity(net)
        plan = coupling_plan(net, weights)
        for _ in range(8):
            oracle = w @ oracle @ w.T
            np.fill_diagonal(oracle, 1.0)
            state, _ = hetsim.sweep(net, state, plan)
            worst = max(worst, float(np.abs(state["T"] - oracle).max()))
    ok = report(f"homogeneous reduction, worst diff {worst:.3g}", worst <= 1e-12)
    assert ok


# -- 3. two-type closed form -----------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the coupling W S W^T (the form under which the iteration "
    "actually converges) gives the toy fixed point 0.25, not 0.5; "
    "0.5 presumes independently normalized operators on both sides",
)
def test_03_two_type_fixed_point_is_half():
    net = hetsim.build_network(
        [("A", ["a1", "a2"]), ("B", ["b1"])],
        [("r", "A", "B", [("a1", "b1"), ("a2", "b1")])],
    )
    state, _ = hetsim.solve_dense(
        net, hetsim.default_weights(net), hetsim.SolverConfig(tol=1e-14)
    )
    value = float(state["A"][0, 1])
    ok = report(f"two-type fixed point = 0.5 (got {value})", abs(value - 0.5) <= 1e-12)
    assert ok


# -- 4. low-rank equals dense at full rank ---------------------------------


def test_04_full_rank_lowrank_matches_dense():
    worst = 0.0
    for seed in range(50):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=40, seed=seed))
        assert net.n_entities <= 200
        weights = hetsim.default_weights(net)
        cfg = hetsim.SolverConfig(tol=1e-10, max_iter=300)
        dense_state, _ = hetsim.solve_dense(net, weights, cfg)
        rank = max(t.size for t in net.types)
        fstate, _ = hetsim.solve_lowrank(
            net, weights, cfg,
            hetsim.SvdConfig(rank=rank, oversample=0, power=2, seed=0),
        )
        for t in net.types:
            diff = float(np.abs(fstate[t.name].dense() - dense_state[t.name]).max())
            worst = max(worst, diff)
    ok = report(f"full-rank vs dense, worst element diff {worst:.3g}", worst <= 1e-6)
    assert ok


# -- 4b. low-rank accuracy against the best truncation ----------------------


def biblio_network(seed, sizes):
    """test_10's bibliographic network family: three relations, each with
    3 * max(sizes) edges drawn uniformly with ``default_rng(seed)``,
    duplicates dropped; ``topics`` has no relation."""
    rng = np.random.default_rng(seed)
    type_specs = [
        (name, [f"{name[0]}{i}" for i in range(n)]) for name, n in sizes.items()
    ]
    rel_specs = []
    for name, src, dst in (
        ("published_in", "papers", "venues"),
        ("written_by", "papers", "authors"),
        ("hosts", "venues", "authors"),
    ):
        m = 3 * max(sizes[src], sizes[dst])
        a = rng.integers(0, sizes[src], m)
        b = rng.integers(0, sizes[dst], m)
        pairs = np.unique(np.stack([a, b], axis=1), axis=0)
        rel_specs.append(
            (name, src, dst,
             [(f"{src[0]}{i}", f"{dst[0]}{j}") for i, j in pairs])
        )
    return hetsim.build_network(type_specs, rel_specs)


# test_10's sizes scaled by 0.15, and a tiny variant.
BIBLIO_SMALL = {"papers": 544, "venues": 15, "topics": 10, "authors": 83}
BIBLIO_TINY = {"papers": 120, "venues": 12, "topics": 4, "authors": 24}


@pytest.mark.parametrize("sizes, rank, sweeps, factor", [
    (BIBLIO_SMALL, 15, 120, 1.35),  # ratios 1.237 / 1.137 measured
    (BIBLIO_TINY, 8, 100, 1.2),  # ratios 1.099 / 1.065 measured
], ids=["small", "tiny"])
@pytest.mark.parametrize("seed", [7, 11])
def test_04b_rank_a_answer_near_best_truncation(sizes, rank, sweeps, factor, seed):
    """On networks small enough to solve densely, the rank-a answer after a
    fixed number of sweeps (oversample 10, power 2) is within ``factor`` of
    the best rank-a truncation of the dense answer, both in Frobenius norm
    over all blocks.  The truncation keeps I and the a eigenpairs of S - I
    largest in magnitude per type, as the factored form does.  With one
    power pass instead of two the small networks read 1.380 (seed 7) and
    1.219 (seed 11), so the gate sees a weaker range finder."""
    net = biblio_network(42 + seed, sizes)
    weights = hetsim.default_weights(net)
    dense_state, trace = hetsim.solve_dense(
        net, weights, hetsim.SolverConfig(tol=1e-10, max_iter=1000)
    )
    assert trace.converged
    fstate, _ = hetsim.solve_lowrank(
        net, weights, hetsim.SolverConfig(tol=1e-300, max_iter=sweeps),
        hetsim.SvdConfig(rank=rank, oversample=10, power=2, seed=0),
    )
    err2 = best2 = 0.0
    for t in net.types:
        block = dense_state[t.name]
        err2 += np.linalg.norm(fstate[t.name].dense() - block) ** 2
        tail = np.sort(np.abs(np.linalg.eigvalsh(block - np.eye(t.size))))[::-1][rank:]
        best2 += (tail ** 2).sum()
    ratio = float(np.sqrt(err2 / best2))
    ok = report(f"rank-{rank} error over best truncation {ratio:.4f} <= {factor}", ratio <= factor)
    assert ok


# -- 5. randomized eigendecomposition quality ------------------------------


def test_05_randomized_eig_tail_bound():
    failures = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = 200
        rank = 5 + (trial % 10) * 5  # sweeps 5, 10, ..., 50
        lam = np.sort(rng.uniform(0.5, 1.0, n) * 0.9 ** np.arange(n))[::-1]
        lam = lam * rng.choice([-1.0, 1.0], n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * lam) @ q.T
        u, d = randomized_eig(a, rank, rng.standard_normal((n, rank + 10)), power=2)
        err = np.linalg.norm(a - (u * d) @ u.T, 2)
        tail = np.sort(np.abs(lam))[::-1][rank]
        if not err <= 2 * tail:
            failures += 1
    ok = report(f"randomized eig tail bound, {failures}/100 failures", failures <= 5)
    assert ok


# -- 6. quality metric oracle ----------------------------------------------


def test_06_quality_metric_matches_brute_force():
    rng = np.random.default_rng(6)
    exact = True
    for _ in range(100):
        s, s_hat = rng.random((10, 10)), rng.random((10, 10))
        count = 0
        for a in range(10):
            for b in range(10):
                for c in range(10):
                    if s[a, b] < s[a, c] and s_hat[a, b] < s_hat[a, c]:
                        count += 1
        if ordering_quality(s, s_hat) != count / 1000:
            exact = False
    fixture = hetsim.geometric_ground_truth(
        np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0]])
    )
    np.fill_diagonal(fixture, fixture.max())
    collinear = ordering_quality(fixture, fixture)
    ok = report(
        f"quality metric brute-force match, collinear fixture {collinear:.6f}",
        exact and collinear == pytest.approx(1 / 3),
    )
    assert ok


# -- 7. layered quality saturation -----------------------------------------

Q_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.50)
Q_TRIALS = 20


@pytest.fixture(scope="module")
def q_table():
    table = {r: [] for r in Q_GRID}
    for trial in range(Q_TRIALS):
        for r in Q_GRID:
            spec = LayeredGraphSpec(counts=(40, 40, 40), radius=r, seed=trial)
            net, pts = layered_points_graph(spec)
            state, _ = hetsim.solve_dense(
                net,
                hetsim.default_weights(net),
                hetsim.SolverConfig(tol=1e-9, max_iter=200),
            )
            table[r].append(layer_quality(pts, state.blocks)[0])
    return {r: np.array(v) for r, v in table.items()}


def _no_significant_decrease(table):
    """Holm-corrected one-sided paired tests on consecutive grid points."""
    pvals = []
    ramp = [r for r in Q_GRID if r <= 0.3]
    for lo, hi in zip(ramp[:-1], ramp[1:]):
        pvals.append(
            stats.ttest_rel(table[hi], table[lo], alternative="less").pvalue
        )
    for i, p in enumerate(sorted(pvals)):
        if p < 0.05 / (len(pvals) - i):
            return False
    return True


@pytest.mark.xfail(
    strict=True,
    reason="mean Q genuinely keeps creeping up past r=0.3 (+0.019 from 0.3 "
    "to 0.5), and a paired test over 20 common seeds resolves it "
    "(p ~ 4e-4); saturation is gradual, not exact",
)
def test_07_quality_saturates_at_r03(q_table):
    nondecreasing = _no_significant_decrease(q_table)
    p_plateau = stats.ttest_rel(q_table[0.5], q_table[0.3]).pvalue
    ok = report(
        f"Q non-decreasing to r=0.3 ({nondecreasing}), "
        f"0.3 vs 0.5 within noise (p={p_plateau:.2g})",
        nondecreasing and p_plateau > 0.05,
    )
    assert ok


def test_07b_quality_rise_then_plateau(q_table):
    nondecreasing = _no_significant_decrease(q_table)
    rise = q_table[0.30].mean() - q_table[0.05].mean()
    creep = abs(q_table[0.50].mean() - q_table[0.30].mean())
    ok = report(
        f"Q rises {rise:.3f} to r=0.3 then changes only {creep:.3f} to r=0.5",
        nondecreasing and rise > 0.15 and creep <= 0.15 * rise,
    )
    assert ok


# -- 8. damped contraction --------------------------------------------------


def test_08_damped_residual_ratio_bounded():
    worst = 0.0
    for seed in range(50):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=5, n=30, seed=seed))
        _, trace = hetsim.solve_lyapunov(
            net,
            hetsim.default_weights(net),
            hetsim.SolverConfig(tol=1e-11, max_iter=100),
            damping=0.8,
        )
        r = np.array(trace.residuals)
        worst = max(worst, float((r[1:] / r[:-1]).max()))
    ok = report(f"damped residual ratio, worst {worst:.4f}", worst <= 0.8 + 1e-9)
    assert ok


# -- 9. byte determinism ----------------------------------------------------


def _run_cli(argv):
    assert cli_main(argv) == EXIT_OK


def _assert_same_outputs(a, b):
    names_a = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    names_b = sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
    assert names_a == names_b
    for pa in sorted(p for p in a.rglob("*") if p.is_file()):
        pb = b / pa.relative_to(a)
        if pa.name == "trace.csv":
            cols_a = [l.rsplit(",", 1)[0] for l in pa.read_text().splitlines()]
            cols_b = [l.rsplit(",", 1)[0] for l in pb.read_text().splitlines()]
            assert cols_a == cols_b
        else:
            assert filecmp.cmp(pa, pb, shallow=False), pa.name


def test_09_repeated_runs_byte_identical(tmp_path):
    outcomes = []
    for run in ("one", "two"):
        base = tmp_path / run
        _run_cli(["synth", "random", "--K", "3", "--N",
                  "25", "--seed", "11", "--out", str(base / "rand")])
        _run_cli(["synth", "layered", "--counts",
                  "12,12", "--r", "0.3", "--seed", "11", "--out",
                  str(base / "lay")])
        _run_cli(["solve", "--bundle", str(base / "rand"),
                  "--out", str(base / "dense"), "--tol", "1e-7"])
        _run_cli(["solve", "--bundle", str(base / "rand"),
                  "--out", str(base / "low"), "--solver", "lowrank", "--ranks",
                  "5", "--seed", "11", "--tol", "1e-6", "--max-iter", "60"])
        outcomes.append(base)
    _assert_same_outputs(*outcomes)
    report("repeated seeded runs byte-identical", True)


# -- 10. scale smoke test ---------------------------------------------------


def _factored_norm(states):
    total = 0.0
    for f in states.values():
        g = f.U.T @ f.U
        total += f.n + 2 * float((np.diag(g) * f.d).sum())
        total += float((np.outer(f.d, f.d) * g * g).sum())
    return float(np.sqrt(total))


def test_10_large_network_reaches_stationary_residual():
    net = biblio_network(42, {"papers": 3625, "venues": 99, "topics": 65, "authors": 554})
    start = time.perf_counter()
    states, trace = hetsim.solve_lowrank(
        net,
        hetsim.default_weights(net),
        hetsim.SolverConfig(tol=1e-12, max_iter=160),
        hetsim.SvdConfig(rank=50, oversample=10, power=2, seed=0),
    )
    elapsed = time.perf_counter() - start
    rel = np.array(trace.residuals) / _factored_norm(states)
    stationary = any(
        (rel[i - 4 : i + 1] < 1e-3).all() for i in range(4, len(rel))
    )
    ok = report(
        f"scale smoke: stationary={stationary}, {elapsed:.1f}s",
        stationary and elapsed < 60.0,
    )
    assert ok
