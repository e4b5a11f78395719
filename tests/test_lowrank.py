"""Factored solver: randomized eigendecomposition, operators, and queries."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import hetsim
from hetsim import lowrank
from hetsim.dense import coupling_plan, update_order
from hetsim.lowrank import (
    FactoredSimilarity,
    UpdateOperator,
    build_update_operator,
    factored_residual,
    randomized_eig,
    sweep_lowrank,
    top_k,
    update_plan,
)
from hetsim.model import coupling_operators

from conftest import edge_ids, networks_relations_weights


def planted_symmetric(n, eigenvalues, seed):
    """Dense symmetric matrix with a prescribed spectrum."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.zeros(n)
    lam[: len(eigenvalues)] = eigenvalues
    return (q * lam) @ q.T


class TestRandomizedEig:
    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(30)
        v /= np.linalg.norm(v)
        u, d = randomized_eig(np.outer(v, v), 1, rng.standard_normal((30, 6)))
        assert d[0] == pytest.approx(1.0, abs=1e-10)
        recon = (u * d) @ u.T
        assert np.abs(recon - np.outer(v, v)).max() <= 1e-10

    def test_zero_operator(self):
        rng = np.random.default_rng(1)
        _, d = randomized_eig(np.zeros((10, 10)), 2, rng.standard_normal((10, 5)))
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_tail_bound_against_exact_spectrum(self):
        lam = [5.0, 4.0, -3.0, 2.0, 1.5, 0.5, 0.2, 0.1]
        a = planted_symmetric(50, lam, seed=2)
        rng = np.random.default_rng(3)
        u, d = randomized_eig(a, 5, rng.standard_normal((50, 15)), power=2)
        err = np.linalg.norm(a - (u * d) @ u.T, 2)
        assert err <= 2 * abs(lam[5])

    def test_negative_eigenvalues_kept(self):
        a = planted_symmetric(20, [3.0, -2.5, 0.1], seed=4)
        rng = np.random.default_rng(5)
        _, d = randomized_eig(a, 2, rng.standard_normal((20, 10)))
        assert sorted(np.sign(d)) == [-1.0, 1.0]
        np.testing.assert_allclose(sorted(np.abs(d)), [2.5, 3.0], atol=1e-8)

    def test_rank_plus_oversample_bounded(self):
        # A sketch of rank 3 + oversampling 4 columns is wider than n = 5.
        with pytest.raises(ValueError, match=r"width \(7\) <= n \(5\)"):
            randomized_eig(np.eye(5), 3, np.ones((5, 7)))

    @pytest.mark.parametrize("rank, shape, message", [
        (3, (4, 3), "sketch has 4 rows, the operator 5"),
        (3, (5, 2), r"rank \(3\) <= width \(2\)"),
        (0, (5, 2), r"1 <= rank \(0\)"),
        (6, None, r"rank \(6\) <= width \(5\)"),
    ])
    def test_sketch_and_rank_checked(self, rank, shape, message):
        sketch = None if shape is None else np.ones(shape)
        with pytest.raises(ValueError, match=message):
            randomized_eig(np.eye(5), rank, sketch)

    def test_orthonormal_columns(self):
        a = planted_symmetric(40, [4, 3, 2, 1], seed=6)
        u, _ = randomized_eig(a, 4, np.random.default_rng(7).standard_normal((40, 10)))
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-8)

    def test_deterministic_given_seed(self):
        a = planted_symmetric(30, [2, 1.5, 1], seed=8)
        sketch = np.random.default_rng(9).standard_normal((30, 13))
        u1, d1 = randomized_eig(a, 3, sketch)
        u2, d2 = randomized_eig(a, 3, sketch.copy())
        assert np.array_equal(u1, u2)
        assert np.array_equal(d1, d2)


def explicit_update(net, weights, state, type_name):
    """sum_r w W (I + U_p D_p U_p^T) W^T with dense W, diagonal included."""
    couplings = coupling_operators(net)
    size = net.type(type_name).size
    expected = np.zeros((size, size))
    for r in net.incident(type_name):
        fwd, rev = couplings[r.name]
        oper, partner = (fwd, r.dst) if r.src.name == type_name else (rev, r.src)
        w = oper.toarray()
        expected += weights.weight(type_name, r.name) * (w @ state[partner.name].dense() @ w.T)
    return expected


class TestUpdateOperator:
    def _random_setup(self, seed):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=20, seed=seed))
        weights = hetsim.default_weights(net)
        rng = np.random.default_rng(seed + 100)
        state = {}
        for t in net.types:
            k = min(4, t.size)
            u, _ = np.linalg.qr(rng.standard_normal((t.size, k)))
            state[t.name] = FactoredSimilarity(u, rng.standard_normal(k))
        table = update_plan(net, coupling_plan(net, weights), hetsim.SvdConfig(rank=4))
        return net, weights, state, table

    def test_self_adjoint_on_random_vectors(self):
        net, _, state, table = self._random_setup(0)
        rng = np.random.default_rng(42)
        for t in net.types:
            op = build_update_operator(state, table[t.name])
            n = op.shape[0]
            for _ in range(20):
                x, y = rng.standard_normal(n), rng.standard_normal(n)
                lhs = float(op.apply(x) @ y)
                rhs = float(x @ op.apply(y))
                bound = 1e-8 * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= bound

    def test_diagonal_matches_dense_materialization(self):
        net, weights, state, table = self._random_setup(1)
        for t in net.types:
            op = build_update_operator(state, table[t.name])
            expected = explicit_update(net, weights, state, t.name)
            off = expected - np.diag(np.diag(expected))
            np.testing.assert_allclose(op.apply(np.eye(t.size)), off, rtol=0, atol=1e-12)
            np.testing.assert_allclose(op.diagonal(), np.diag(expected), rtol=0, atol=1e-12)

    def test_sparse_products_two_per_apply_the_sketch_included(self):
        net, _, state, table = self._random_setup(2)
        t = net.types[0]
        entry = table[t.name]
        assert len(entry[1]) > 1 and entry[5] is not None
        op = build_update_operator(state, entry)
        m = len(entry[1])  # the products W_i U_i that form V
        assert op.spmv_count == m
        op.apply(np.zeros(t.size))
        assert op.spmv_count == m + 2
        op.apply(np.zeros((t.size, 3)))
        assert op.spmv_count == m + 4
        # The plan's sketch costs what any other block costs.
        op.apply(entry[5])
        assert op.spmv_count == m + 6
        op.apply(entry[5].copy())
        assert op.spmv_count == m + 8

    def test_the_plan_sketch_gives_the_bits_a_copy_gives(self):
        """Applying the operator to the plan's own sketch gives the bits that
        an equal copy of the sketch gives.  An exact-width type has no sketch."""
        net, _, state, table = self._random_setup(3)
        svd = hetsim.SvdConfig(rank=max(t.size for t in net.types))
        exact = update_plan(net, coupling_plan(net, hetsim.default_weights(net)), svd)
        for t in net.types:
            rank, sketch = table[t.name][4:6]
            if sketch is not None:
                op = build_update_operator(state, table[t.name])
                assert np.array_equal(op @ sketch, op @ sketch.copy())
                first = randomized_eig(op, rank, sketch)
                again = randomized_eig(build_update_operator(state, table[t.name]), rank, sketch.copy())
                assert all(np.array_equal(a, b) for a, b in zip(first, again))
            assert exact[t.name][5] is None


@st.composite
def networks_with_factors(draw):
    """random_network(k in [2, 4], n in [3, 15]) with random factors per type."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(3, 15))
    spec = hetsim.RandomNetworkSpec(k=k, n=n, seed=draw(st.integers(0, 2**32 - 1)))
    try:
        net = hetsim.random_network(spec)
    except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = {}
    for t in net.types:
        rank = draw(st.integers(0, t.size))
        u, _ = np.linalg.qr(rng.standard_normal((t.size, rank)))
        state[t.name] = FactoredSimilarity(u, rng.standard_normal(rank))
    return net, state


@st.composite
def networks_with_weights(draw):
    """random_network(k in [2, 4], n in [3, 15]) with a random weight in
    (0, 1) per (type, incident relation)."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(3, 15))
    spec = hetsim.RandomNetworkSpec(k=k, n=n, seed=draw(st.integers(0, 2**32 - 1)))
    try:
        net = hetsim.random_network(spec)
    except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = {
        (t.name, r.name): rng.uniform(0.05, 1.0)
        for t in net.types for r in net.incident(t.name)
    }
    return net, hetsim.WeightMatrix(entries)


def top_pairs(matrix, rank):
    """U diag(d) U^T of the ``rank`` eigenpairs of ``matrix`` largest in
    magnitude, and the gap in magnitude below the last one kept."""
    lam, v = np.linalg.eigh(matrix)
    order = np.argsort(-np.abs(lam), kind="stable")
    mags = np.abs(lam[order])
    gap = mags[rank - 1] - mags[rank] if rank < lam.size else np.inf
    keep = order[:rank]
    return (v[:, keep] * lam[keep]) @ v[:, keep].T, gap


@settings(max_examples=60, deadline=None)
@given(networks_with_factors(), st.integers(0, 2**32 - 1), st.data())
def test_full_width_eig_is_the_exact_top_pairs(case, seed, data):
    """With no sketch, randomized_eig decomposes exactly, whatever the rank:
    the operator applied to I, through the same apply as any other block,
    which costs its two sparse products for every type."""
    net, state = case
    weights = hetsim.default_weights(net)
    table = update_plan(net, coupling_plan(net, weights), hetsim.SvdConfig(rank=1))
    rng = np.random.default_rng(seed)
    for t in net.types:
        if t.name not in table:
            continue
        array = rng.standard_normal((t.size, t.size))
        array += array.T
        op = build_update_operator(state, table[t.name])
        explicit = explicit_update(net, weights, state, t.name)
        for target, matrix in ((array, array), (op, explicit - np.diag(np.diag(explicit)))):
            rank = data.draw(st.integers(1, t.size))
            want, gap = top_pairs(matrix, rank)
            u, d = randomized_eig(target, rank, None, power=2)
            # At a near-tie in |lambda| the kept eigenvectors are not determined.
            if gap > 1e-2 * max(1.0, np.abs(matrix).max()):
                np.testing.assert_allclose((u * d) @ u.T, want, rtol=0, atol=1e-12)
        assert op.spmv_count == len(table[t.name][1]) + 2


def power_basis_oracle(y):
    """One Cholesky step y R^-1, R^T R = y^T y, or Householder Q when
    ``cholesky`` raises or a pivot is below 1e-6 times the largest."""
    try:
        lower = np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return np.linalg.qr(y)[0]
    if np.diag(lower).min() <= 1e-6 * np.diag(lower).max():
        return np.linalg.qr(y)[0]
    return y @ np.linalg.inv(lower).T


def range_finder_oracle(op, sketch, power, basis):
    """Q^T op Q's eigenpairs on Q = Householder QR of the last product, each
    of the ``power`` passes applying op to ``basis`` of the one before."""
    y = op @ sketch
    for _ in range(power):
        y = op @ basis(y)
    q, _ = np.linalg.qr(y)
    b = q.T @ (op @ q)
    lam, v = np.linalg.eigh(0.5 * (b + b.T))
    return q, lam, v


def test_narrow_eig_runs_the_range_finder_on_its_sketch():
    """Below full width, down to n - 1, every apply of the range finder
    happens, on the sketch passed in, which sets the width alone: the first
    product, ``power`` passes on a Cholesky-normalized basis, and Householder
    QR for the final basis, each apply two sparse products, the plan's own
    sketch included."""
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=30, seed=5))
    table = update_plan(net, coupling_plan(net, hetsim.default_weights(net)), hetsim.SvdConfig(rank=1))
    state = {t.name: FactoredSimilarity.identity(t.size) for t in net.types}
    power = 2
    for t in net.types:
        entry = table[t.name]
        for sketch in (np.random.default_rng(11).standard_normal((t.size, 3)),
                       np.random.default_rng(11).standard_normal((t.size, t.size - 1)),
                       entry[5]):
            rank = 1 + sketch.shape[1] // 2
            op = build_update_operator(state, entry)
            u, d = randomized_eig(op, rank, sketch, power)
            assert op.spmv_count == len(entry[1]) + 2 * (power + 2)
            q, lam, v = range_finder_oracle(op, sketch.copy(), power, power_basis_oracle)
            keep = np.argsort(-np.abs(lam), kind="stable")[:rank]
            assert np.array_equal(u, q @ v[:, keep]) and np.array_equal(d, lam[keep])


@pytest.mark.parametrize("power", [1, 2, 3])
def test_range_finder_below_the_sketch_width(power, monkeypatch):
    """An operator of rank below the sketch width, from a type whose entities
    are mostly isolated, makes every intermediate Gram matrix singular: each
    power pass falls back to Householder QR.  U stays orthonormal, and the
    kept eigenpairs match a Householder-every-pass range finder, across the
    eigengap below them."""
    a_ids = [f"a{i}" for i in range(40)]
    b_ids = [f"b{i}" for i in range(12)]
    rng = np.random.default_rng(power)
    edges = {(f"a{i}", f"b{j}") for i, j in zip(rng.integers(0, 8, 30), rng.integers(0, 12, 30))}
    net = hetsim.build_network([("A", a_ids), ("B", b_ids)], [("r", "A", "B", sorted(edges))])
    table = update_plan(net, coupling_plan(net, hetsim.default_weights(net)),
                        hetsim.SvdConfig(rank=4, oversample=11))
    entry = table["A"]
    op = build_update_operator({"A": FactoredSimilarity.identity(40),
                                "B": FactoredSimilarity.identity(12)}, entry)
    dense_op = op @ np.eye(40)
    assert np.linalg.matrix_rank(dense_op) <= 8 < entry[5].shape[1]
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda y, *a, **k: calls.append(y.shape) or qr(y, *a, **k))
    u, d = randomized_eig(op, 4, entry[5], power)
    monkeypatch.undo()
    assert len(calls) == power + 1  # every pass fell back, then the final basis
    np.testing.assert_allclose(u.T @ u, np.eye(4), rtol=0, atol=1e-14)
    q, lam, v = range_finder_oracle(dense_op, entry[5], power, lambda y: np.linalg.qr(y)[0])
    mags = np.sort(np.abs(lam))[::-1]
    assert mags[3] - mags[4] > 1e-2 * mags[0]  # an eigengap below the kept pairs
    keep = np.argsort(-np.abs(lam), kind="stable")[:4]
    want = (q @ v[:, keep] * lam[keep]) @ (q @ v[:, keep]).T
    np.testing.assert_allclose((u * d) @ u.T, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.sort(d), np.sort(lam[keep]), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(networks_with_factors())
def test_solver_operator_is_the_explicit_weighted_sum(case):
    """The operator built from the per-solve constants has the diagonal of
    sum_r w_r W_r (I + U_p D_p U_p^T) W_r^T, applies that sum less its
    diagonal, and is self-adjoint."""
    net, state = case
    weights = hetsim.default_weights(net)
    table = update_plan(net, coupling_plan(net, weights), hetsim.SvdConfig(rank=1))
    for t in net.types:
        expected = explicit_update(net, weights, state, t.name)
        op = build_update_operator(state, table[t.name])
        full = op.apply(np.eye(t.size))
        off = expected - np.diag(np.diag(expected))
        np.testing.assert_allclose(full, off, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.diagonal(), np.diag(expected), rtol=0, atol=1e-12)
        np.testing.assert_allclose(full, full.T, rtol=0, atol=1e-12)


class TestSweepLowrank:
    def test_solve_is_chained_sweeps_from_identity(self):
        base = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=20, seed=4))
        net = hetsim.build_network(  # listed in the reverse of name order
            [(t.name, t.ids) for t in reversed(base.types)],
            [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in reversed(base.relations)],
        )
        weights = hetsim.default_weights(net)
        svd = hetsim.SvdConfig(rank=5, seed=7)
        solved, trace = hetsim.solve_lowrank(
            net, weights, hetsim.SolverConfig(tol=1e-300, max_iter=4), svd
        )
        assert trace.iterations == 4
        state = {t.name: FactoredSimilarity.identity(t.size) for t in net.types}
        table = update_plan(net, coupling_plan(net, weights), svd)
        chained = []
        for _ in range(4):
            image, residuals, corrections = sweep_lowrank(net, state, table, svd.power)
            # Each correction is the pair _correction builds, and the
            # residual is factored_residual of the same input and image.
            for name in state:
                q, c = lowrank._correction(state[name], image[name])
                assert np.array_equal(corrections[name][0], q)
                assert np.array_equal(corrections[name][1], c)
                assert residuals[name] == factored_residual(state[name], image[name])
            state = image
            chained.append(residuals)
        for name, f in solved.items():
            assert np.array_equal(f.U, state[name].U)
            assert np.array_equal(f.d, state[name].d)
        # The trace holds each sweep's own residuals, keyed in update order,
        # not in listing order.
        assert trace.per_type == chained
        names = [t.name for t in update_order(net)]
        assert names != [t.name for t in net.types]
        assert all(list(r) == names for r in chained)

    def test_each_sketch_drawn_once_per_solve(self, monkeypatch):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=30, seed=2))
        full = min(net.types, key=lambda t: t.size)  # rank = size: exact, nothing drawn
        svd = hetsim.SvdConfig(rank=full.size, oversample=0)
        draws = []
        original = lowrank._rng_for

        class Counting(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                draws.append(self.type_index)
                return super().standard_normal(*args, **kwargs)

        def counting(seed, type_index):
            gen = Counting(original(seed, type_index).bit_generator)
            gen.type_index = type_index
            return gen

        monkeypatch.setattr(lowrank, "_rng_for", counting)
        _, trace = hetsim.solve_lowrank(
            net, hetsim.default_weights(net), hetsim.SolverConfig(tol=1e-300, max_iter=6), svd
        )
        assert trace.iterations == 6
        assert sorted(draws) == [i for i, t in enumerate(update_order(net)) if t is not full]

    def test_solve_matches_a_fresh_stream_every_sweep(self):
        # Drawing once per solve is an optimization only: each sweep still
        # projects on the sketch a fresh _rng_for(seed, i) stream would draw,
        # i the type's position in update order.
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=40, seed=6))
        weights = hetsim.default_weights(net)
        svd = hetsim.SvdConfig(rank=4, oversample=5, power=1, seed=3)
        assert all(svd.rank + svd.oversample < t.size for t in net.types)
        solved, _ = hetsim.solve_lowrank(
            net, weights, hetsim.SolverConfig(tol=1e-300, max_iter=5), svd
        )
        plan = coupling_plan(net, weights)
        table = update_plan(net, plan, svd)
        state = {t.name: FactoredSimilarity.identity(t.size) for t in net.types}
        position = {t.name: i for i, t in enumerate(update_order(net))}
        for _ in range(5):  # types in name order, each on its partners' newest factors
            for name in position:
                t = net.type(name)
                assert plan[name][1]
                op = build_update_operator(state, table[name])
                sketch = lowrank._rng_for(3, position[name]).standard_normal((t.size, 9))
                u, d = randomized_eig(op, 4, sketch, 1)
                state[name] = FactoredSimilarity(u, d)
        for name, f in solved.items():
            assert np.array_equal(f.U, state[name].U)
            assert np.array_equal(f.d, state[name].d)

    def test_no_relations_keeps_identity(self):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        state = {"A": FactoredSimilarity.identity(2)}
        svd = hetsim.SvdConfig(rank=1)
        table = update_plan(net, coupling_plan(net, hetsim.default_weights(net)), svd)
        new, _, _ = sweep_lowrank(net, state, table, svd.power)
        assert new["A"].rank == 0
        np.testing.assert_array_equal(new["A"].dense(), np.eye(2))

    @settings(max_examples=30, deadline=None)
    @given(networks_with_weights())
    def test_full_rank_matches_dense_sweep(self, case):
        # Non-uniform weights catch a weight applied on the wrong side of
        # B M C^T, which uniform ones would hide.
        net, weights = case
        rank = max(t.size for t in net.types)
        cfg = hetsim.SvdConfig(rank=rank, oversample=0, power=2, seed=0)
        plan = coupling_plan(net, weights)
        table = update_plan(net, plan, cfg)
        fstate = {t.name: FactoredSimilarity.identity(t.size) for t in net.types}
        dstate = hetsim.SimilaritySet.identity(net)
        for _ in range(3):
            fstate, _, _ = sweep_lowrank(net, fstate, table, cfg.power)
            dstate, _ = hetsim.dense.sweep(net, dstate, plan)
            for t in net.types:
                diff = np.abs(fstate[t.name].dense() - dstate[t.name]).max()
                assert diff <= 1e-10

    def test_diagonal_drift_reported_not_corrected(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=20, seed=3))
        weights = hetsim.default_weights(net)
        state, _ = hetsim.solve_lowrank(
            net,
            weights,
            hetsim.SolverConfig(tol=1e-8, max_iter=60),
            hetsim.SvdConfig(rank=5, seed=0),
        )
        drifts = [f.diagonal_drift() for f in state.values()]
        assert all(d >= 0.0 for d in drifts)


class TestSolveLowrank:
    def test_full_rank_matches_dense_solution(self):
        for seed in range(5):
            net = hetsim.random_network(
                hetsim.RandomNetworkSpec(k=3, n=20, seed=seed)
            )
            weights = hetsim.default_weights(net)
            dstate, _ = hetsim.solve_dense(
                net, weights, hetsim.SolverConfig(tol=1e-11, max_iter=300)
            )
            rank = max(t.size for t in net.types)
            fstate, _ = hetsim.solve_lowrank(
                net,
                weights,
                hetsim.SolverConfig(tol=1e-11, max_iter=300),
                hetsim.SvdConfig(rank=rank, oversample=0, power=2, seed=0),
            )
            for t in net.types:
                diff = np.abs(fstate[t.name].dense() - dstate[t.name]).max()
                assert diff <= 1e-6

    @settings(max_examples=100, deadline=None)
    @given(networks_relations_weights())
    def test_full_rank_solve_agrees_with_dense(self, case):
        """On every drawn network whose condition report is ok, the dense solve
        and the full-rank low-rank solve (rank = the largest size, oversample
        0) agree to 1e-6.  Draws whose report fails (an overweight type) are
        skipped: the solvers refuse them.  No ok draw class is known not to
        converge: 1102 ok draws all converged to 1e-12 within 97 sweeps.  A
        draw that still misses ``max_iter`` is skipped and counted as an event,
        since unconverged iterates need not agree."""
        net, weights = case
        assume(hetsim.check_convergence_conditions(net, weights).ok)
        config = hetsim.SolverConfig(tol=1e-10, max_iter=500)
        dstate, dtrace = hetsim.solve_dense(net, weights, config)
        rank = max(t.size for t in net.types)
        fstate, ftrace = hetsim.solve_lowrank(
            net, weights, config, hetsim.SvdConfig(rank=rank, oversample=0)
        )
        if not (dtrace.converged and ftrace.converged):
            event("an ok draw did not converge")
        assume(dtrace.converged and ftrace.converged)
        for t in net.types:
            diff = np.abs(fstate[t.name].dense() - dstate[t.name]).max()
            assert diff <= 1e-6

    def test_factored_residual_matches_dense_residual(self):
        rng = np.random.default_rng(0)
        n = 30
        for k1, k2 in [(4, 6)] * 10 + [(0, 3), (3, 0), (0, 0)]:  # rank 0 on either side
            u1, _ = np.linalg.qr(rng.standard_normal((n, k1)))
            u2, _ = np.linalg.qr(rng.standard_normal((n, k2)))
            f1 = FactoredSimilarity(u1, rng.standard_normal(k1))
            f2 = FactoredSimilarity(u2, rng.standard_normal(k2))
            dense = np.linalg.norm(f2.dense() - f1.dense())
            assert factored_residual(f1, f2) == pytest.approx(dense, abs=1e-8)

    @staticmethod
    def _orthonormal_pairs():
        """544 x 15 orthonormal factors with |d| up to 30, as on test_10's papers."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            u, _ = np.linalg.qr(rng.standard_normal((544, 15)))
            yield u, rng.uniform(-30, 30, 15)

    def test_factored_residual_of_identical_factors_is_rounding(self):
        for u, d in self._orthonormal_pairs():
            f = FactoredSimilarity(u, d)
            assert factored_residual(f, FactoredSimilarity(u.copy(), d.copy())) <= 1e-12 * 30

    def test_factored_residual_resolves_a_tiny_change(self):
        for k, (u, d) in enumerate(self._orthonormal_pairs()):
            moved = d.copy()
            moved[k] += 1e-12
            residual = factored_residual(FactoredSimilarity(u, d), FactoredSimilarity(u, moved))
            assert residual == pytest.approx(1e-12, rel=0.1, abs=0)

    def test_deterministic_across_runs(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=25, seed=1))
        weights = hetsim.default_weights(net)
        cfg = hetsim.SolverConfig(tol=1e-9, max_iter=40)
        svd = hetsim.SvdConfig(rank=6, seed=123)
        s1, _ = hetsim.solve_lowrank(net, weights, cfg, svd)
        s2, _ = hetsim.solve_lowrank(net, weights, cfg, svd)
        for name in s1:
            assert np.array_equal(s1[name].U, s2[name].U)
            assert np.array_equal(s1[name].d, s2[name].d)


@st.composite
def random_networks(draw):
    """``synth random`` networks of 2-4 types of up to 30 entities, with
    default weights."""
    spec = hetsim.RandomNetworkSpec(
        k=draw(st.integers(2, 4)), n=draw(st.integers(8, 30)), seed=draw(st.integers(0, 2**32 - 1))
    )
    try:
        net = hetsim.random_network(spec)
    except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
        assume(False)
    return net, hetsim.default_weights(net)


def mixed_sweeps(monkeypatch):
    """Record the sweeps whose input a solve mixes: the 1-based index of each
    sweep that ``_anderson_weights`` runs before."""
    sweeps, mixed = [], []
    sweep, weights = lowrank.sweep_lowrank, lowrank._anderson_weights
    monkeypatch.setattr(lowrank, "sweep_lowrank", lambda *a: sweeps.append(1) or sweep(*a))
    monkeypatch.setattr(lowrank, "_anderson_weights",
                        lambda g: mixed.append(len(sweeps) + 1) or weights(g))
    return mixed


def expected_mixed_sweeps(sums):
    """The mixing policy replayed on a solve's summed residuals: the sweeps
    whose input mixes two or more (input, image) pairs, and the sweeps whose
    residual rise dropped the history (the MAX_RISES-th turns mixing off)."""
    depth, mixed, rises = 0, [], []
    for k in range(len(sums)):
        if depth > 1:
            mixed.append(k + 1)
        if depth and sums[k] > sums[k - 1]:
            rises.append(k + 1)
            depth = int(len(rises) < lowrank.MAX_RISES)
        elif depth or k == 3:  # sweep 4's pair opens the history
            depth = min(depth + 1, lowrank.MIX_DEPTH + 1)
    return mixed, rises


class TestAndersonMixing:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_biblio_converges_fast_to_the_plain_sweeps_limit(self, seed):
        from test_acceptance import BIBLIO_TINY, biblio_network

        net = biblio_network(42 + seed, BIBLIO_TINY)
        weights = hetsim.default_weights(net)
        svd = hetsim.SvdConfig(rank=8, oversample=10, power=2, seed=0)
        solved, trace = hetsim.solve_lowrank(
            net, weights, hetsim.SolverConfig(tol=1e-12, max_iter=40), svd
        )
        assert trace.converged
        table = update_plan(net, coupling_plan(net, weights), svd)
        state = {t.name: FactoredSimilarity.identity(t.size) for t in net.types}
        for sweeps in range(1, 1000):  # plain sweeps take over 200 here
            state, residuals, _ = sweep_lowrank(net, state, table, svd.power)
            if sum(residuals.values()) <= 1e-12:
                break
        assert sweeps > 5 * trace.iterations
        for name, f in solved.items():
            assert np.abs(f.dense() - state[name].dense()).max() <= 1e-10

    def test_first_mixed_input_is_sweep_six(self, monkeypatch):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=20, seed=4))
        weights = hetsim.default_weights(net)
        svd = hetsim.SvdConfig(rank=5, seed=7)
        mixed = mixed_sweeps(monkeypatch)
        table = update_plan(net, coupling_plan(net, weights), svd)
        state = {t.name: FactoredSimilarity.identity(t.size) for t in net.types}
        chained = []
        for _ in range(6):
            state, residuals, _ = sweep_lowrank(net, state, table, svd.power)
            chained.append(residuals)
        mixed.clear()  # the chained sweeps above went through the recorder too
        solved, trace = hetsim.solve_lowrank(
            net, weights, hetsim.SolverConfig(tol=1e-300, max_iter=6), svd
        )
        assert mixed == [6]
        assert trace.per_type[:5] == chained[:5] and trace.per_type[5] != chained[5]
        assert any(not np.array_equal(f.U, state[name].U) for name, f in solved.items())

    def test_each_correction_built_once_per_sweep(self, monkeypatch):
        # The history folds the corrections the sweep returns; it builds none.
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=20, seed=4))
        builds, correction = [], lowrank._correction
        monkeypatch.setattr(lowrank, "_correction", lambda *a: builds.append(1) or correction(*a))
        _, trace = hetsim.solve_lowrank(
            net, hetsim.default_weights(net), hetsim.SolverConfig(tol=1e-300, max_iter=12),
            hetsim.SvdConfig(rank=5),
        )
        assert trace.iterations == 12
        assert len(builds) == trace.iterations * len(net.types)

    def test_safeguard_restarts_then_switches_off(self, monkeypatch):
        # README's quickstart: synth random --K 3 --N 50 --seed 1, solved at
        # rank 10, seed 1, tol 1e-6.  The residual rises on a mixed sweep,
        # mixing restarts and the residual rises again; the third rise turns
        # mixing off, and plain sweeps finish the solve.
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=50, seed=1))
        mixed = mixed_sweeps(monkeypatch)
        _, trace = hetsim.solve_lowrank(
            net, hetsim.default_weights(net), hetsim.SolverConfig(tol=1e-6, max_iter=200),
            hetsim.SvdConfig(rank=10, seed=1),
        )
        assert trace.converged
        # The policy sums in update (name) order.
        sums = [sum(p[name] for name in sorted(p)) for p in trace.per_type]
        expected, rises = expected_mixed_sweeps(sums)
        assert mixed == expected and len(rises) == lowrank.MAX_RISES
        assert any(rises[0] < k < rises[-1] for k in mixed)  # restarted
        assert max(mixed) <= rises[-1] < trace.iterations  # switched off

    def test_gram_rows_take_only_the_kept_pairs(self, monkeypatch):
        # README's quickstart, as above.  Each join takes one inner product per
        # type with every pair the history keeps after it, itself included, and
        # none with a pair it drops.
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=50, seed=1))
        weights, svd = hetsim.default_weights(net), hetsim.SvdConfig(rank=10, seed=1)
        calls, inner = [], lowrank._inner
        monkeypatch.setattr(lowrank, "_inner", lambda *a: calls.append(1) or inner(*a))
        _, trace = hetsim.solve_lowrank(net, weights, hetsim.SolverConfig(tol=1e-6, max_iter=200),
                                        svd)
        sums = [sum(p[name] for name in sorted(p)) for p in trace.per_type]
        depth, rises, kept = 0, 0, []
        for k in range(3, len(sums) - 1):  # sweep k + 1's pair joins before sweep k + 2
            if depth and sums[k] > sums[k - 1]:
                rises, depth = rises + 1, 0
            if rises < lowrank.MAX_RISES:
                depth = min(depth + 1, lowrank.MIX_DEPTH + 1)
                kept.append(depth)
        assert rises == lowrank.MAX_RISES and max(kept) == lowrank.MIX_DEPTH + 1
        table = update_plan(net, coupling_plan(net, weights), svd)
        assert len(calls) == len(table) * sum(kept)

    def test_equal_factor_pairs_give_a_gram_entry_at_rounding(self):
        for u, d in TestSolveLowrank._orthonormal_pairs():
            f = FactoredSimilarity(u, d)
            zero = lowrank._correction(f, FactoredSimilarity(u.copy(), d.copy()))
            assert abs(lowrank._inner(zero, zero)) <= (1e-12 * 30) ** 2

    def test_corrections_and_inner_products_match_dense(self):
        rng = np.random.default_rng(3)
        n = 30
        pairs = []
        for k1, k2 in [(4, 6), (5, 5), (0, 3), (6, 2)]:
            u1, _ = np.linalg.qr(rng.standard_normal((n, k1)))
            u2, _ = np.linalg.qr(rng.standard_normal((n, k2)))
            old = FactoredSimilarity(u1, rng.standard_normal(k1))
            new = FactoredSimilarity(u2, rng.standard_normal(k2))
            q, c = part = lowrank._correction(old, new)
            np.testing.assert_allclose(q @ c @ q.T, new.dense() - old.dense(), atol=1e-12)
            pairs.append((part, new.dense() - old.dense()))
        for first, a in pairs:
            for second, b in pairs:
                assert lowrank._inner(first, second) == pytest.approx(np.vdot(a, b), abs=1e-11)

    def test_mix_of_equal_images_is_the_image(self):
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        f = FactoredSimilarity(u, rng.uniform(-30, 30, 6))
        mixed = lowrank._mix([f] * 4, np.array([0.7, -0.4, 1.2, -0.5]))
        np.testing.assert_allclose(mixed.dense(), f.dense(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(mixed.U.T @ mixed.U, np.eye(6), rtol=0, atol=1e-14)

    def test_weights_minimize_the_mixed_correction(self):
        rng = np.random.default_rng(8)
        fs = rng.standard_normal((4, 50)) * np.array([[1], [1e-2], [1e-4], [1e-6]])
        alpha = lowrank._anderson_weights(fs @ fs.T)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-14)
        best = np.linalg.norm(alpha @ fs)
        for _ in range(100):
            other = alpha + 1e-3 * rng.standard_normal(4)
            other += (1.0 - other.sum()) / 4
            assert np.linalg.norm(other @ fs) >= best

    @settings(max_examples=100, deadline=None)
    @given(random_networks())
    def test_mixed_full_rank_solve_agrees_with_dense(self, case):
        """``test_full_rank_solve_agrees_with_dense`` over ``random_networks``,
        whose solves run past the five plain sweeps: the mixed full-rank solve
        reaches the dense fixed point to 1e-6."""
        net, weights = case
        assume(hetsim.check_convergence_conditions(net, weights).ok)
        config = hetsim.SolverConfig(tol=1e-10, max_iter=500)
        dstate, dtrace = hetsim.solve_dense(net, weights, config)
        rank = max(t.size for t in net.types)
        fstate, ftrace = hetsim.solve_lowrank(
            net, weights, config, hetsim.SvdConfig(rank=rank, oversample=0)
        )
        if ftrace.iterations > 5:
            event("mixed")
        if not (dtrace.converged and ftrace.converged):
            event("an ok draw did not converge")
        assume(dtrace.converged and ftrace.converged)
        for t in net.types:
            diff = np.abs(fstate[t.name].dense() - dstate[t.name]).max()
            assert diff <= 1e-6


class TestQueries:
    def _state(self):
        rng = np.random.default_rng(10)
        u, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        return FactoredSimilarity(u, np.array([0.8, -0.3]))

    def test_self_query_not_forced_to_one(self):
        f = self._state()
        assert f.dense()[0, 0] != pytest.approx(1.0, abs=1e-6)

    def test_identity_state_queries(self):
        f = FactoredSimilarity.identity(4)
        np.testing.assert_array_equal(f.dense(), np.eye(4))
        results = top_k(f, 0, 3)
        assert results == [(1, 0.0), (2, 0.0), (3, 0.0)]

    def test_top_k_excludes_self_and_sorts(self):
        f = self._state()
        dense = f.dense()
        results = top_k(f, 2, 5)
        assert all(j != 2 for j, _ in results)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)
        # Scores come from the off-identity part of the factored form.
        expected = dense[2] - np.eye(6)[2]
        for j, s in results:
            assert s == pytest.approx(expected[j], abs=1e-12)

    def test_index_and_k_validation(self):
        f = self._state()
        with pytest.raises(IndexError):
            top_k(f, 6, 2)
        with pytest.raises(IndexError):
            top_k(f, -1, 2)
        with pytest.raises(ValueError):
            top_k(f, 0, 0)


class TestSvdConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            hetsim.SvdConfig(rank=0)
        with pytest.raises(ValueError):
            hetsim.SvdConfig(rank=2, oversample=-1)
        with pytest.raises(ValueError):
            hetsim.SvdConfig(rank={"A": 0})

    def test_rank_is_one_integer(self):
        # Rejected here, not later in a solve: a per-type mapping lacking a
        # type would raise a bare KeyError there.
        for rank in ({"A": 3}, 1.5, "3"):
            with pytest.raises(ValueError, match="rank must be one integer"):
                hetsim.SvdConfig(rank=rank)
        assert hetsim.SvdConfig(rank=np.int64(3)).rank == 3

    @pytest.mark.parametrize("name, value", [
        ("rank", True), ("rank", 2.0), ("oversample", 2.5), ("oversample", True),
        ("oversample", -1), ("power", 1.5), ("power", False), ("power", -1),
        ("seed", -1), ("seed", 3.0), ("seed", True), ("seed", "0"),
    ])
    def test_knobs_are_integers_not_bools(self, name, value):
        # oversample 2.5 and power 1.5 used to raise a TypeError inside
        # update_plan, and rank True solved at rank 1.
        with pytest.raises(ValueError, match=f"^{name} must be one integer of at least"):
            hetsim.SvdConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        svd = hetsim.SvdConfig(rank=np.int64(3), oversample=np.int32(0), power=np.int8(1),
                               seed=np.uint32(5))
        assert (svd.rank, svd.oversample, svd.power, svd.seed) == (3, 0, 1, 5)

    def test_rank_clamped_to_size(self):
        net = hetsim.build_network(
            [("A", [f"a{i}" for i in range(10)]), ("B", ["b0", "b1"])],
            [("r", "A", "B", [(f"a{i}", f"b{i % 2}") for i in range(10)])],
        )
        plan = coupling_plan(net, hetsim.default_weights(net))
        def ranks_and_widths(svd):
            table = update_plan(net, plan, svd)
            return [(table[name][4], getattr(table[name][5], "shape", None)) for name in "AB"]

        # A sketch as wide as the block is None: that type is decomposed exactly.
        assert ranks_and_widths(hetsim.SvdConfig(rank=50, oversample=3)) == [(10, None), (2, None)]
        assert ranks_and_widths(hetsim.SvdConfig(rank=3, oversample=10)) == [(3, None), (2, None)]
        assert ranks_and_widths(hetsim.SvdConfig(rank=3, oversample=4)) == [(3, (10, 7)), (2, None)]
