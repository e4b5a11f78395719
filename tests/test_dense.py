"""Dense fixed-point solvers, the damped variant, and the classical oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import hetsim
from hetsim import dense, model
from hetsim.dense import ConditionError, coupling_plan, residual, sweep

from conftest import edge_ids, networks_relations_weights, single_type_graph


class TestSweep:
    def test_toy_off_diagonal(self, toy_network, toy_weights):
        state = hetsim.SimilaritySet.identity(toy_network)
        new, _ = sweep(toy_network, state, coupling_plan(toy_network, toy_weights))
        # W S_B W^T with W = [0.5; 0.5] puts 0.25 everywhere before the
        # diagonal reset.
        np.testing.assert_allclose(new["A"], [[1.0, 0.25], [0.25, 1.0]])
        np.testing.assert_allclose(new["B"], [[1.0]])

    def test_no_relations_is_identity_map(self):
        net = hetsim.build_network([("A", ["a1", "a2", "a3"])], [])
        state = hetsim.SimilaritySet.identity(net)
        new, _ = sweep(net, state, coupling_plan(net, hetsim.default_weights(net)))
        assert np.array_equal(new["A"], np.eye(3))

    def test_diagonal_always_one(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=12, seed=4))
        weights = hetsim.default_weights(net)
        rng = np.random.default_rng(0)
        blocks = {}
        for t in net.types:
            m = rng.random((t.size, t.size))
            m = 0.5 * (m + m.T)
            np.fill_diagonal(m, 1.0)
            blocks[t.name] = m
        new, _ = sweep(net, hetsim.SimilaritySet(blocks), coupling_plan(net, weights))
        for t in net.types:
            np.testing.assert_array_equal(np.diag(new[t.name]), 1.0)

    def test_symmetry_preserved(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=15, seed=7))
        weights = hetsim.default_weights(net)
        state = hetsim.SimilaritySet.identity(net)
        plan = coupling_plan(net, weights)
        for _ in range(5):
            state, _ = sweep(net, state, plan)
        for t in net.types:
            np.testing.assert_allclose(
                state[t.name], state[t.name].T, atol=1e-10
            )

    def test_shape_mismatch_rejected(self, toy_network, toy_weights):
        bad = hetsim.SimilaritySet({"A": np.eye(3), "B": np.eye(1)})
        with pytest.raises(ValueError):
            sweep(toy_network, bad, coupling_plan(toy_network, toy_weights))


def hand_built_network():
    """A self-relation, two parallel relations between one pair, and an
    isolated type."""
    return hetsim.build_network(
        [("A", ["a0", "a1", "a2"]), ("B", ["b0", "b1", "b2", "b3"]),
         ("C", ["c0", "c1"]), ("D", ["d0", "d1"])],
        [
            ("aa", "A", "A", [("a0", "a1"), ("a1", "a2"), ("a2", "a0"), ("a0", "a2")]),
            ("ab1", "A", "B", [("a0", "b0"), ("a1", "b1"), ("a1", "b2")]),
            ("ab2", "A", "B", [("a2", "b3"), ("a0", "b3"), ("a2", "b0")]),
            ("bc", "B", "C", [("b0", "c0"), ("b3", "c1")]),
        ],
    )


@st.composite
def networks_weights_states(draw):
    """random_network(k in [2, 4], n in [2, 15]), a single relation-free type
    (k = 1, which random_network rejects) or the hand-built network, with
    random weights (some zero; C's side of "bc" always) and random symmetric
    states."""
    k, n = draw(st.integers(0, 4)), draw(st.integers(2, 15))
    if k == 0:
        net = hand_built_network()
    elif k == 1:
        net = hetsim.build_network([("c0", [f"v{i}" for i in range(n)])], [])
    else:
        spec = hetsim.RandomNetworkSpec(k=k, n=n, seed=draw(st.integers(0, 2**32 - 1)))
        try:
            net = hetsim.random_network(spec)
        except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
            assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = {
        (t.name, r.name): rng.random() if rng.random() > 0.2 else 0.0
        for t in net.types for r in net.incident(t.name)
    }
    if ("C", "bc") in entries:
        entries[("C", "bc")] = 0.0
    blocks = {}
    for t in net.types:
        m = rng.random((t.size, t.size))
        blocks[t.name] = m + m.T
    return net, hetsim.WeightMatrix(entries), hetsim.SimilaritySet(blocks)


def explicit_sweep(net, weights, state):
    """Types in name order, each block sum_r w W S_p W^T with dense
    column-normalized W over the partners' newest blocks, then diag := 1."""
    out = dict(state.blocks)
    for name in sorted(t.name for t in net.types):
        t = net.type(name)
        acc = np.zeros((t.size, t.size))
        for r in net.incident(name):
            a = np.zeros((r.src.size, r.dst.size))
            a[r.src_idx, r.dst_idx] = 1.0
            a, partner = (a, r.dst) if r.src.name == name else (a.T, r.src)
            w = a / np.maximum(a.sum(axis=0), 1)
            acc += weights.weight(name, r.name) * (w @ out[partner.name] @ w.T)
        np.fill_diagonal(acc, 1.0)
        out[name] = acc
    return out


@settings(max_examples=80, deadline=None)
@given(networks_weights_states())
def test_sweep_is_the_explicit_weighted_sum(case):
    net, weights, state = case
    new, _ = sweep(net, state, coupling_plan(net, weights))
    for name, expected in explicit_sweep(net, weights, state).items():
        np.testing.assert_allclose(new[name], expected, rtol=0, atol=1e-13)


def test_solve_is_chained_sweeps_from_identity():
    """Two plain sweeps; this network's r_2 is above (RELAX - 1) r_1 and its
    residual does not rise at sweep 4, so sweeps 3 to 5 move every block,
    in update order, to T + (RELAX - 1)(T - S_t), T its plain update, and
    report the plain correction's norm ||T - S_t||."""
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=20, seed=3))
    weights = hetsim.default_weights(net)
    solved, trace = hetsim.solve_dense(
        net, weights, hetsim.SolverConfig(tol=1e-300, max_iter=5)
    )
    assert trace.iterations == 5
    assert trace.residuals[1] > (dense.RELAX - 1) * trace.residuals[0]
    assert trace.residuals[3] <= trace.residuals[2]
    state = hetsim.SimilaritySet.identity(net)
    plan = coupling_plan(net, weights)
    for _ in range(2):
        state, _ = sweep(net, state, plan)
    blocks = dict(state.blocks)
    for per_type in trace.per_type[2:]:
        for t in dense.update_order(net):
            plain = dense._coupling(t, blocks, plan)
            np.fill_diagonal(plain, 1.0)
            assert per_type[t.name] == np.linalg.norm(plain - blocks[t.name])
            blocks[t.name] = plain + (dense.RELAX - 1) * (plain - blocks[t.name])
    for t in net.types:
        assert np.array_equal(solved[t.name], blocks[t.name])


@pytest.mark.parametrize("damping", [None, 0.8], ids=["dense", "lyapunov"])
def test_bare_sweep_moves_every_block_relax_times_its_correction(damping):
    """``sweep(..., relax=RELAX)`` on its own: each block in ``update_order``
    moves RELAX times its plain correction, later types reading the moved
    blocks, and the sweep returns the plain corrections' norms keyed in
    update order, not in listing order (here its reverse)."""
    base = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=20, seed=3))
    net = hetsim.build_network(
        [(t.name, t.ids) for t in reversed(base.types)],
        [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in base.relations],
    )
    plan = coupling_plan(net, hetsim.default_weights(net))
    state, _ = sweep(net, hetsim.SimilaritySet.identity(net), plan, damping)
    new, norms = sweep(net, state, plan, damping, relax=dense.RELAX)
    assert list(norms) == [t.name for t in dense.update_order(net)] != [t.name for t in net.types]
    blocks = dict(state.blocks)
    for t in dense.update_order(net):
        plain = dense._coupling(t, blocks, plan)
        if damping is None:
            np.fill_diagonal(plain, 1.0)
        else:
            plain *= damping
            plain[np.diag_indices_from(plain)] += 1.0 - damping
        assert norms[t.name] == np.linalg.norm(plain - blocks[t.name])
        blocks[t.name] = plain + (dense.RELAX - 1) * (plain - blocks[t.name])
        assert np.array_equal(new[t.name], blocks[t.name])
        assert not np.array_equal(new[t.name], plain)


def test_fast_contracting_map_is_never_relaxed():
    """Weights summing to 0.2 per type: the residual falls by more than
    RELAX - 1 at sweep 2, so every sweep stays plain and the solve equals
    chained ``sweep``s bit for bit."""
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=0))
    weights = hetsim.WeightMatrix(
        {key: 0.2 * w for key, w in hetsim.default_weights(net).entries.items()}
    )
    solved, trace = hetsim.solve_dense(net, weights, hetsim.SolverConfig(tol=1e-12))
    assert trace.converged and trace.iterations > 3
    assert trace.residuals[1] <= (dense.RELAX - 1) * trace.residuals[0]
    state = hetsim.SimilaritySet.identity(net)
    plan = coupling_plan(net, weights)
    for _ in range(trace.iterations):
        state, _ = sweep(net, state, plan)
    for t in net.types:
        assert np.array_equal(solved[t.name], state[t.name])


def test_relaxation_is_switched_off_on_a_bipartite_graph():
    """A bipartite graph's coupling has eigenvalues near -1, on which sweeps
    relaxed for good diverge; the solve still converges, to the Jacobi
    fixed point."""
    b = np.array([[1, 1, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]])
    a = np.block([[np.zeros((5, 5)), b], [b.T, np.zeros((4, 4))]])
    net = single_type_graph(a)
    weights = hetsim.default_weights(net)
    config = hetsim.SolverConfig(tol=1e-10, max_iter=500)
    solved, trace = hetsim.solve_dense(net, weights, config)
    want, converged = jacobi_solve(net, weights, config)
    assert trace.converged and converged
    np.testing.assert_allclose(solved["T"], want["T"], rtol=0, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(networks_relations_weights())
def test_coupling_plan_stacks_the_weighted_operators(case):
    net, weights = case
    plan = coupling_plan(net, weights)
    assert not plan[net.types[-1].name][1]  # the type with no weighted side
    for t in net.types:
        sides = [
            (weights.weight(t.name, r.name),
             model.column_stochastic(r, "forward" if r.src.name == t.name else "reverse"),
             r.dst.name if r.src.name == t.name else r.src.name)
            for r in net.incident(t.name) if weights.weight(t.name, r.name)
        ]
        want = sp.hstack([w * m for w, m, _ in sides] or [sp.csr_matrix((t.size, 0))],
                         format="csr")
        stacked, rows = plan[t.name]
        assert stacked.format == "csr" and stacked.shape == want.shape
        assert np.array_equal(stacked.indptr, want.indptr)
        assert np.array_equal(stacked.indices, want.indices)
        assert np.array_equal(stacked.data, want.data)
        assert len(rows) == len(sides)
        for (w, oper, partner, start, stop), (want_w, want_m, want_partner) in zip(rows, sides):
            assert (w, partner, stop - start) == (want_w, want_partner, want_m.shape[1])
            assert oper.format == "csr" and oper.shape == want_m.shape
            assert np.array_equal(oper.indptr, want_m.indptr)
            assert np.array_equal(oper.indices, want_m.indices)
            assert np.array_equal(oper.data, want_m.data)


@st.composite
def networks_and_reorderings(draw):
    """random_network(k in [2, 4], n in [3, 15]) or the hand-built network,
    and the same network with its types and relations listed in a drawn
    order."""
    k = draw(st.integers(1, 4))
    if k == 1:
        net = hand_built_network()
    else:
        spec = hetsim.RandomNetworkSpec(
            k=k, n=draw(st.integers(3, 15)), seed=draw(st.integers(0, 2**32 - 1))
        )
        try:
            net = hetsim.random_network(spec)
        except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
            assume(False)
    types = draw(st.permutations(net.types))
    relations = draw(st.permutations(net.relations))
    reordered = hetsim.build_network(
        [(t.name, t.ids) for t in types],
        [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in relations],
    )
    return net, reordered


@pytest.mark.parametrize(
    "solve", [hetsim.solve_dense, hetsim.solve_lyapunov], ids=["dense", "lyapunov"]
)
@settings(max_examples=25, deadline=None)
@given(case=networks_and_reorderings())
def test_solution_does_not_depend_on_listing_order(case, solve):
    # The plan stacks a type's sides in incidence order, by relation name,
    # and sweeps update and key the types in name order, so reordering the
    # types and relations moves no bit
    # (test_reordering_types_and_relations_is_bit_exact); this checks the
    # weaker promise, the sweep count and the blocks to 1e-12.
    config = hetsim.SolverConfig(tol=1e-12, max_iter=500)
    (first, trace), (second, again) = (
        solve(net, hetsim.default_weights(net), config) for net in case
    )
    assert trace.iterations == again.iterations
    for name, block in first.blocks.items():
        np.testing.assert_allclose(second[name], block, rtol=0, atol=1e-12)


@st.composite
def networks_and_type_reorderings(draw):
    """random_network(k in [3, 5], n in [3, 15]) and the same network with only
    its types listed in a drawn order, its relations as they are.  Three or
    more types, so that a sum over the types can depend on its order."""
    spec = hetsim.RandomNetworkSpec(
        k=draw(st.integers(3, 5)), n=draw(st.integers(3, 15)), seed=draw(st.integers(0, 2**32 - 1))
    )
    try:
        net = hetsim.random_network(spec)
    except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
        assume(False)
    types = draw(st.permutations(net.types))
    reordered = hetsim.build_network(
        [(t.name, t.ids) for t in types],
        [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in net.relations],
    )
    return net, reordered


def _solve_lowrank_full_width(net, weights, config):
    # Rank as wide as the largest block and no oversampling: every type is
    # decomposed exactly, so no sketch is drawn.
    svd = hetsim.SvdConfig(rank=max(t.size for t in net.types), oversample=0)
    return hetsim.solve_lowrank(net, weights, config, svd)


def _solve_lowrank_sketched(net, weights, config):
    # Rank 2 plus 1 oversampled column, below every type's size in
    # networks_and_full_reorderings: every type's sketch is drawn.
    return hetsim.solve_lowrank(net, weights, config, hetsim.SvdConfig(rank=2, oversample=1))


def _arrays(state):
    """Every array of a solve's result, by type: the dense block, or U and d."""
    if isinstance(state, hetsim.SimilaritySet):
        return {name: [block] for name, block in state.blocks.items()}
    return {name: [f.U, f.d] for name, f in state.items()}


@pytest.mark.parametrize(
    "solve", [hetsim.solve_dense, hetsim.solve_lyapunov, _solve_lowrank_full_width],
    ids=["dense", "lyapunov", "lowrank-full-width"],
)
@settings(max_examples=25, deadline=None)
@given(case=networks_and_type_reorderings())
def test_reordering_only_the_types_is_bit_exact(case, solve):
    # Sweeps update the types in name order, each type's sides stay in
    # relation-name order, and iterate sums each sweep's residuals in name
    # order, so listing the types in another order moves no bit: not of a
    # block, not of the trace, not of the stop.
    config = hetsim.SolverConfig(tol=1e-12, max_iter=300)
    (first, trace), (second, again) = (
        solve(net, hetsim.default_weights(net), config) for net in case
    )
    assert trace.iterations == again.iterations
    assert trace.residuals == again.residuals
    assert trace.per_type == again.per_type
    mine, theirs = _arrays(first), _arrays(second)
    assert mine.keys() == theirs.keys()
    for name, arrays in mine.items():
        assert all(np.array_equal(a, b) for a, b in zip(arrays, theirs[name], strict=True))


@st.composite
def networks_and_full_reorderings(draw):
    """random_network(k in [3, 5], n in [8, 15]) and the same network with its
    types and relations listed in a drawn order.  Every type holds at least
    4 entities, so a rank-2 solve with 1 oversampled column sketches them all."""
    spec = hetsim.RandomNetworkSpec(
        k=draw(st.integers(3, 5)), n=draw(st.integers(8, 15)), seed=draw(st.integers(0, 2**32 - 1))
    )
    net = hetsim.random_network(spec)
    types = draw(st.permutations(net.types))
    relations = draw(st.permutations(net.relations))
    reordered = hetsim.build_network(
        [(t.name, t.ids) for t in types],
        [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in relations],
    )
    return net, reordered


@pytest.mark.parametrize(
    "solve",
    [hetsim.solve_dense, hetsim.solve_lyapunov, _solve_lowrank_sketched, _solve_lowrank_full_width],
    ids=["dense", "lyapunov", "lowrank-sketched", "lowrank-full-width"],
)
@settings(max_examples=25, deadline=None)
@given(case=networks_and_full_reorderings())
def test_reordering_types_and_relations_is_bit_exact(case, solve):
    # Each type's sides are summed in relation-name order (incident), sweeps
    # update and key the types in name order, and each sketch is drawn from
    # the stream at its type's position in that order, so listing the types
    # and relations in another order moves no bit: not of a block or a
    # factor, not of the trace, not of the stop.
    config = hetsim.SolverConfig(tol=1e-12, max_iter=300)
    (first, trace), (second, again) = (
        solve(net, hetsim.default_weights(net), config) for net in case
    )
    assert trace.iterations == again.iterations
    assert trace.residuals == again.residuals
    names = sorted(t.name for t in case[0].types)
    assert [list(p) for p in trace.per_type] == [names] * trace.iterations
    assert [list(p.items()) for p in trace.per_type] == [list(p.items()) for p in again.per_type]
    mine, theirs = _arrays(first), _arrays(second)
    assert mine.keys() == theirs.keys()
    for name, arrays in mine.items():
        assert all(np.array_equal(a, b) for a, b in zip(arrays, theirs[name], strict=True))


def jacobi_solve(net, weights, config, damping=None):
    """The solvers' fixed point by Jacobi sweeps, kept as their reference: every
    block from the previous sweep's blocks, sum_r w W S_p W^T with dense
    column-normalized W, then diag := 1, or with ``damping`` c the Lyapunov
    map c * sum_r w W S_p W^T + (1 - c) I.  Returns the blocks and whether
    the summed Frobenius residual reached ``config.tol``."""
    sides = {t.name: [] for t in net.types}
    for t in net.types:
        for r in net.incident(t.name):
            a = np.zeros((r.src.size, r.dst.size))
            a[r.src_idx, r.dst_idx] = 1.0
            a, partner = (a, r.dst) if r.src.name == t.name else (a.T, r.src)
            w = a / np.maximum(a.sum(axis=0), 1)
            sides[t.name].append((weights.weight(t.name, r.name), w, partner.name))
    state = {t.name: np.eye(t.size) for t in net.types}
    for _ in range(config.max_iter):
        new = {}
        for t in net.types:
            acc = sum((c * w @ state[p] @ w.T for c, w, p in sides[t.name]),
                      np.zeros((t.size, t.size)))
            if damping is None:
                np.fill_diagonal(acc, 1.0)
            else:
                acc = damping * acc + (1.0 - damping) * np.eye(t.size)
            new[t.name] = acc
        res = sum(np.linalg.norm(new[name] - state[name]) for name in state)
        state = new
        if res <= config.tol:
            return state, True
    return state, False


@pytest.mark.parametrize("damping", [None, 0.8], ids=["dense", "lyapunov"])
@settings(max_examples=100, deadline=None)
@given(case=networks_relations_weights())
def test_gauss_seidel_reaches_the_jacobi_fixed_point(case, damping):
    """On every drawn network whose condition check passes, the Gauss-Seidel
    solve and a Jacobi iteration, each run to tol 1e-10, agree to 1e-6.  A
    draw on which either one misses tol within ``max_iter`` is skipped and
    counted as an event, since unconverged iterates need not agree."""
    net, weights = case
    report = hetsim.check_convergence_conditions(net, weights)
    if damping is None:
        assume(report.ok)
    else:
        assume(all(damping * b < 1.0 for b in report.lyapunov_bounds.values()))
    config = hetsim.SolverConfig(tol=1e-10, max_iter=500)
    if damping is None:
        solved, trace = hetsim.solve_dense(net, weights, config)
    else:
        solved, trace = hetsim.solve_lyapunov(net, weights, config, damping=damping)
    want, converged = jacobi_solve(net, weights, config, damping)
    if not (trace.converged and converged):
        event("an ok draw did not converge")
    assume(trace.converged and converged)
    for t in net.types:
        np.testing.assert_allclose(solved[t.name], want[t.name], rtol=0, atol=1e-6)


def test_sweeps_to_tolerance_on_a_pinned_network():
    """The network ``synth random --K 4 --N 200 --seed 1`` writes reaches tol
    1e-9 within 30 over-relaxed Gauss-Seidel sweeps (26 measured; plain
    Gauss-Seidel sweeps take 54, Jacobi sweeps 104), so a rise in the sweep
    count fails here."""
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=200, seed=1))
    _, trace = hetsim.solve_dense(
        net, hetsim.default_weights(net), hetsim.SolverConfig(tol=1e-9, max_iter=300)
    )
    assert trace.converged and trace.iterations <= 30


@settings(max_examples=25, deadline=None)
@given(networks_and_reorderings())
def test_every_block_is_symmetric_with_unit_diagonal(case):
    config = hetsim.SolverConfig(tol=1e-12, max_iter=500)
    for net in case:
        solved, _ = hetsim.solve_dense(net, hetsim.default_weights(net), config)
        for block in solved.blocks.values():
            assert np.array_equal(np.diag(block), np.ones(len(block)))
            np.testing.assert_allclose(block, block.T, rtol=0, atol=1e-14)


@st.composite
def networks_and_row_permutations(draw):
    """random_network(k in [2, 4], n in [3, 15]) or the hand-built network,
    the index of one type, a permutation of that type's entity rows, and
    the network with that type's entities listed in the permuted order."""
    k = draw(st.integers(1, 4))
    if k == 1:
        net = hand_built_network()
    else:
        spec = hetsim.RandomNetworkSpec(
            k=k, n=draw(st.integers(3, 15)), seed=draw(st.integers(0, 2**32 - 1))
        )
        try:
            net = hetsim.random_network(spec)
        except hetsim.NetworkError:  # two size-1 types cannot hold 2 distinct edges
            assume(False)
    which = draw(st.integers(0, len(net.types) - 1))
    perm = np.array(draw(st.permutations(range(net.types[which].size))), dtype=int)
    permuted = hetsim.build_network(
        [(t.name, [t.ids[i] for i in perm] if i == which else t.ids)
         for i, t in enumerate(net.types)],
        [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in net.relations],
    )
    return net, which, perm, permuted


@settings(max_examples=25, deadline=None)
@given(networks_and_row_permutations())
def test_permuting_entity_rows_permutes_their_block(case):
    # Row i of the permuted type is entity perm[i], so its block is
    # P S P^T = S[perm][:, perm]; every other block stays as it was.
    net, which, perm, permuted = case
    config = hetsim.SolverConfig(tol=1e-12, max_iter=500)
    (first, trace), (second, again) = (
        hetsim.solve_dense(nw, hetsim.default_weights(nw), config) for nw in (net, permuted)
    )
    assert trace.iterations == again.iterations
    for i, t in enumerate(net.types):
        want = first[t.name][np.ix_(perm, perm)] if i == which else first[t.name]
        np.testing.assert_allclose(second[t.name], want, rtol=0, atol=1e-12)


def _solve_lowrank(net, weights, config=None, check=True):
    return hetsim.solve_lowrank(net, weights, config, hetsim.SvdConfig(rank=3), check=check)


every_solver = pytest.mark.parametrize(
    "solve",
    [hetsim.solve_dense, hetsim.solve_lyapunov, _solve_lowrank],
    ids=["dense", "lyapunov", "lowrank"],
)


@every_solver
@pytest.mark.parametrize("check", [True, False])
def test_weight_for_a_pair_the_network_lacks_refused(solve, check):
    """Such a weight is refused, not read as weight 0 for the real pairs, also
    when the convergence conditions are not checked."""
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=0))
    weights = hetsim.WeightMatrix({("c0", "r_c0_c9"): 0.5, ("cX", "r_c0_c1"): 0.5})
    with pytest.raises(hetsim.NetworkError,
                       match="^weight for type 'c0': 'r_c0_c9' is not its relation$"):
        solve(net, weights, check=check)


@every_solver
def test_each_operator_normalized_once_per_solve(solve, monkeypatch):
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=12, seed=1))
    calls = []

    def counting(relation, direction):
        calls.append((relation.name, direction))
        return original(relation, direction)

    original = model.column_stochastic
    monkeypatch.setattr(model, "column_stochastic", counting)
    solve(net, hetsim.default_weights(net), hetsim.SolverConfig(max_iter=2))
    assert len(calls) == 2 * len(net.relations)


class TestSolveDense:
    def test_toy_converges_at_iteration_two(self, toy_network, toy_weights):
        state, trace = hetsim.solve_dense(
            toy_network, toy_weights, hetsim.SolverConfig(tol=1e-14)
        )
        assert trace.converged
        assert trace.iterations == 2
        assert state["A"][0, 1] == pytest.approx(0.25, abs=1e-14)

    def test_fixed_point_stable_under_extra_sweep(self, toy_network, toy_weights):
        state, _ = hetsim.solve_dense(
            toy_network, toy_weights, hetsim.SolverConfig(tol=1e-14)
        )
        again, _ = sweep(toy_network, state, coupling_plan(toy_network, toy_weights))
        assert residual(state, again) <= 1e-13

    def test_permutation_relation_fixes_identity(self):
        # Each node related to exactly one distinct node: W is a permutation.
        a = np.zeros((4, 4))
        for i in range(4):
            a[i, (i + 1) % 4] = 1.0
        net = single_type_graph(a)
        state, trace = hetsim.solve_dense(net, hetsim.default_weights(net))
        assert trace.converged
        np.testing.assert_allclose(state["T"], np.eye(4), atol=1e-12)

    def test_monotone_decrease_on_random_networks(self):
        for seed in range(5):
            net = hetsim.random_network(
                hetsim.RandomNetworkSpec(k=3, n=30, seed=seed)
            )
            _, trace = hetsim.solve_dense(
                net,
                hetsim.default_weights(net),
                hetsim.SolverConfig(tol=1e-12, max_iter=15),
            )
            diffs = np.diff(trace.residuals)
            assert (diffs <= 1e-12).all()
            assert trace.residuals[9] < trace.residuals[0]

    def test_entries_stay_in_unit_range(self):
        for seed in range(5):
            net = hetsim.random_network(
                hetsim.RandomNetworkSpec(k=4, n=20, seed=seed)
            )
            state, _ = hetsim.solve_dense(
                net,
                hetsim.default_weights(net),
                hetsim.SolverConfig(tol=1e-9, max_iter=200),
            )
            for t in net.types:
                block = state[t.name]
                assert block.min() >= -1e-12
                assert block.max() <= 1 + 1e-12

    def test_homogeneous_reduction_iterate_for_iterate(self):
        # Single type, single relation, weight 1: each sweep must equal the
        # plain recurrence S := WSW^T - diag(WSW^T) + I computed with an
        # independent dense implementation.
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 31))
            a = (rng.random((n, n)) < 0.25).astype(float)
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
                state, _ = sweep(net, state, plan)
                assert np.abs(state["T"] - oracle).max() <= 1e-12

    def test_condition_failure_raises_unless_overridden(self, toy_network):
        w = hetsim.WeightMatrix({("A", "r"): 1.5, ("B", "r"): 1.0})
        with pytest.raises(ConditionError):
            hetsim.solve_dense(toy_network, w)
        state, _ = hetsim.solve_dense(
            toy_network, w, hetsim.SolverConfig(max_iter=3), check=False
        )
        assert all(np.isfinite(b).all() for b in state.blocks.values())


class TestSolveLyapunov:
    def test_bound_of_exactly_one_refused(self):
        """c * sum w ||W||_1^2 = 0.8 * 1.25 = 1 exactly: the damped map does
        not contract there (a hypothesis counterexample: its residual sits at
        0.2 for all 500 sweeps), so the precheck refuses it as it refuses a
        bound above 1.  The same network at c = 0.7 solves."""
        net = hetsim.build_network(
            [("t0", ["a", "b"])],
            [("r0", "t0", "t0", [("a", "a")]), ("r1", "t0", "t0", [("a", "a")])],
        )
        weights = hetsim.WeightMatrix({("t0", "r0"): 0.25, ("t0", "r1"): 1.0})
        config = hetsim.SolverConfig(tol=1e-10, max_iter=500)
        with pytest.raises(ConditionError, match=r"type 't0': .* = 1, not below 1"):
            hetsim.solve_lyapunov(net, weights, config, damping=0.8)
        _, trace = hetsim.solve_lyapunov(net, weights, config, damping=0.8, check=False)
        assert not trace.converged and trace.residuals[-1] > 0.1
        _, trace = hetsim.solve_lyapunov(net, weights, config, damping=0.7)
        assert trace.converged

    def test_no_relations_fixed_at_first_iterate(self):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        state, trace = hetsim.solve_lyapunov(
            net, hetsim.default_weights(net), damping=0.8
        )
        assert trace.converged
        np.testing.assert_allclose(state["A"], 0.2 * np.eye(2))

    def test_toy_closed_form(self, toy_network, toy_weights):
        # Fixed point of S = 0.8 * coupling(S) + 0.2 I solved by hand:
        # S_B = 13/9, S_A off-diagonal 13/45, diagonal 22/45.
        state, trace = hetsim.solve_lyapunov(
            toy_network,
            toy_weights,
            hetsim.SolverConfig(tol=1e-14, max_iter=500),
            damping=0.8,
        )
        assert trace.converged
        assert state["B"][0, 0] == pytest.approx(13 / 9, abs=1e-12)
        assert state["A"][0, 1] == pytest.approx(13 / 45, abs=1e-12)
        assert state["A"][0, 0] == pytest.approx(22 / 45, abs=1e-12)

    def test_contraction_ratio_bounded_by_damping(self):
        for seed in range(5):
            net = hetsim.random_network(
                hetsim.RandomNetworkSpec(k=5, n=25, seed=seed)
            )
            _, trace = hetsim.solve_lyapunov(
                net,
                hetsim.default_weights(net),
                hetsim.SolverConfig(tol=1e-11, max_iter=100),
                damping=0.8,
            )
            r = np.array(trace.residuals)
            ratios = r[1:] / r[:-1]
            assert (ratios <= 0.8 + 1e-9).all()

class TestResidual:
    def test_identical_states_give_zero(self, toy_network):
        s = hetsim.SimilaritySet.identity(toy_network)
        assert residual(s, hetsim.SimilaritySet({k: v.copy() for k, v in s.blocks.items()})) == 0.0

    def test_hand_frobenius_value(self):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        prev = hetsim.SimilaritySet.identity(net)
        new = hetsim.SimilaritySet({k: v.copy() for k, v in prev.blocks.items()})
        new["A"][0, 1] = new["A"][1, 0] = 0.5
        assert residual(prev, new) == pytest.approx(np.sqrt(0.5))

    def test_sum_over_types_order_independent(self):
        net = hetsim.build_network([("A", ["a1"]), ("B", ["b1"])], [])
        prev = hetsim.SimilaritySet({"A": np.eye(1), "B": np.eye(1)})
        new = hetsim.SimilaritySet({"B": np.eye(1) * 2, "A": np.eye(1) * 3})
        assert residual(prev, new) == pytest.approx(3.0)

    def test_shape_mismatch_rejected(self):
        prev = hetsim.SimilaritySet({"A": np.eye(2)})
        new = hetsim.SimilaritySet({"A": np.eye(3)})
        with pytest.raises(ValueError):
            residual(prev, new)


class TestSolverConfig:
    def test_invalid_values_rejected(self, toy_network, toy_weights):
        with pytest.raises(ValueError):
            hetsim.SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            hetsim.SolverConfig(max_iter=0)
        with pytest.raises(ValueError, match=r"damping must lie in \(0, 1\)"):
            hetsim.solve_lyapunov(toy_network, toy_weights, damping=1.0)

    @pytest.mark.parametrize("name, value", [
        ("max_iter", 2.5), ("max_iter", 3.0), ("max_iter", True), ("max_iter", False),
        ("max_iter", 0), ("max_iter", -1), ("max_iter", "5"), ("max_iter", None),
        ("tol", "1e-9"), ("tol", True), ("tol", 0.0), ("tol", -1e-9), ("tol", float("nan")),
        ("tol", float("inf")), ("tol", np.float32("inf")), ("tol", None),
    ])
    def test_fields_refused(self, name, value):
        # max_iter 2.5 used to fail inside iterate, max_iter True ran one
        # sweep, tol "1e-9" raised a bare TypeError, and tol inf stopped
        # after one sweep.
        want = "positive and finite" if name == "tol" else "one integer of at least 1"
        with pytest.raises(ValueError, match=f"^{name} must be {want}, got "):
            hetsim.SolverConfig(**{name: value})

    def test_numpy_numbers_accepted(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=2))
        config = hetsim.SolverConfig(tol=np.float32(1e-30), max_iter=np.int64(3))
        _, trace = hetsim.solve_dense(net, hetsim.default_weights(net), config)
        assert trace.iterations == 3

    @every_solver
    def test_trace_lengths_match(self, solve):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=2))
        _, trace = solve(net, hetsim.default_weights(net), hetsim.SolverConfig(max_iter=5))
        assert len(trace.residuals) == len(trace.seconds) == trace.iterations
        assert len(trace.per_type) == trace.iterations
        for res, per_type in zip(trace.residuals, trace.per_type):
            assert list(per_type) == [t.name for t in net.types]
            assert res == sum(per_type[t.name] for t in net.types)

    @every_solver
    def test_converges_past_the_opening_sweeps(self, solve):
        # Long enough for relaxed (dense, lyapunov) and Anderson-mixed
        # (lowrank, from sweep 6) sweeps: the trace still sums each sweep's
        # own per-type residuals.
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=2))
        _, trace = solve(net, hetsim.default_weights(net),
                         hetsim.SolverConfig(tol=1e-9, max_iter=300))
        assert trace.converged and trace.iterations > 5
        for res, per_type in zip(trace.residuals, trace.per_type):
            assert res == sum(per_type[t.name] for t in net.types)

    @every_solver
    def test_non_finite_iterate_raises_divergence(self, solve):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=8, seed=0))
        huge = hetsim.WeightMatrix({k: 1e200 for k in hetsim.default_weights(net).entries})
        with np.errstate(all="ignore"), pytest.raises(hetsim.DivergenceError):
            solve(net, huge, check=False)

    @every_solver
    def test_divergence_is_read_off_the_first_non_finite_residual(self, solve, monkeypatch):
        # At weights 1e200 the first iterate is still finite, but its distance
        # from S = I already overflows: the solve stops at iteration 1.  One
        # type, so no block reads another's overflowed update within a sweep.
        traces = []

        class Recorded(hetsim.SolveTrace):
            def __init__(self):
                super().__init__()
                traces.append(self)

        monkeypatch.setattr(dense, "SolveTrace", Recorded)
        net = single_type_graph(np.random.default_rng(0).random((8, 8)) < 0.3)
        huge = hetsim.WeightMatrix({k: 1e200 for k in hetsim.default_weights(net).entries})
        with np.errstate(all="ignore"), pytest.raises(
            hetsim.DivergenceError, match=r"^non-finite residual at iteration 1$"
        ):
            solve(net, huge, check=False)
        assert len(traces) == 1 and traces[0].iterations == 1
        assert not np.isfinite(traces[0].residuals[-1])
