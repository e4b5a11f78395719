"""Generators and the triple-ordering quality metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

import hetsim
from hetsim.model import NetworkError
from hetsim.synth import (
    LayeredGraphSpec,
    PointCloud,
    RandomNetworkSpec,
    _distances,
    geometric_ground_truth,
    layer_quality,
    layered_points_graph,
    ordering_quality,
    random_network,
)

from conftest import assert_same_network, edge_ids, outcome


def brute_force_quality(s, s_hat):
    """Literal triple loop, independent of the vectorized implementation."""
    n = s.shape[0]
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if s[a, b] < s[a, c] and s_hat[a, b] < s_hat[a, c]:
                    count += 1
    return count / n**3


class TestRandomNetwork:
    def test_structure_and_edge_counts(self):
        net = random_network(RandomNetworkSpec(k=3, n=10, seed=0))
        assert len(net.types) == 3
        assert len(net.relations) == 3
        for t in net.types:
            assert 5 <= t.size <= 10
        for r in net.relations:
            assert r.n_edges == 2 * min(r.src.size, r.dst.size)

    def test_all_type_pairs_present(self):
        net = random_network(RandomNetworkSpec(k=4, n=12, seed=1))
        pairs = {(r.src.name, r.dst.name) for r in net.relations}
        assert len(pairs) == 6

    def test_reproducible(self):
        a = random_network(RandomNetworkSpec(k=3, n=15, seed=7))
        b = random_network(RandomNetworkSpec(k=3, n=15, seed=7))
        for ra, rb in zip(a.relations, b.relations):
            assert edge_ids(ra) == edge_ids(rb)

    def test_pigeonhole_rejection(self):
        # Tiny sizes can demand more distinct edges than grid cells.
        with pytest.raises(NetworkError):
            for seed in range(50):
                random_network(RandomNetworkSpec(k=2, n=2, seed=seed))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomNetworkSpec(k=1, n=10)
        with pytest.raises(ValueError):
            RandomNetworkSpec(k=3, n=1)


class TestLayeredPointsGraph:
    def test_single_edge_at_close_range(self):
        pts = PointCloud(
            (np.array([[0.0, 0.0]]), np.array([[0.0, 0.1]]))
        )
        net, _ = layered_points_graph(
            LayeredGraphSpec(counts=(1, 1), radius=0.2), points=pts
        )
        assert net.relation("r1").n_edges == 1

    def test_no_edge_beyond_radius(self):
        pts = PointCloud(
            (np.array([[0.0, 0.0]]), np.array([[0.0, 0.1]]))
        )
        net, _ = layered_points_graph(
            LayeredGraphSpec(counts=(1, 1), radius=0.05), points=pts
        )
        assert net.relation("r1").n_edges == 0

    def test_relations_only_between_adjacent_layers(self):
        net, _ = layered_points_graph(
            LayeredGraphSpec(counts=(10, 10, 10), radius=0.4, seed=0)
        )
        assert [r.name for r in net.relations] == ["r1", "r2"]
        assert net.relation("r1").src.name == "layer1"
        assert net.relation("r1").dst.name == "layer0"
        assert net.relation("r2").src.name == "layer2"
        assert net.relation("r2").dst.name == "layer1"

    def test_edge_set_matches_brute_force(self):
        net, pts = layered_points_graph(
            LayeredGraphSpec(counts=(15, 12), radius=0.3, seed=5)
        )
        expected = set()
        for i, p in enumerate(pts.layers[1]):
            for j, q in enumerate(pts.layers[0]):
                if np.linalg.norm(p - q) < 0.3:
                    expected.add((f"p1_{i}", f"p0_{j}"))
        assert set(edge_ids(net.relation("r1"))) == expected

    def test_deterministic_given_seed(self):
        spec = LayeredGraphSpec(counts=(8, 8), radius=0.25, seed=3)
        _, a = layered_points_graph(spec)
        _, b = layered_points_graph(spec)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la, lb)

    def test_mismatched_override_rejected(self):
        pts = PointCloud((np.zeros((2, 2)), np.zeros((2, 2))))
        with pytest.raises(ValueError):
            layered_points_graph(
                LayeredGraphSpec(counts=(3, 2), radius=0.1), points=pts
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LayeredGraphSpec(counts=(5,), radius=0.1)
        with pytest.raises(ValueError):
            LayeredGraphSpec(counts=(5, 5), radius=0.0)


def random_network_by_ids(spec):
    """``random_network`` as it was built from formatted edge ids: the same
    draws, each endpoint written as an id and looked up by ``build_network``."""
    rng = np.random.default_rng(spec.seed)
    sizes = rng.integers(spec.n // 2, spec.n + 1, size=spec.k)
    sizes = np.maximum(sizes, 1)
    type_specs = [
        (f"c{i}", [f"c{i}_{j}" for j in range(sizes[i])]) for i in range(spec.k)
    ]
    relation_specs = []
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            si, sj = int(sizes[i]), int(sizes[j])
            m = 2 * min(si, sj)
            if m > si * sj:
                raise NetworkError(
                    f"cannot place {m} distinct edges on a {si}x{sj} grid "
                    f"(classes c{i}, c{j}); increase n"
                )
            cells = rng.choice(si * sj, size=m, replace=False)
            rows, cols = np.divmod(cells, sj)
            edges = [(f"c{i}_{a}", f"c{j}_{b}") for a, b in zip(rows, cols)]
            relation_specs.append((f"r_c{i}_c{j}", f"c{i}", f"c{j}", edges))
    return hetsim.build_network(type_specs, relation_specs)


def layered_points_graph_by_ids(spec):
    """``layered_points_graph`` as it was built from formatted edge ids."""
    rng = np.random.default_rng(spec.seed)
    points = PointCloud(tuple(rng.uniform(0.0, 1.0, size=(c, 2)) for c in spec.counts))
    type_specs = [
        (f"layer{k}", [f"p{k}_{i}" for i in range(c)])
        for k, c in enumerate(spec.counts)
    ]
    relation_specs = []
    for k in range(1, len(spec.counts)):
        dist = _distances(points.layers[k], points.layers[k - 1])
        ii, jj = np.nonzero(dist < spec.radius)
        edges = [(f"p{k}_{a}", f"p{k - 1}_{b}") for a, b in zip(ii, jj)]
        relation_specs.append((f"r{k}", f"layer{k}", f"layer{k - 1}", edges))
    return hetsim.build_network(type_specs, relation_specs), points


class TestBuiltFromIndexArrays:
    """The generators build each relation from the index arrays they draw;
    the networks equal those built from formatted edge ids, bit for bit, and
    a grid too small for its edges is refused with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 29), st.integers(0, 2**32 - 1))
    def test_random_network(self, k, n, seed):
        spec = RandomNetworkSpec(k=k, n=n, seed=seed)
        got, want = outcome(random_network, spec), outcome(random_network_by_ids, spec)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_network(got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 14), min_size=2, max_size=4),
           st.floats(0.01, 0.8), st.integers(0, 2**32 - 1))
    def test_layered_points_graph(self, counts, radius, seed):
        spec = LayeredGraphSpec(tuple(counts), radius, seed)
        (got, got_points), (want, want_points) = (
            layered_points_graph(spec), layered_points_graph_by_ids(spec))
        assert_same_network(got, want)
        for a, b in zip(got_points.layers, want_points.layers, strict=True):
            assert a.tobytes() == b.tobytes()


# Point clouds in the unit square, 1-60 points, drawn coordinates may repeat.
clouds = st.integers(1, 60).flatmap(
    lambda n: hnp.arrays(np.float64, (n, 2), elements=st.floats(0.0, 1.0))
)


class TestDistances:
    """synth computes its distances in numpy, in cdist's arithmetic, so
    `synth layered` bundles and `eval-q` reports keep their bytes."""

    @settings(max_examples=200, deadline=None)
    @given(a=clouds, b=clouds, shared=st.integers(0, 60))
    def test_bit_identical_to_cdist(self, a, b, shared):
        b = np.vstack([a[:shared], b])  # some of b's points are a's
        assert np.array_equal(_distances(a, b), cdist(a, b))
        if len(a) > 1:
            assert np.array_equal(geometric_ground_truth(a), -cdist(a, a))

    @pytest.mark.parametrize("counts, radius, seed", [
        ((10, 10, 10), 0.3, 2),
        ((15, 12), 0.3, 5),
        ((40, 40, 40), 0.05, 0),
        ((40, 40, 40), 0.15, 19),
        ((40, 40, 40), 0.5, 7),
        ((5, 4), 0.5, 1),
    ])
    def test_layered_edges_match_a_cdist_construction(self, counts, radius, seed):
        net, pts = layered_points_graph(LayeredGraphSpec(counts, radius, seed))
        for k in range(1, len(counts)):
            ii, jj = np.nonzero(cdist(pts.layers[k], pts.layers[k - 1]) < radius)
            want = [(f"p{k}_{a}", f"p{k - 1}_{b}") for a, b in zip(ii, jj)]
            assert edge_ids(net.relation(f"r{k}")) == want

    def test_any_dimension(self):
        rng = np.random.default_rng(8)
        a, b = rng.random((7, 5)), rng.random((9, 5))
        assert np.array_equal(_distances(a, b), cdist(a, b))


class TestGeometricGroundTruth:
    def test_coincident_points_maximal(self):
        s = geometric_ground_truth(np.array([[0.2, 0.2], [0.2, 0.2], [0.9, 0.9]]))
        assert s[0, 1] == 0.0
        assert s[0, 1] >= s[0, 2]

    def test_collinear_distances(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]) / 3.0
        s = geometric_ground_truth(pts) * 3.0
        assert s[0, 1] == pytest.approx(-1.0)
        assert s[0, 2] == pytest.approx(-3.0)
        assert s[1, 2] == pytest.approx(-2.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        s = geometric_ground_truth(rng.random((10, 2)))
        np.testing.assert_allclose(s, s.T)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            geometric_ground_truth(np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("points", [0.5, [0.1, 0.2, 0.3], np.zeros((3, 2, 2))])
    def test_needs_a_two_dimensional_array(self, points):
        with pytest.raises(ValueError):
            geometric_ground_truth(points)


class TestOrderingQuality:
    def test_reversed_ordering_scores_zero(self):
        rng = np.random.default_rng(1)
        s = rng.random((6, 6))
        assert ordering_quality(s, -s) == 0.0

    def test_collinear_fixture_is_one_third(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0]])
        s = geometric_ground_truth(pts)
        # Self-similarity at the row maximum keeps the diagonal on top.
        np.fill_diagonal(s, s.max())
        assert ordering_quality(s, s) == pytest.approx(1 / 3)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.random((10, 10))
            s_hat = rng.random((10, 10))
            assert ordering_quality(s, s_hat) == brute_force_quality(s, s_hat)

    def test_self_agreement_is_maximal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.random((5, 5))
            s_hat = rng.random((5, 5))
            assert ordering_quality(s, s) >= ordering_quality(s, s_hat)

    def test_symmetric_under_argument_swap(self):
        # The indicator [a and b] does not care about argument order, so the
        # literal triple count is symmetric.
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.random((5, 5))
            s_hat = rng.random((5, 5))
            assert ordering_quality(s, s_hat) == ordering_quality(s_hat, s)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        s = rng.random((8, 8))
        s_hat = rng.random((8, 8))
        base = ordering_quality(s, s_hat)
        assert ordering_quality(np.exp(3 * s), s_hat) == base
        assert ordering_quality(np.exp(3 * s), np.arctan(s_hat)) == base

    def test_range_and_validation(self):
        rng = np.random.default_rng(6)
        q = ordering_quality(rng.random((7, 7)), rng.random((7, 7)))
        assert 0.0 <= q <= 1.0
        with pytest.raises(ValueError):
            ordering_quality(np.eye(3), np.eye(4))
        with pytest.raises(ValueError):
            ordering_quality(np.eye(1), np.eye(1))


class TestLayerQuality:
    def test_low_rank_beats_dense_at_sparse_radius(self):
        # In the sparse-radius regime the rank-truncated solver reconstructs
        # the geometry better than the dense fixed point.
        qs_dense, qs_lowrank = [], []
        for trial in range(5):
            spec = LayeredGraphSpec(counts=(40, 40, 40), radius=0.15, seed=trial)
            net, pts = layered_points_graph(spec)
            weights = hetsim.default_weights(net)
            cfg = hetsim.SolverConfig(tol=1e-9, max_iter=200)
            dense_state, _ = hetsim.solve_dense(net, weights, cfg)
            qs_dense.append(layer_quality(pts, dense_state.blocks)[0])
            fstate, _ = hetsim.solve_lowrank(
                net, weights, cfg, hetsim.SvdConfig(rank=10, seed=0)
            )
            blocks = {name: f.dense() for name, f in fstate.items()}
            qs_lowrank.append(layer_quality(pts, blocks)[0])
        assert np.mean(qs_lowrank) > np.mean(qs_dense)
