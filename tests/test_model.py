"""Network model, normalization, default weights, and condition checks."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hetsim
from hetsim.model import (
    NetworkError,
    STOCHASTIC_TOL,
    ConditionReport,
    column_stochastic,
)

from conftest import (
    assert_same_network,
    build_network_loop,
    networks_relations_weights,
    outcome,
)


class TestBuildNetwork:
    def test_basic_construction(self, toy_network):
        assert toy_network.type("A").size == 2
        assert toy_network.type("B").size == 1
        assert len(toy_network.relations) == 1
        assert toy_network.relation("r").n_edges == 2

    def test_empty_relation_list_is_valid(self):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        weights = hetsim.default_weights(net)
        state, trace = hetsim.solve_dense(net, weights)
        assert np.array_equal(state["A"], np.eye(2))
        assert trace.converged

    def test_index_order_follows_listing_order(self):
        net = hetsim.build_network([("A", ["z", "y", "x"])], [])
        assert net.type("A").index == {"z": 0, "y": 1, "x": 2}

    def test_duplicate_type_names_rejected(self):
        with pytest.raises(NetworkError):
            hetsim.build_network([("A", ["a1"]), ("A", ["a2"])], [])

    def test_duplicate_entity_ids_rejected(self):
        with pytest.raises(NetworkError):
            hetsim.build_network([("A", ["a1", "a1"])], [])

    def test_unknown_entity_id_rejected(self):
        with pytest.raises(NetworkError):
            hetsim.build_network(
                [("A", ["a1"]), ("B", ["b1"])],
                [("r", "A", "B", [("nope", "b1")])],
            )

    def test_unknown_endpoint_type_rejected(self):
        with pytest.raises(NetworkError):
            hetsim.build_network([("A", ["a1"])], [("r", "A", "C", [])])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(NetworkError):
            hetsim.build_network(
                [("A", ["a1"]), ("B", ["b1"])],
                [("r", "A", "B", [("a1", "b1"), ("a1", "b1")])],
            )

    def test_duplicate_relation_names_rejected(self):
        with pytest.raises(NetworkError):
            hetsim.build_network(
                [("A", ["a1"]), ("B", ["b1"])],
                [("r", "A", "B", []), ("r", "B", "A", [])],
            )

    def test_book_crossing_scale_schema(self):
        sizes = {"book": 3625, "author": 99, "year": 65, "publisher": 554}
        type_specs = [
            (name, [f"{name}{i}" for i in range(n)]) for name, n in sizes.items()
        ]
        rel_specs = [
            ("isAuthorOf", "author", "book", [("author0", "book0")]),
            ("publishedBy", "book", "publisher", [("book0", "publisher0")]),
            ("publishedIn", "book", "year", [("book0", "year0")]),
        ]
        net = hetsim.build_network(type_specs, rel_specs)
        assert [t.size for t in net.types] == [3625, 99, 65, 554]
        assert len(net.relations) == 3


# Ids that csv must quote, drawn from one pool so that a type's ids recur in
# other types and an edge can name an id its type lacks.
HOSTILE_ID = st.text(st.characters(codec="utf-8") | st.sampled_from(',"\r\n %'), max_size=4)


@st.composite
def network_specs(draw):
    """``build_network`` arguments: 1-3 types, 0-3 relations whose edges may
    name unknown ids or repeat, and now and then an unknown endpoint type."""
    names = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(HOSTILE_ID, min_size=1, max_size=6, unique=True))
    ids = st.lists(st.sampled_from(pool), min_size=1, unique=True)
    types = [(n, draw(ids)) for n in names]
    ends = st.sampled_from(names) | st.just("Z")
    edge = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    relations = [(f"r{k}", draw(ends), draw(ends), draw(st.lists(edge, max_size=8)))
                 for k in range(draw(st.integers(0, 3)))]
    return types, relations


@settings(max_examples=300, deadline=None)
@given(network_specs())
def test_build_network_matches_the_per_edge_loop(specs):
    """The whole-array id mapping builds the per-edge loop's network, or
    raises its error with its message (the first unknown id, edge by edge)."""
    got, want = outcome(hetsim.build_network, *specs), outcome(build_network_loop, *specs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_network(got, want)
    # Duplicate edges are found independently of Relation's own check.
    for name, _, _, edges in specs[1]:
        if want == (NetworkError, f"relation {name!r}: duplicate edges"):
            assert len(set(edges)) < len(edges)
        elif not isinstance(want, tuple):
            assert len(set(edges)) == len(edges)


class TestColumnStochastic:
    def test_forward_shared_destination(self, toy_network):
        op = column_stochastic(toy_network.relation("r"), "forward")
        dense = op.toarray()
        assert dense.shape == (2, 1)
        np.testing.assert_allclose(dense, [[0.5], [0.5]])

    def test_reverse_unit_columns(self, toy_network):
        op = column_stochastic(toy_network.relation("r"), "reverse")
        dense = op.toarray()
        assert dense.shape == (1, 2)
        np.testing.assert_allclose(dense, [[1.0, 1.0]])

    def test_isolated_destination_column_is_zero(self):
        net = hetsim.build_network(
            [("A", ["a1"]), ("B", ["b1", "b2"])],
            [("r", "A", "B", [("a1", "b1")])],
        )
        op = column_stochastic(net.relation("r"), "forward")
        dense = op.toarray()
        np.testing.assert_allclose(dense[:, 1], 0.0)

    def test_column_sums_are_one_or_zero(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=20, seed=3))
        for r in net.relations:
            for direction in ("forward", "reverse"):
                sums = np.asarray(
                    column_stochastic(r, direction).sum(axis=0)
                ).ravel()
                for s in sums:
                    assert s == 0.0 or abs(s - 1.0) <= STOCHASTIC_TOL

    def test_forward_reverse_transposed_patterns(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=15, seed=1))
        for r in net.relations:
            fwd = column_stochastic(r, "forward")
            rev = column_stochastic(r, "reverse")
            assert np.array_equal(
                (fwd != 0).toarray(), (rev != 0).toarray().T
            )

    def test_bad_direction_rejected(self, toy_network):
        with pytest.raises(ValueError):
            column_stochastic(toy_network.relation("r"), "sideways")

    def test_one_norm_at_most_one(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=12, seed=5))
        for r in net.relations:
            for direction in ("forward", "reverse"):
                sums = column_stochastic(r, direction).sum(axis=0)
                assert sums.max() <= 1 + 1e-12


@settings(max_examples=100, deadline=None)
@given(networks_relations_weights())
def test_column_stochastic_is_the_coo_built_csr(case):
    net, _ = case
    for r in net.relations:
        for direction, rows, cols, shape in (
            ("forward", r.src_idx, r.dst_idx, (r.src.size, r.dst.size)),
            ("reverse", r.dst_idx, r.src_idx, (r.dst.size, r.src.size)),
        ):
            counts = np.bincount(cols, minlength=shape[1])
            want = sp.csr_matrix((1.0 / counts[cols], (rows, cols)), shape=shape)
            got = column_stochastic(r, direction)
            assert got.format == "csr" and got.shape == shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def reference_report(net, weights) -> ConditionReport:
    """The condition check from the built operators' scipy column sums, each
    operator oriented toward the type whose bound it enters."""
    sums = {t.name: weights.type_sum(net, t.name) for t in net.types}
    over = tuple(t for t, s in sums.items() if s > 1.0 + STOCHASTIC_TOL)
    bounds = {}
    for t in net.types:
        bounds[t.name] = 0.0
        for r in net.incident(t.name):
            m = column_stochastic(r, "forward" if r.src.name == t.name else "reverse")
            bounds[t.name] += weights.weight(t.name, r.name) * m.sum(axis=0).max() ** 2
    return ConditionReport(over, sums, bounds)


@settings(max_examples=100, deadline=None)
@given(networks_relations_weights())
def test_condition_check_matches_scipy_column_sums(case):
    net, weights = case
    got, want = hetsim.check_convergence_conditions(net, weights), reference_report(net, weights)
    assert (got.overweight, got.weight_sums) == (want.overweight, want.weight_sums)
    assert got.lyapunov_bounds.keys() == want.lyapunov_bounds.keys()
    for name, bound in want.lyapunov_bounds.items():
        assert got.lyapunov_bounds[name] == pytest.approx(bound, rel=1e-12, abs=0)


class TestDefaultWeights:
    def test_three_relations_one_third_each(self):
        type_specs = [
            ("book", ["k1"]), ("author", ["a1"]), ("year", ["y1"]),
            ("publisher", ["p1"]),
        ]
        rel_specs = [
            ("isAuthorOf", "author", "book", [("a1", "k1")]),
            ("publishedBy", "book", "publisher", [("k1", "p1")]),
            ("publishedIn", "book", "year", [("k1", "y1")]),
        ]
        net = hetsim.build_network(type_specs, rel_specs)
        w = hetsim.default_weights(net)
        for rel in ("isAuthorOf", "publishedBy", "publishedIn"):
            assert w.weight("book", rel) == pytest.approx(1 / 3)
        assert w.weight("author", "isAuthorOf") == 1.0

    def test_single_self_relation_gets_weight_one(self):
        net = hetsim.build_network(
            [("T", ["v0", "v1"])], [("e", "T", "T", [("v0", "v1")])]
        )
        w = hetsim.default_weights(net)
        assert w.weight("T", "e") == 1.0

    def test_parallel_relations_split_evenly(self):
        net = hetsim.build_network(
            [("A", ["a1"]), ("B", ["b1"])],
            [
                ("r1", "A", "B", [("a1", "b1")]),
                ("r2", "A", "B", [("a1", "b1")]),
            ],
        )
        w = hetsim.default_weights(net)
        assert w.weight("A", "r1") == 0.5
        assert w.weight("A", "r2") == 0.5
        assert w.weight("B", "r1") == 0.5

    def test_per_type_sums_equal_one(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=5, n=20, seed=0))
        w = hetsim.default_weights(net)
        for t in net.types:
            assert w.type_sum(net, t.name) == pytest.approx(1.0)

    def test_isolated_type_gets_no_entries(self):
        net = hetsim.build_network([("A", ["a1"]), ("B", ["b1"])], [])
        w = hetsim.default_weights(net)
        assert w.entries == {}

    def test_negative_weight_rejected(self):
        with pytest.raises(NetworkError, match=re.escape("negative weight for ('A', 'r')")):
            hetsim.WeightMatrix({("A", "r"): -0.1})
        for w in (float("nan"), np.float32("nan"), float("inf"), -float("inf")):
            with pytest.raises(NetworkError, match=re.escape("non-finite weight for ('A', 'r')")):
                hetsim.WeightMatrix({("B", "s"): 0.5, ("A", "r"): w})


class TestConvergenceConditions:
    def test_default_weights_always_pass(self):
        for seed in range(5):
            net = hetsim.random_network(
                hetsim.RandomNetworkSpec(k=3, n=15, seed=seed)
            )
            report = hetsim.check_convergence_conditions(
                net, hetsim.default_weights(net)
            )
            assert report.ok
            assert report.overweight == ()

    def test_overweight_type_flagged(self, toy_network):
        w = hetsim.WeightMatrix({("A", "r"): 1.5, ("B", "r"): 1.0})
        report = hetsim.check_convergence_conditions(toy_network, w)
        assert not report.ok
        assert report.overweight == ("A",)
        assert report.weight_sums["A"] == pytest.approx(1.5)

    def test_lyapunov_bounds_at_most_one_for_stochastic(self):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=4, n=25, seed=2))
        report = hetsim.check_convergence_conditions(
            net, hetsim.default_weights(net)
        )
        for bound in report.lyapunov_bounds.values():
            assert bound <= 1 + 1e-12

    @pytest.mark.parametrize("entries, named", [
        ({("c0", "r_c0_c9"): 0.5, ("cX", "r_c0_c1"): 0.5}, ("c0", "r_c0_c9")),
        ({("cX", "r_c0_c1"): 0.5}, ("cX", "r_c0_c1")),
        ({("c2", "r_c0_c1"): 0.0, ("c1", "r_c0_c1"): 0.5}, ("c2", "r_c0_c1")),
        ({("c1", "r_c1_c2"): 0.5, ("c1", "r_c1_c0"): 0.5, ("c0", "r_c0_c1"): 1.0},
         ("c1", "r_c1_c0")),
    ])
    def test_weight_for_a_pair_the_network_lacks_refused(self, entries, named):
        """An unknown type or relation, or a type that is not an end of the
        relation, is refused at any weight; the first in sorted order is named."""
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=0))
        with pytest.raises(NetworkError, match=re.escape(
                f"weight for type {named[0]!r}: {named[1]!r} is not its relation") + "$"):
            hetsim.check_convergence_conditions(net, hetsim.WeightMatrix(entries))

    def test_isolated_node_columns_not_flagged(self):
        net = hetsim.build_network(
            [("A", ["a1"]), ("B", ["b1", "b2"])],
            [("r", "A", "B", [("a1", "b1")])],
        )
        report = hetsim.check_convergence_conditions(
            net, hetsim.default_weights(net)
        )
        assert report.ok
