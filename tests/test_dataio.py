"""Bundle, similarity, factors, points serialization, and heatmaps."""

import csv
import json

import numpy as np
import pytest

import hetsim
from hetsim import dataio
from hetsim.dataio import BundleError
from hetsim.lowrank import FactoredSimilarity
from hetsim.synth import PointCloud


class TestNetworkRoundTrip:
    def test_toy_round_trip(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        loaded, weights = dataio.load_network(tmp_path)
        assert weights is None
        assert [t.name for t in loaded.types] == ["A", "B"]
        assert loaded.type("A").ids == ("a1", "a2")
        assert loaded.relation("r").edge_ids() == [("a1", "b1"), ("a2", "b1")]

    def test_weights_round_trip(self, toy_network, toy_weights, tmp_path):
        dataio.save_network(toy_network, tmp_path, weights=toy_weights)
        _, weights = dataio.load_network(tmp_path)
        assert weights is not None
        assert weights.entries == toy_weights.entries

    def test_random_network_round_trip(self, tmp_path):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=12, seed=9))
        dataio.save_network(net, tmp_path)
        loaded, _ = dataio.load_network(tmp_path)
        assert [t.ids for t in loaded.types] == [t.ids for t in net.types]
        for ra, rb in zip(loaded.relations, net.relations):
            assert ra.edge_ids() == rb.edge_ids()

    def test_missing_schema_reported(self, tmp_path):
        with pytest.raises(BundleError, match="missing file"):
            dataio.load_network(tmp_path / "nowhere")

    def test_unknown_edge_id_reported_with_line(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        edges = tmp_path / "edges_r.csv"
        edges.write_text("src_id,dst_id\na1,b1\nghost,b1\n")
        with pytest.raises(BundleError, match=r"edges_r\.csv:3"):
            dataio.load_network(tmp_path)

    def test_duplicate_entity_id_reported_with_line(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        (tmp_path / "entities_A.csv").write_text("id\na1\na1\n")
        with pytest.raises(BundleError, match=r"entities_A\.csv:3"):
            dataio.load_network(tmp_path)

    def test_malformed_row_reported_with_line(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        (tmp_path / "edges_r.csv").write_text("src_id,dst_id\na1,b1,extra\n")
        with pytest.raises(BundleError, match=r"edges_r\.csv:2"):
            dataio.load_network(tmp_path)

    def test_bad_header_rejected(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        (tmp_path / "entities_A.csv").write_text("name\na1\n")
        with pytest.raises(BundleError, match="expected header"):
            dataio.load_network(tmp_path)

    def test_row_permutation_permutes_indices(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        (tmp_path / "entities_A.csv").write_text("id\na2\na1\n")
        loaded, _ = dataio.load_network(tmp_path)
        assert loaded.type("A").index == {"a2": 0, "a1": 1}


class TestSimilarityRoundTrip:
    def test_values_round_trip_exactly(self, toy_network, toy_weights, tmp_path):
        state, _ = hetsim.solve_dense(toy_network, toy_weights)
        path = tmp_path / "similarity.csv"
        dataio.save_similarity(state, toy_network, path)
        loaded = dataio.load_similarity(path, toy_network)
        for name, block in state.blocks.items():
            assert np.array_equal(loaded[name], block)

    def test_upper_triangle_row_counts(self, toy_network, toy_weights, tmp_path):
        state, _ = hetsim.solve_dense(toy_network, toy_weights)
        path = tmp_path / "similarity.csv"
        dataio.save_similarity(state, toy_network, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        off_diag = [r for r in rows if r[1] != r[2]]
        # |A| = 2 gives one off-diagonal pair, |B| = 1 gives none.
        assert len(off_diag) == 1
        assert len(rows) == 3 + 1  # diagonals plus the single pair

    def test_non_finite_values_rejected(self, toy_network, tmp_path):
        state = hetsim.SimilaritySet({"A": np.eye(2) * np.nan, "B": np.eye(1)})
        with pytest.raises(ValueError):
            dataio.save_similarity(state, toy_network, tmp_path / "s.csv")

    def test_read_single_block(self, toy_network, toy_weights, tmp_path):
        state, _ = hetsim.solve_dense(toy_network, toy_weights)
        path = tmp_path / "similarity.csv"
        dataio.save_similarity(state, toy_network, path)
        ids, block = dataio.read_similarity_block(path, "A")
        assert ids == ["a1", "a2"]
        assert np.array_equal(block, state["A"])
        with pytest.raises(BundleError):
            dataio.read_similarity_block(path, "missing")


class TestFactorsRoundTrip:
    def test_round_trip(self, tmp_path):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=10, seed=2))
        weights = hetsim.default_weights(net)
        states, trace = hetsim.solve_lowrank(
            net,
            weights,
            hetsim.SolverConfig(tol=1e-8, max_iter=30),
            hetsim.SvdConfig(rank=3, seed=1),
        )
        dataio.save_factors(states, net, tmp_path / "factors", 1, trace.iterations)
        loaded = dataio.load_factors(tmp_path / "factors")
        for name, f in states.items():
            assert np.array_equal(loaded[name].U, f.U)
            assert np.array_equal(loaded[name].d, f.d)

    def test_manifest_contents(self, tmp_path):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        states = {"A": FactoredSimilarity.identity(2)}
        dataio.save_factors(states, net, tmp_path, seed=7, iterations=4)
        manifest = json.loads((tmp_path / dataio.FACTORS_NAME).read_text())
        assert manifest["seed"] == 7
        assert manifest["iterations"] == 4
        assert manifest["types"][0]["rank"] == 0

    def test_missing_manifest_reported(self, tmp_path):
        with pytest.raises(BundleError, match="missing file"):
            dataio.load_factors(tmp_path)

    @pytest.mark.parametrize("name,row", [
        ("U_A.csv", "-1,0,0.5"), ("U_A.csv", "0,-1,0.5"), ("U_A.csv", "2,0,0.5"),
        ("U_A.csv", "0,1,0.5"), ("D_A.csv", "-1,0.5"), ("D_A.csv", "1,0.5"),
    ])
    def test_out_of_range_index_reported_with_line(self, tmp_path, name, row):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        states = {"A": FactoredSimilarity(np.ones((2, 1)), np.ones(1))}
        dataio.save_factors(states, net, tmp_path, seed=0, iterations=1)
        path = tmp_path / name
        lineno = len(path.read_text().splitlines()) + 1
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(BundleError, match=f"{name}:{lineno}: "):
            dataio.load_factors(tmp_path)


class TestPointsRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = PointCloud((rng.random((4, 2)), rng.random((3, 2))))
        path = tmp_path / "points.csv"
        dataio.save_points(pts, path)
        loaded = dataio.load_points(path)
        assert len(loaded.layers) == 2
        for a, b in zip(loaded.layers, pts.layers):
            assert np.array_equal(a, b)

    def test_empty_file_reported(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("layer,x,y\n")
        with pytest.raises(BundleError):
            dataio.load_points(path)


class TestHeatmap:
    def test_identity_two_color_field(self, tmp_path):
        path = tmp_path / "heat.svg"
        dataio.export_heatmap(np.eye(3), path)
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        fills = {line.split('fill="')[1].split('"')[0]
                 for line in text.splitlines() if 'fill="' in line}
        assert len(fills) == 2

    def test_constant_matrix_single_color(self, tmp_path):
        path = tmp_path / "flat.svg"
        dataio.export_heatmap(np.full((2, 2), 0.5), path)
        text = path.read_text()
        fills = {line.split('fill="')[1].split('"')[0]
                 for line in text.splitlines() if 'fill="' in line}
        assert len(fills) == 1

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dataio.export_heatmap(np.array([[np.inf]]), tmp_path / "x.svg")

    def test_cell_order_matches_matrix(self, tmp_path):
        m = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "order.svg"
        dataio.export_heatmap(m, path, cell=10)
        text = path.read_text()
        # The darkest cell (value 1.0) sits at row 0, column 1.
        dark = "rgb(%d,%d,%d)" % dataio._RAMP_HIGH
        cell_line = next(
            line for line in text.splitlines() if 'x="10" y="0"' in line
        )
        assert dark in cell_line
