"""Bundle, similarity, factors, points serialization, and heatmaps."""

import csv
import io
import json
import re
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hetsim
from hetsim import dataio
from hetsim.dataio import BundleError
from hetsim.lowrank import FactoredSimilarity
from hetsim.synth import PointCloud

from conftest import assert_same_network, build_network_loop, edge_ids, outcome


class TestNetworkRoundTrip:
    def test_toy_round_trip(self, toy_network, tmp_path):
        dataio.save_network(toy_network, tmp_path)
        loaded, weights = dataio.load_network(tmp_path)
        assert weights is None
        assert [t.name for t in loaded.types] == ["A", "B"]
        assert loaded.type("A").ids == ("a1", "a2")
        assert edge_ids(loaded.relation("r")) == [("a1", "b1"), ("a2", "b1")]

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
            assert edge_ids(ra) == edge_ids(rb)

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

    @pytest.mark.parametrize("only", [None, "A", "B"])
    def test_repeated_type_name_rejected(self, tmp_path, only):
        # Both entries would be read and the last would win: A would hold B's U.
        net = hetsim.build_network([("A", ["a1", "a2"]), ("B", ["b1", "b2", "b3"])], [])
        states = {t.name: FactoredSimilarity(np.ones((t.size, 1)), np.ones(1)) for t in net.types}
        dataio.save_factors(states, net, tmp_path, seed=0, iterations=1)
        path = tmp_path / dataio.FACTORS_NAME
        manifest = json.loads(path.read_text())
        manifest["types"][1]["name"] = "A"
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match=f"^{re.escape(str(path))}: duplicate type names$"):
            dataio.load_factors(tmp_path, only=only)

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

    @pytest.mark.parametrize("row", ["0,0.5,x", "0,nan,0.5", "1,0.5,inf", "0.5,0,0"])
    def test_malformed_row_reported_with_line(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text(f"layer,x,y\n0,0.25,0.5\n{row}\n1,0.5,0.5\n")
        with pytest.raises(BundleError, match=exactly(f"{path}:3: malformed point row")):
            dataio.load_points(path)

    @pytest.mark.parametrize("row", ["0,-0.5,0.5", "1,0.5,1.25", "0,-1e-300,0"])
    def test_point_outside_the_unit_square_reported_with_line(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text(f"layer,x,y\n0,0.25,0.5\n{row}\n1,0.5,0.5\n")
        with pytest.raises(BundleError, match=exactly(f"{path}:3: coordinates must lie in [0, 1]")):
            dataio.load_points(path)

    @pytest.mark.parametrize("row", ["-1,0.5,0.5", "-2,0,0", "-9223372036854775808,0,0"])
    def test_negative_layer_reported_with_line(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text(f"layer,x,y\n0,0.25,0.5\n{row}\n1,0.5,0.5\n")
        with pytest.raises(BundleError, match=exactly(f"{path}:3: negative layer number")):
            dataio.load_points(path)

    @pytest.mark.parametrize("layers, missing", [
        ([1, 2], 0), ([0, 2], 1), ([2, 0, 3, 1, 5], 4), ([0, 0, 7, 0], 1),
        ([0, 2**62], 1), ([], 0), ([10**12], 0),
    ])
    def test_layer_with_no_points_refused(self, tmp_path, layers, missing):
        """Layers are read by number: a number below the largest with no
        points is refused for the whole file, not renumbered away."""
        path = tmp_path / "points.csv"
        path.write_text("layer,x,y\n" + "".join(f"{k},0.5,0.5\n" for k in layers))
        with pytest.raises(BundleError, match=exactly(f"{path}: no points in layer {missing}")):
            dataio.load_points(path)

    def test_layers_read_by_number_in_any_row_order(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("layer,x,y\n1,0.1,0.1\n0,0.2,0.2\n2,0.3,0.3\n1,0.4,0.4\n")
        loaded = dataio.load_points(path)
        assert [layer.tolist() for layer in loaded.layers] == [
            [[0.2, 0.2]], [[0.1, 0.1], [0.4, 0.4]], [[0.3, 0.3]]
        ]

    def test_many_layers_split_in_one_pass(self, tmp_path):
        """60 000 one-row layers in shuffled rows read in well under 5 s: one
        sort by layer number and one split, where a mask per layer took about
        13 s at this size on a 2-core machine."""
        n = 60_000
        path = tmp_path / "points.csv"
        path.write_text("layer,x,y\n" + "".join(
            f"{k},{k / n},0.25\n" for k in np.random.default_rng(0).permutation(n)))
        start = time.perf_counter()
        loaded = dataio.load_points(path)
        assert time.perf_counter() - start < 5.0
        assert np.array_equal(np.vstack(loaded.layers)[:, 0], np.arange(n) / n)
        assert all(layer.shape == (1, 2) for layer in loaded.layers)


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


# -- byte identity with the row-by-row writers ----------------------------------

GOLDEN = Path(__file__).parent / "data"


def golden_inputs():
    """A fixed network whose ids need csv quoting (commas, double quotes, a
    line break, an empty id, non-ASCII text, ``%``), with a self-relation and
    an empty relation, seeded values with edge cases, factors including a
    rank-0 type, and a heatmap matrix with ties."""
    net = hetsim.build_network(
        [("paper", ["p,1", 'p"2"', "Zürich", "東京", "", " lead", "line\nbreak"]),
         ("venue", ["v1", "v,2", 'Ωmega"', "ve%s"])],
        [("cites", "paper", "paper", [("p,1", 'p"2"'), ("東京", "p,1"), ("", "line\nbreak"),
                                      ("line\nbreak", ""), (" lead", " lead")]),
         ("in", "paper", "venue", [("p,1", "v,2"), ('p"2"', "ve%s"), ("Zürich", 'Ωmega"'),
                                   ("", "v1"), ("東京", "v1"), ("line\nbreak", "ve%s")]),
         ("none", "venue", "venue", [])],
    )
    rng = np.random.default_rng(2015)
    blocks = {}
    for t in net.types:
        a = rng.standard_normal((t.size, t.size)) * 10.0 ** rng.integers(-8, 9, (t.size, t.size))
        a = np.triu(a) + np.triu(a, 1).T
        np.fill_diagonal(a, 1.0)
        blocks[t.name] = a
    edge = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-310]
    for k, v in enumerate(edge):
        blocks["paper"][0, k + 1] = blocks["paper"][k + 1, 0] = v
    factors = {
        "paper": FactoredSimilarity(rng.standard_normal((7, 3)) * [1e-300, 1.0, 1e300],
                                    np.array([2.5, -1 / 7, 0.0])),
        "venue": FactoredSimilarity.identity(4),
    }
    heat = np.vstack([rng.random((5, 9)), np.array([0, 0.5, 1, 1.5, 2, 0.25, 1.75, 0.75, 1.25])])
    return net, hetsim.SimilaritySet(blocks), factors, heat


def write_golden(out_dir):
    """Write the golden files from ``golden_inputs``.  The files under
    tests/data were written by this function running the row-by-row csv
    writers that the vectorized ones replaced."""
    out = Path(out_dir)
    net, state, factors, heat = golden_inputs()
    dataio.save_network(net, out / "bundle", weights=hetsim.default_weights(net))
    dataio.save_similarity(state, net, out / "similarity.csv")
    dataio.save_factors(factors, net, out / "factors", seed=5, iterations=7)
    dataio.export_heatmap(heat, out / "heatmap.svg")


GOLDEN_FILES = ["similarity.csv", "heatmap.svg", "factors/factors.json",
                "factors/U_paper.csv", "factors/D_paper.csv",
                "factors/U_venue.csv", "factors/D_venue.csv",
                "bundle/schema.json", "bundle/entities_paper.csv", "bundle/entities_venue.csv",
                "bundle/edges_cites.csv", "bundle/edges_in.csv", "bundle/edges_none.csv"]


class TestGoldenBytes:
    @pytest.mark.parametrize("name", GOLDEN_FILES)
    def test_writers_reproduce_golden_bytes(self, tmp_path, name):
        write_golden(tmp_path)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_golden_files_read_back_exactly(self):
        net, state, factors, _ = golden_inputs()
        loaded = dataio.load_similarity(GOLDEN / "similarity.csv", net)
        for t in net.types:
            assert loaded[t.name].tobytes() == state[t.name].tobytes()
            ids, block = dataio.read_similarity_block(GOLDEN / "similarity.csv", t.name)
            assert ids == list(t.ids)
            assert block.tobytes() == state[t.name].tobytes()
        for name, f in dataio.load_factors(GOLDEN / "factors").items():
            assert f.U.tobytes() == factors[name].U.tobytes()
            assert f.d.tobytes() == factors[name].d.tobytes()

    def test_golden_bundle_reads_back_the_network(self):
        net = golden_inputs()[0]
        loaded, weights = dataio.load_network(GOLDEN / "bundle")
        assert_same_network(loaded, net)
        assert weights.entries == hetsim.default_weights(net).entries


class TestOneTypeReads:
    """The one-type readers return what the whole readers return for that type."""

    def _solved(self, tmp_path):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=6, seed=3))
        dataio.save_network(net, tmp_path / "bundle")
        svd = hetsim.SvdConfig(rank=2)
        factors, trace = hetsim.solve_lowrank(net, hetsim.default_weights(net), svd=svd)
        dataio.save_factors(factors, net, tmp_path / "factors", 0, trace.iterations)
        return tmp_path / "bundle", tmp_path / "factors"

    @pytest.mark.parametrize("source", ["golden", "solved"])
    def test_one_type_reads_match_the_whole_reads(self, tmp_path, source):
        if source == "golden":
            bundle, factors = GOLDEN / "bundle", GOLDEN / "factors"
        else:
            bundle, factors = self._solved(tmp_path)
        network = dataio.load_network(bundle)[0]
        whole = dataio.load_factors(factors)
        assert list(whole) == [t.name for t in network.types]
        for t in network.types:
            one = dataio.load_factors(factors, only=t.name)
            assert list(one) == [t.name]
            for got, want in ((one[t.name].U, whole[t.name].U), (one[t.name].d, whole[t.name].d)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            got = dataio.load_entity_type(bundle, t.name)
            assert (got.name, got.ids, got.index) == (t.name, t.ids, t.index)
        assert dataio.load_factors(factors, only="x") == {}
        with pytest.raises(hetsim.NetworkError, match="unknown type 'x'"):
            dataio.load_entity_type(bundle, "x")


def heatmap_loop(matrix, cell=8) -> str:
    """The per-cell renderer that export_heatmap replaced, kept as its oracle."""
    m = np.asarray(matrix, dtype=float)
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo
    rows, cols = m.shape
    low, high = dataio._RAMP_LOW, dataio._RAMP_HIGH
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
        f'height="{rows * cell}" viewBox="0 0 {cols * cell} {rows * cell}">\n'
        f"<!-- linear ramp: {lo:.6g} -> rgb{low}, {hi:.6g} -> rgb{high} -->\n"
    ]
    for i in range(rows):
        for j in range(cols):
            frac = (m[i, j] - lo) / span if span > 0 else 0.0
            rgb = tuple(round(a + frac * (b - a)) for a, b in zip(low, high))
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({rgb[0]},{rgb[1]},{rgb[2]})"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def assert_heatmap_matches_loop(matrix, path, cell=8):
    try:
        with np.errstate(all="ignore"):
            expected = heatmap_loop(matrix, cell).encode("utf-8")
    except ValueError:  # round() of NaN: the value range overflows
        with pytest.raises(ValueError):
            dataio.export_heatmap(matrix, path, cell)
        return
    dataio.export_heatmap(matrix, path, cell)
    assert path.read_bytes() == expected


class TestHeatmapOracle:
    @pytest.mark.parametrize("matrix", [
        np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 0.125]]),  # ties at .5 before rounding
        np.array([[0.0, 1.0, 2.0, 3.0]]) / 3,
        np.full((3, 4), -2.5),
        np.full((1, 1), 7.0),
        np.linspace(-1, 1, 11)[None, :],
        np.linspace(-1, 1, 11)[:, None],
        np.array([[1e-300, 2e-300], [3e-300, 0.0]]),
        np.array([[5e-324, 0.0, 1e-323]]),
        np.array([[1e300, -1e300], [0.0, 1.0]]),
        np.array([[1.7976931348623157e308, -1.7976931348623157e308]]),  # overflows
        np.array([[1.0, 1.0 + 2.0**-52]]),
        # The fills are looked up per row from the array of distinct colours.
        np.random.default_rng(5).random((4, 6)).T,  # a transposed (non-contiguous) view
        np.arange(-6, 6).reshape(3, 4),  # integers
        np.random.default_rng(6).integers(0, 7, (60, 70)) / 6.0,  # 7 colours, each repeated
        np.full((1, 9), 0.5),  # a row of one colour
    ])
    @pytest.mark.parametrize("cell", [8, 1, 13])
    def test_fixed_cases(self, tmp_path, matrix, cell):
        assert_heatmap_matches_loop(matrix, tmp_path / "h.svg", cell)

    @settings(max_examples=150, deadline=None)
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 7), st.integers(1, 7)),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-1, 1),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            ),
        )
    )
    def test_random_matrices(self, tmp_path_factory, matrix):
        assert_heatmap_matches_loop(matrix, tmp_path_factory.mktemp("h") / "h.svg")

    def test_random_uniform_block(self, tmp_path):
        m = np.random.default_rng(3).random((40, 33))
        assert_heatmap_matches_loop(m, tmp_path / "h.svg")


# -- round trips -----------------------------------------------------------------

# Ids drawn from any text, with the characters csv must quote made common.
QUOTABLE = st.characters(codec="utf-8") | st.sampled_from(',"\r\n %')
ID_TEXT = st.text(QUOTABLE, max_size=6)
NAMES = st.text("abcxyz_019", min_size=1, max_size=5)  # safe in file names
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def networks(draw, names=NAMES, relations=False):
    names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    types = [(name, draw(st.lists(ID_TEXT, min_size=1, max_size=6, unique=True)))
             for name in names]
    rels = []
    if relations:
        ids = dict(types)
        for k in range(draw(st.integers(0, 3))):
            src, dst = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            pairs = [(a, b) for a in ids[src] for b in ids[dst]]
            edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
            rels.append((f"r{k}", src, dst, edges))
    return hetsim.build_network(types, rels)


@st.composite
def symmetric_blocks(draw, network):
    blocks = {}
    for t in network.types:
        upper = draw(hnp.arrays(float, (t.size, t.size), elements=FINITE))
        blocks[t.name] = np.triu(upper) + np.triu(upper, 1).T
    return hetsim.SimilaritySet(blocks)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_similarity_round_trip(self, tmp_path_factory, data):
        net = data.draw(networks(names=st.text(QUOTABLE, min_size=1, max_size=4)))
        state = data.draw(symmetric_blocks(net))
        path = tmp_path_factory.mktemp("s") / "similarity.csv"
        dataio.save_similarity(state, net, path)
        loaded = dataio.load_similarity(path, net)
        for t in net.types:
            assert same_bits(loaded[t.name], state[t.name])
            ids, block = dataio.read_similarity_block(path, t.name)
            assert ids == list(t.ids)
            assert same_bits(block, state[t.name])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_factors_round_trip(self, tmp_path_factory, data):
        net = data.draw(networks())
        states = {}
        for t in net.types:
            rank = data.draw(st.integers(0, 3))
            u = data.draw(hnp.arrays(float, (t.size, rank), elements=FINITE))
            d = data.draw(hnp.arrays(float, rank, elements=FINITE))
            states[t.name] = FactoredSimilarity(u, d)
        out = tmp_path_factory.mktemp("f")
        dataio.save_factors(states, net, out, seed=1, iterations=2)
        loaded = dataio.load_factors(out)
        assert loaded.keys() == states.keys()
        for name, f in states.items():
            assert same_bits(loaded[name].U, f.U)
            assert same_bits(loaded[name].d, f.d)

    @settings(max_examples=60, deadline=None)
    @given(networks(relations=True), st.booleans())
    def test_network_round_trip(self, tmp_path_factory, net, weighted):
        weights = hetsim.default_weights(net) if weighted else None
        out = tmp_path_factory.mktemp("b")
        dataio.save_network(net, out, weights=weights)
        loaded, loaded_weights = dataio.load_network(out)
        assert [(t.name, t.ids) for t in loaded.types] == [(t.name, t.ids) for t in net.types]
        assert [(r.name, r.src.name, r.dst.name, edge_ids(r)) for r in loaded.relations] == [
            (r.name, r.src.name, r.dst.name, edge_ids(r)) for r in net.relations
        ]
        if weighted:
            assert loaded_weights.entries == weights.entries
        else:
            assert loaded_weights is None


# -- error paths of the streaming readers ----------------------------------------

def exactly(message):
    return f"^{re.escape(message)}$"


class TestStreamingReaderErrors:
    """Errors name the line a row-by-row reader would, at any chunk size."""

    @pytest.fixture(params=[1, 2, 3, None], ids=lambda c: f"chunk{c or 'default'}")
    def chunk(self, request, monkeypatch):
        """Lines (and bytes, for the plain similarity reader) per streaming
        pass: a few, to cross pass boundaries and split lines, or the default."""
        if request.param:
            monkeypatch.setattr(dataio, "_CHUNK_ROWS", request.param)
            monkeypatch.setattr(dataio, "_CHUNK_BYTES", request.param)

    def _dump(self, tmp_path):
        """Lines of a similarity dump of A = {a1, a2, a3} and B = {b1, b2}."""
        net = hetsim.build_network([("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])], [])
        rng = np.random.default_rng(4)
        state = hetsim.SimilaritySet(
            {t.name: (lambda a: a + a.T)(rng.random((t.size, t.size))) for t in net.types}
        )
        path = tmp_path / "similarity.csv"
        dataio.save_similarity(state, net, path)
        # 1 header, 6 rows of A (lines 2-7), 3 rows of B (lines 8-10)
        return net, state, path, path.read_text().splitlines()

    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_wrong_field_count_in_another_type(self, tmp_path, chunk):
        _, _, path, lines = self._dump(tmp_path)
        lines.insert(8, "B,b1,b2")  # line 9, a row of B with 3 fields
        self._write(path, lines)
        with pytest.raises(BundleError, match=exactly(f"{path}:9: expected 4 fields")):
            dataio.read_similarity_block(path, "A")

    def test_malformed_value_in_queried_type(self, tmp_path, chunk):
        _, _, path, lines = self._dump(tmp_path)
        lines[5] = "A,a2,a3,0.5x"  # line 6
        self._write(path, lines)
        with pytest.raises(BundleError, match=exactly(f"{path}:6: malformed value '0.5x'")):
            dataio.read_similarity_block(path, "A")
        assert dataio.read_similarity_block(path, "B")[0] == ["b1", "b2"]

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_value_in_queried_type(self, tmp_path, chunk, value):
        net, _, path, lines = self._dump(tmp_path)
        lines[5] = f"A,a2,a3,{value}"  # line 6
        self._write(path, lines)
        for read in (lambda: dataio.read_similarity_block(path, "A"),
                     lambda: dataio.load_similarity(path, net)):
            with pytest.raises(BundleError, match=exactly(f"{path}:6: malformed value {value!r}")):
                read()
        assert dataio.read_similarity_block(path, "B")[0] == ["b1", "b2"]

    def test_blank_line_mid_file(self, tmp_path, chunk):
        net, state, path, lines = self._dump(tmp_path)
        lines.insert(4, "")  # line 5
        self._write(path, lines)
        ids, block = dataio.read_similarity_block(path, "A")
        assert ids == ["a1", "a2", "a3"] and same_bits(block, state["A"])
        assert same_bits(dataio.load_similarity(path, net)["B"], state["B"])
        lines[7] = "A,a3,a3,nope"  # line 8: the blank line is counted
        self._write(path, lines)
        with pytest.raises(BundleError, match=exactly(f"{path}:8: malformed value 'nope'")):
            dataio.read_similarity_block(path, "A")
        with pytest.raises(BundleError, match=exactly(f"{path}:8: malformed value 'nope'")):
            dataio.load_similarity(path, net)

    @pytest.mark.parametrize("row,message", [
        ("C,a1,a1,0.5", "unknown type 'C'"),
        ("A,a1,b1,0.5", "unknown entity id"),
        ("B,b1,b2,--1", "malformed value '--1'"),
        ("B,b1,b2,inf", "malformed value 'inf'"),
    ])
    def test_load_similarity_names_the_line(self, tmp_path, chunk, row, message):
        net, _, path, lines = self._dump(tmp_path)
        lines.insert(9, row)  # line 10
        lines.append("A,a1")  # a later fault does not win
        self._write(path, lines)
        with pytest.raises(BundleError, match=exactly(f"{path}:10: {message}")):
            dataio.load_similarity(path, net)

    @pytest.mark.parametrize("dropped", ["A", "B"])
    def test_load_similarity_refuses_a_type_with_no_rows(self, tmp_path, chunk, dropped):
        """A type of the network that the file has no row for is refused, as
        ``read_similarity_block`` refuses it, and not read as I."""
        net, _, path, lines = self._dump(tmp_path)
        self._write(path, [line for line in lines if not line.startswith(f"{dropped},")])
        message = exactly(f"{path}: no rows for type {dropped!r}")
        with pytest.raises(BundleError, match=message):
            dataio.load_similarity(path, net)
        with pytest.raises(BundleError, match=message):
            dataio.read_similarity_block(path, dropped)

    def test_load_similarity_names_the_first_type_with_no_rows(self, tmp_path, chunk):
        net, _, path, lines = self._dump(tmp_path)
        self._write(path, lines[:1])
        with pytest.raises(BundleError, match=exactly(f"{path}: no rows for type 'A'")):
            dataio.load_similarity(path, net)

    def test_later_rows_win(self, tmp_path, chunk):
        net, state, path, lines = self._dump(tmp_path)
        lines += ["A,a3,a1,0.25", "A,a1,a3,0.75", "A,a2,a2,0.5"]
        self._write(path, lines)
        expected = state["A"].copy()
        expected[0, 2] = expected[2, 0] = 0.75
        expected[1, 1] = 0.5
        assert same_bits(dataio.load_similarity(path, net)["A"], expected)
        assert same_bits(dataio.read_similarity_block(path, "A")[1], expected)

    @pytest.mark.parametrize(
        "row", ["1,0,1.5e", "1,x,0.5", "1,0,", "3,0,0.5", "1,0,nan", "1,0,-inf", "1,0,2e308"]
    )
    def test_malformed_factor_row(self, tmp_path, chunk, row):
        net = hetsim.build_network([("A", ["a1", "a2", "a3"])], [])
        dataio.save_factors({"A": FactoredSimilarity(np.ones((3, 2)), np.ones(2))},
                            net, tmp_path, seed=0, iterations=1)
        path = tmp_path / "U_A.csv"
        lines = path.read_text().splitlines()
        lines.insert(3, row)  # line 4
        self._write(path, lines)
        with pytest.raises(
            BundleError, match=exactly(f"{path}:4: malformed or out-of-range factor row")
        ):
            dataio.load_factors(tmp_path)

    @pytest.mark.parametrize("row", ["0,0.5,x", "0,nan,0.5", "1,0.5,inf", "0.5,0,0"])
    def test_malformed_point_row(self, tmp_path, chunk, row):
        TestPointsRoundTrip().test_malformed_row_reported_with_line(tmp_path, row)

    def test_refusal_runs_the_reader_once_more(self, tmp_path, chunk, monkeypatch):
        """The fault path names the line of a repeated last edge with one more
        pass of the edge reader, over one-row chunks: at most two relations
        are built for the whole file, not one per row."""
        rows = 3000
        net = hetsim.build_network(
            [("A", [f"a{i}" for i in range(rows)]), ("B", ["b"])],
            [("r", "A", "B", [(f"a{i}", "b") for i in range(rows)])],
        )
        dataio.save_network(net, tmp_path)
        edges = tmp_path / "edges_r.csv"
        edges.write_text(edges.read_text() + "a0,b\n")  # line rows + 2
        built, relation = [], dataio.Relation
        monkeypatch.setattr(dataio, "Relation", lambda *a: built.append(a[0]) or relation(*a))
        with pytest.raises(BundleError,
                           match=exactly(f"{edges}:{rows + 2}: duplicate edge 'a0' -> 'b'")):
            dataio.load_network(tmp_path)
        assert 1 <= len(built) <= 2


# -- the similarity block reader against csv ------------------------------------

def read_block_rows(path, type_name):
    """``read_similarity_block`` row by row through csv, kept as its oracle:
    ids in first-appearance order, the last row of a cell winning."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["type", "row_id", "col_id", "value"]
    rows = [r for r in rows if r]
    if any(len(r) != 4 for r in rows):
        raise BundleError("expected 4 fields")
    rows = [r for r in rows if r[0] == type_name]
    if not rows:
        raise BundleError(f"no rows for type {type_name!r}")
    seen = {}
    for _, rid, cid, _ in rows:
        seen.setdefault(rid, len(seen))
        seen.setdefault(cid, len(seen))
    block = np.eye(len(seen))
    for _, rid, cid, value in rows:
        if not np.isfinite(float(value)):
            raise BundleError(f"malformed value {value!r}")
        block[seen[rid], seen[cid]] = block[seen[cid], seen[rid]] = float(value)
    return list(seen), block


# Text that csv writes as it is, or in which each character csv must quote
# is common on its own.
CSV_TEXT = st.text("ab\u00e9", max_size=3) | st.text(st.sampled_from('ab\u00e9,"\r\n'), max_size=3)
OVER_LONG = b"x" * (csv.field_size_limit() + 1)
# Faults to splice into a similarity CSV: bytes csv quotes or splits on, a
# stray field, bytes that are not UTF-8, a bad value, a field over csv's limit.
SPLICES = st.sampled_from([b'"', b"\r", b"\n", b",", b"\xff", b"x", OVER_LONG])


@st.composite
def similarity_files(draw):
    """The bytes of a similarity CSV: types and ids with the characters csv
    must quote, rows of interleaved types with repeats, blank lines, LF, CRLF
    or bare-CR endings, the last one whole, cut or missing; and a type to read."""
    names = draw(st.lists(CSV_TEXT, min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True))
    row = st.tuples(st.sampled_from(names), st.sampled_from(ids), st.sampled_from(ids),
                    FINITE.map(lambda v: "%.17g" % v))
    rows = draw(st.lists(st.one_of(row, st.just(())), max_size=12))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=ending).writerows([["type", "row_id", "col_id", "value"], *rows])
    text = buf.getvalue()
    text = text[: len(text) - draw(st.integers(0, len(ending)))]
    return text.encode("utf-8"), draw(st.sampled_from([*names, "x"]))


class TestSimilarityBlockOracle:
    """``read_similarity_block`` reads what csv reads, or raises, at any byte
    chunk size; a plain file is read without csv, and any faulty one as csv
    alone would read it."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), FINITE),
                             max_size=20))))
    def test_pairs_placed_as_row_by_row(self, drawn):
        # Repeated and mirrored cells: the later row wins both of its cells.
        n, rows = drawn
        want, got = np.eye(n), np.eye(n)
        for i, j, value in rows:
            want[i, j] = want[j, i] = value
        i = np.array([r[0] for r in rows], dtype=np.int64)
        j = np.array([r[1] for r in rows], dtype=np.int64)
        dataio._put_symmetric(got, i, j, np.array([r[2] for r in rows], dtype=float))
        assert same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(similarity_files())
    # An asked type name with a comma, which a plain file cannot hold.
    @example((b"type,row_id,col_id,value\r\nA,a,b,1\r\n", "A,a"))
    # A non-finite value of the asked type, in a plain file and in a quoted one.
    @example((b"type,row_id,col_id,value\r\nA,a,a,1\r\nA,a,b,nan\r\n", "A"))
    @example((b'type,row_id,col_id,value\r\nA,"a,",b,-inf\r\n', "A"))
    def test_read_similarity_block_matches_csv(self, tmp_path_factory, drawn):
        data, type_name = drawn
        path = tmp_path_factory.mktemp("s") / "similarity.csv"
        path.write_bytes(data)
        want = outcome(read_block_rows, path, type_name)
        header, *lines = data.replace(b"\r\n", b"\n").split(b"\n")
        plain = b'"' not in data and b"\r" not in data.replace(b"\r\n", b"")
        # A field of a bare-CR file may hold an unquoted \n, which splits its line.
        plain = plain and header == b"type,row_id,col_id,value"
        plain = plain and all(line.count(b",") == 3 for line in lines if line)
        plain = plain and not set(',"\r\n') & set(type_name)
        event("plain" if plain else "read by csv")
        for chunk in (1, 2, 5, dataio._CHUNK_BYTES):
            with mock.patch.object(dataio, "_CHUNK_BYTES", chunk), \
                    mock.patch.object(dataio, "_row_chunks", wraps=dataio._row_chunks) as row_chunks:
                got = outcome(dataio.read_similarity_block, path, type_name)
            if isinstance(want[0], type):
                assert got[0] is BundleError
            else:
                assert got[0] == want[0] and same_bits(got[1], want[1])
            assert row_chunks.called != plain

    @settings(max_examples=200, deadline=None)
    @given(similarity_files(), st.lists(st.tuples(st.integers(0), SPLICES), max_size=3))
    # csv meets the over-long field (line 5) while reading the chunk that holds
    # the malformed value (line 3), before any value of the chunk is parsed.
    @example((b"type,row_id,col_id,value\r\nA,a,a,1\r\nA,a,b,0.5x\r\nA,b,b,1\r\nB,"
              + OVER_LONG + b",c,1\r\n", "A"), [])
    # Bytes that are not UTF-8, in a line of another type.
    @example((b"type,row_id,col_id,value\r\nA,a,a,1\r\nB,b\xff,b,1\r\n", "A"), [])
    def test_faulty_file_reads_as_by_csv_alone(self, tmp_path_factory, drawn, splices):
        data, type_name = drawn
        for at, splice in splices:
            at %= len(data) + 1
            data = data[:at] + splice + data[at:]
        path = tmp_path_factory.mktemp("s") / "similarity.csv"
        path.write_bytes(data)
        for chunk_bytes, chunk_rows in ((1, None), (5, 2), (None, None)):
            with mock.patch.object(dataio, "_CHUNK_BYTES", chunk_bytes or dataio._CHUNK_BYTES), \
                    mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows or dataio._CHUNK_ROWS):
                got = outcome(dataio.read_similarity_block, path, type_name)
                with mock.patch.object(dataio, "_plain_lines", side_effect=dataio._NotPlain):
                    want = outcome(dataio.read_similarity_block, path, type_name)
            if isinstance(want[0], type):
                assert got == want
            else:
                assert got[0] == want[0] and same_bits(got[1], want[1])

    @pytest.mark.parametrize("lines, line", [
        # A 4-comma line next to a 2-comma line: three commas a line in all.
        ([b"A,a,a,1", b"A,a,b,1,1", b"A,b,1"], 3),
        ([b"A,a,a,1", b"A,b,1", b"A,a,b,1,1"], 3),
        # Commas on an otherwise blank line: alone, or with a line of too many
        # making up three a line in all.
        ([b"A,a,a,1", b",", b"A,b,b,1"], 3),
        ([b"A,a,a,1", b"A,a,b,1,,", b","], 3),
        ([b",,", b"A,a,b,1,"], 2),
    ])
    @pytest.mark.parametrize("ending", [b"\r\n", b"\n"], ids=["crlf", "lf"])
    def test_commas_counted_line_by_line(self, tmp_path, lines, line, ending):
        """A file is plain only if every non-blank line holds 3 commas, not 3
        per line on the whole; any other reads as csv alone reads it."""
        path = tmp_path / "similarity.csv"
        path.write_bytes(ending.join([b"type,row_id,col_id,value", *lines, b""]))
        fault = (BundleError, f"{path}:{line}: expected 4 fields")
        for chunk in (1, 5, dataio._CHUNK_BYTES):
            with mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
                with mock.patch.object(dataio, "_row_chunks", wraps=dataio._row_chunks) as by_csv:
                    assert outcome(dataio.read_similarity_block, path, "A") == fault
                assert by_csv.called
                with mock.patch.object(dataio, "_plain_lines", side_effect=dataio._NotPlain):
                    assert outcome(dataio.read_similarity_block, path, "A") == fault

    def test_line_over_the_limit_after_a_whole_chunk(self, tmp_path):
        """A chunk that ends at a line end is followed by the next line, read
        up to csv's field limit: a longer line is not plain, even when the part
        read holds three commas, and neither is the rest."""
        path, rows = tmp_path / "similarity.csv", b"A,a,a,1\r\n"
        long_row = b"B,b,b," + b"x" * (csv.field_size_limit() - 6) + b",b,b,1\r\n"
        path.write_bytes(b"type,row_id,col_id,value\r\n" + rows + long_row)
        with mock.patch.object(dataio, "_CHUNK_BYTES", len(rows)):
            with pytest.raises(BundleError, match=exactly(f"{path}:3: expected 4 fields")):
                dataio.read_similarity_block(path, "A")


# -- every fault named with its line ----------------------------------------------

# Bytes to splice into a factor, point or similarity file: what csv quotes or
# splits on, bytes that are not UTF-8, text that no index, value or type name
# holds, and a field over csv's limit.
ROW_FAULTS = st.sampled_from(
    [b'"', b"\r", b"\n", b",", b"\xff", b"x", b"-", b"nan", b"1e999", b"C", OVER_LONG]
)
# Errors of a whole file, which no single line causes.
WHOLE_FILE = ["empty file", "invalid UTF-8 (", "no points", "no row for ",
              "no rows for type "]


class TestFaultsNamedWithTheirLine:
    """Any fault spliced into a factor, point or whole-similarity file is
    named with its file and line, or is an error of the whole file, at any
    chunk size: the reader and its row-by-row refusal never disagree."""

    @staticmethod
    def _written(kind, out, data):
        """A valid file of ``kind`` under ``out``, its path and its reader."""
        net = data.draw(networks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "factors":
            states = {}
            for t in net.types:
                rank = data.draw(st.integers(0, 2))
                states[t.name] = FactoredSimilarity(rng.standard_normal((t.size, rank)),
                                                    rng.standard_normal(rank))
            dataio.save_factors(states, net, out, seed=0, iterations=1)
            name = data.draw(st.sampled_from(
                sorted(f"{x}_{t.name}.csv" for t in net.types for x in "UD")))
            return out / name, lambda: dataio.load_factors(out)
        if kind == "points":
            sizes = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
            dataio.save_points(PointCloud(tuple(rng.random((n, 2)) for n in sizes)),
                               out / "points.csv")
            return out / "points.csv", lambda: dataio.load_points(out / "points.csv")
        state = hetsim.SimilaritySet(
            {t.name: (lambda a: a + a.T)(rng.random((t.size, t.size))) for t in net.types}
        )
        dataio.save_similarity(state, net, out / "similarity.csv")
        return out / "similarity.csv", lambda: dataio.load_similarity(out / "similarity.csv", net)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["factors", "points", "similarity"]), st.data(),
           st.lists(st.tuples(st.integers(0), ROW_FAULTS), min_size=1, max_size=3),
           st.sampled_from([1, 2, 3, None]))
    def test_fault_named_with_its_line(self, tmp_path_factory, kind, data, splices, chunk):
        path, read = self._written(kind, tmp_path_factory.mktemp(kind), data)
        text = path.read_bytes()
        for at, splice in splices:
            at %= len(text) + 1
            text = text[:at] + splice + text[at:]
        path.write_bytes(text)
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk or dataio._CHUNK_ROWS):
            try:
                read()
            except BundleError as exc:
                message = str(exc)
            else:
                event("the spliced file is valid")
                return
        event("whole file" if message.startswith(f"{path}: ") else "named line")
        assert not message.endswith("unreadable rows")
        lines = f"{re.escape(str(path))}:[0-9]+: "
        whole = "|".join(re.escape(f"{path}: {m}") for m in WHOLE_FILE)
        assert re.match(f"{lines}|{whole}", message), message


# -- the bundle loader against the row-by-row one ----------------------------------

def read_rows(path, expected_header):
    """The row-by-row reader that the streaming ones replaced."""
    with dataio._csv_body(path, expected_header) as reader:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise BundleError(f"{path}:{lineno}: expected {len(expected_header)} fields")
            yield lineno, row


def load_network_rows(bundle_dir):
    """The row-by-row ``load_network`` that the streaming one replaced, kept
    as its oracle: each id checked against a set, then ``build_network``."""
    bundle = Path(bundle_dir)
    schema_path = bundle / dataio.SCHEMA_NAME
    schema = dataio._read_json(schema_path)
    type_entries, relation_entries = dataio._fields(
        {"types": [], "relations": [], **schema}, schema_path, "types", "relations"
    )
    type_specs = []
    for tspec in type_entries:
        name, entities_csv = dataio._fields(tspec, schema_path, "name", "entities_csv")
        path = bundle / entities_csv
        ids, seen = [], set()
        for lineno, row in read_rows(path, ["id"]):
            if row[0] in seen:
                raise BundleError(f"{path}:{lineno}: duplicate id {row[0]!r}")
            seen.add(row[0])
            ids.append(row[0])
        type_specs.append((name, ids))
    id_sets = {name: set(ids) for name, ids in type_specs}
    relation_specs = []
    for rspec in relation_entries:
        keys = ("name", "src", "dst", "edges_csv")
        name, src, dst, edges_csv = dataio._fields(rspec, schema_path, *keys)
        path = bundle / edges_csv
        if src not in id_sets or dst not in id_sets:
            raise BundleError(f"{schema_path}: relation {name!r} references unknown type")
        edges = []
        for lineno, row in read_rows(path, ["src_id", "dst_id"]):
            if row[0] not in id_sets[src]:
                raise BundleError(f"{path}:{lineno}: unknown {src} id {row[0]!r}")
            if row[1] not in id_sets[dst]:
                raise BundleError(f"{path}:{lineno}: unknown {dst} id {row[1]!r}")
            edges.append((row[0], row[1]))
        relation_specs.append((name, src, dst, edges))
    network = build_network_loop(type_specs, relation_specs)
    weights = None
    if "weights" in schema:
        entries = {}
        for e in dataio._fields(schema, schema_path, "weights")[0]:
            t, r, w = dataio._fields(e, schema_path, "type", "relation", "weight")
            entries[(t, r)] = float(w)
        weights = hetsim.WeightMatrix(entries)
    return network, weights


CORRUPTIONS = [None, "unknown id", "repeated id", "repeated edge", "short row", "long row",
               "blank line", "bad header", "missing file"]


def corrupt(bundle, net, kind, data):
    """Apply one corruption to a saved bundle, in a file drawn from those it
    applies to (none: the bundle stays whole).  Returns the message of a
    repeated edge, which the row-by-row loader reported without a file or
    line, as a NetworkError."""
    files = {f"entities_{t.name}.csv": t for t in net.types}
    files.update({f"edges_{r.name}.csv": r for r in net.relations})
    fits = {
        "unknown id": lambda f: f.startswith("edges_"),
        "repeated id": lambda f: f.startswith("entities_"),
        "repeated edge": lambda f: f.startswith("edges_") and files[f].n_edges,
        "short row": lambda f: f.startswith("edges_") and files[f].n_edges,
        "long row": lambda f: f.startswith("entities_") or files[f].n_edges,
    }.get(kind, lambda f: True)
    names = sorted(f for f in files if fits(f))
    if kind is None or not names:
        return None
    path = bundle / data.draw(st.sampled_from(names))
    if kind == "missing file":
        path.unlink()
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    where = data.draw(st.integers(0, len(rows)))
    message = None
    if kind == "bad header":
        header = [header[0] + "x", *header[1:]]
    elif kind == "blank line":
        rows.insert(where, [])
    elif kind in ("short row", "long row"):
        k = data.draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k][:-1] if kind == "short row" else [*rows[k], "x"]
    elif kind == "unknown id":
        relation = files[path.name]
        side = data.draw(st.integers(0, 1))
        ids = (relation.src, relation.dst)[side].ids
        row = [relation.src.ids[0], relation.dst.ids[0]]
        row[side] = "?" * (1 + max(map(len, ids)))  # longer than every id of its type
        rows.insert(where, row)
    else:  # a repeated id or edge
        k = data.draw(st.integers(0, len(rows) - 1))
        rows.insert(where, list(rows[k]))
        if kind == "repeated edge":
            a, b = rows[where]
            second = max(where, k + (where <= k))  # the later of the copy and the original
            message = f"{path}:{2 + second}: duplicate edge {a!r} -> {b!r}"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return message


class TestLoaderOracle:
    """``load_network`` reads the row-by-row loader's network, or raises its
    error, at any chunk size; a repeated edge now names its file and line."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_load_network_matches_the_row_by_row_loader(self, tmp_path_factory, data):
        net = data.draw(networks(relations=True))
        bundle = tmp_path_factory.mktemp("b")
        weights = hetsim.default_weights(net) if data.draw(st.booleans()) else None
        dataio.save_network(net, bundle, weights=weights)
        repeated_edge = corrupt(bundle, net, data.draw(st.sampled_from(CORRUPTIONS)), data)
        want = outcome(load_network_rows, bundle)
        for chunk in (1, 2, 3, dataio._CHUNK_ROWS):
            with mock.patch.object(dataio, "_CHUNK_ROWS", chunk):
                got = outcome(dataio.load_network, bundle)
            if repeated_edge:
                assert want[0] is hetsim.NetworkError and want[1].endswith("duplicate edges")
                assert got == (BundleError, repeated_edge)
            elif isinstance(want[0], type):
                assert got == want
            else:
                assert_same_network(got[0], want[0])
                assert_same_network(got[0], net)
                assert (got[1] and got[1].entries) == (want[1] and want[1].entries)
