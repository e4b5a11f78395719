"""Command-line behavior: subcommands, exit codes, reproducibility."""

import contextlib
import csv
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, note, settings
from hypothesis import strategies as st

import hetsim
from hetsim import dataio
from hetsim.cli import (
    EXIT_CONFIG, EXIT_IO, EXIT_NOCONVERGE, EXIT_OK, MAX_SWEEP_POINTS, _parse_sweep, main,
)
from hetsim.lowrank import FactoredSimilarity, rank_others


def write_toy_bundle(path):
    net = hetsim.build_network(
        [("A", ["a1", "a2"]), ("B", ["b1"])],
        [("r", "A", "B", [("a1", "b1"), ("a2", "b1")])],
    )
    dataio.save_network(net, path)
    return net


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(argv):
    """The CLI in its own interpreter, where an uncaught exception would print
    a traceback to stderr; returns (exit code, stderr)."""
    src = str(Path(hetsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "hetsim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


class TestSolve:
    def test_readme_lowrank_quickstart_converges(self, tmp_path, capsys, monkeypatch):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        synth = next(x for x in lines if x.startswith("hetsim synth random"))
        solve = next(x for x in lines if x.startswith("hetsim solve") and "lowrank" in x)
        monkeypatch.chdir(tmp_path)
        for line in (synth, solve):
            code, _, _ = run(shlex.split(line)[1:], capsys)
            assert code == EXIT_OK, line

    def test_dense_toy_writes_similarity_and_trace(self, tmp_path, capsys):
        write_toy_bundle(tmp_path / "toy")
        out = tmp_path / "out"
        code, stdout, _ = run(
            ["solve", "--bundle", str(tmp_path / "toy"), "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert "converged" in stdout
        assert (out / "trace.csv").is_file()
        net, _ = dataio.load_network(tmp_path / "toy")
        state = dataio.load_similarity(out / "similarity.csv", net)
        assert state["A"][0, 1] == pytest.approx(0.25, abs=1e-9)

    def test_lowrank_writes_factors(self, tmp_path, capsys):
        write_toy_bundle(tmp_path / "toy")
        out = tmp_path / "out"
        code, _, _ = run(
            [
                "solve", "--bundle", str(tmp_path / "toy"), "--out", str(out),
                "--solver", "lowrank", "--ranks", "full", "--seed", "0",
            ],
            capsys,
        )
        assert code == EXIT_OK
        states = dataio.load_factors(out / "factors")
        dense = states["A"].dense()
        assert dense[0, 1] == pytest.approx(0.25, abs=1e-6)

    def test_lowrank_full_rank_matches_dense_output(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        code, _, _ = run(
            ["synth", "random", "--K", "3", "--N", "15", "--seed", "4",
             "--out", str(bundle)],
            capsys,
        )
        assert code == EXIT_OK
        code, _, _ = run(
            ["solve", "--bundle", str(bundle), "--out", str(tmp_path / "d"),
             "--max-iter", "300"],
            capsys,
        )
        assert code == EXIT_OK
        code, _, _ = run(
            ["solve", "--bundle", str(bundle), "--out", str(tmp_path / "l"),
             "--solver", "lowrank", "--ranks", "full", "--oversample", "0",
             "--seed", "0", "--max-iter", "300"],
            capsys,
        )
        assert code == EXIT_OK
        net, _ = dataio.load_network(bundle)
        dense = dataio.load_similarity(tmp_path / "d" / "similarity.csv", net)
        factors = dataio.load_factors(tmp_path / "l" / "factors")
        for t in net.types:
            diff = np.abs(factors[t.name].dense() - dense[t.name]).max()
            assert diff <= 1e-6

    def test_dense_output_identical_across_blas_thread_counts(self, tmp_path, monkeypatch):
        # README's claim: the dense similarity CSV does not depend on the BLAS
        # thread count, which only the environment of a fresh process sets.
        bundle = tmp_path / "bundle"
        code, _ = run_process(["synth", "random", "--K", "4", "--N", "200", "--seed", "1",
                               "--out", str(bundle)])
        assert code == EXIT_OK
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            code, _ = run_process(["solve", "--bundle", str(bundle), "--out",
                                   str(tmp_path / threads), "--max-iter", "300"])
            assert code == EXIT_OK
        one, two = (tmp_path / t / "similarity.csv" for t in ("1", "2"))
        assert one.read_bytes() == two.read_bytes()

    def test_lyapunov_no_relation_bundle(self, tmp_path, capsys):
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        dataio.save_network(net, tmp_path / "b")
        code, _, _ = run(
            ["solve", "--bundle", str(tmp_path / "b"), "--out",
             str(tmp_path / "o"), "--solver", "lyapunov", "--c", "0.8"],
            capsys,
        )
        assert code == EXIT_OK
        state = dataio.load_similarity(tmp_path / "o" / "similarity.csv", net)
        np.testing.assert_allclose(state["A"], 0.2 * np.eye(2))

    @pytest.mark.parametrize("solver, output", [
        ("dense", "similarity.csv"), ("lowrank", "factors/U_A.csv"),
    ])
    def test_c_is_read_by_lyapunov_alone(self, tmp_path, capsys, solver, output):
        write_toy_bundle(tmp_path / "toy")
        argv = ["solve", "--bundle", str(tmp_path / "toy"), "--solver", solver]
        assert run([*argv, "--out", str(tmp_path / "a")], capsys)[0] == EXIT_OK
        assert run([*argv, "--out", str(tmp_path / "b"), "--c", "1.5"], capsys)[0] == EXIT_OK
        assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()
        code, _, stderr = run(["solve", "--bundle", str(tmp_path / "toy"), "--out",
                               str(tmp_path / "c"), "--solver", "lyapunov", "--c", "1.5"], capsys)
        assert code == EXIT_CONFIG
        assert "damping must lie in (0, 1)" in stderr

    def test_nonconvergence_exit_code_with_trace(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        run(["synth", "random", "--K", "3", "--N", "20", "--seed", "1",
             "--out", str(bundle)], capsys)
        code, _, stderr = run(
            ["solve", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
             "--tol", "1e-12", "--max-iter", "3"],
            capsys,
        )
        assert code == EXIT_NOCONVERGE
        assert "did not converge" in stderr
        assert (tmp_path / "o" / "trace.csv").is_file()

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_nonconvergence_names_the_stalling_type(self, tmp_path, capsys, max_iter):
        bundle = tmp_path / "bundle"
        run(["synth", "random", "--K", "3", "--N", "20", "--seed", "1",
             "--out", str(bundle)], capsys)
        code, stderr = run_process(
            ["solve", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
             "--tol", "1e-12", "--max-iter", str(max_iter)]
        )
        net, _ = dataio.load_network(bundle)
        _, trace = hetsim.solve_dense(
            net, hetsim.default_weights(net),
            hetsim.SolverConfig(tol=1e-12, max_iter=max_iter),
        )
        last = trace.per_type[-1]
        name = max(last, key=last.get)
        assert code == EXIT_NOCONVERGE
        assert "Traceback" not in stderr and "second" not in stderr
        assert f"stalling type {name!r}: residual={last[name]:.6g}" in stderr
        if max_iter > 1:
            ratio = last[name] / trace.per_type[-2][name]
            assert f"last-sweep ratio={ratio:.6g}" in stderr
        else:
            assert "last-sweep" not in stderr

    @pytest.mark.parametrize("solver", ["dense", "lyapunov", "lowrank"])
    def test_diverging_solve_exits_three(self, tmp_path, capsys, solver):
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=8, seed=0))
        huge = hetsim.WeightMatrix({k: 1e200 for k in hetsim.default_weights(net).entries})
        dataio.save_network(net, tmp_path / "b", weights=huge)
        with np.errstate(all="ignore"):
            code, _, stderr = run(
                ["solve", "--bundle", str(tmp_path / "b"), "--out",
                 str(tmp_path / "o"), "--solver", solver, "--force"],
                capsys,
            )
        assert code == EXIT_NOCONVERGE
        assert "non-finite" in stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--solver", "lowrank", "--ranks", "0"],
        ["--tol", "-1"],
        ["--solver", "lyapunov", "--c", "1.5"],
    ])
    def test_config_error_leaves_no_out(self, tmp_path, capsys, flags):
        write_toy_bundle(tmp_path / "toy")
        out = tmp_path / "o"
        code, _, _ = run(["solve", "--bundle", str(tmp_path / "toy"), "--out", str(out), *flags],
                         capsys)
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("tol, shown", [("inf", "inf"), ("1e400", "inf"), ("nan", "nan")])
    def test_non_finite_tol_is_config_error(self, tmp_path, capsys, tol, shown):
        # --tol 1e400 parses to inf, which once stopped the solve one sweep
        # from I and reported it converged.
        write_toy_bundle(tmp_path / "toy")
        out = tmp_path / "o"
        code, stdout, stderr = run(["solve", "--bundle", str(tmp_path / "toy"), "--out", str(out),
                                    "--tol", tol], capsys)
        assert code == EXIT_CONFIG
        assert stderr == f"error: tol must be positive and finite, got {shown}\n"
        assert "converged" not in stdout
        assert not out.exists()

    def test_failed_precheck_leaves_no_out(self, tmp_path, capsys):
        net = write_toy_bundle(tmp_path / "toy")
        weights = hetsim.WeightMatrix({("A", "r"): 1.5, ("B", "r"): 1.0})
        dataio.save_network(net, tmp_path / "toy", weights=weights)
        out = tmp_path / "o"
        code, _, stderr = run(["solve", "--bundle", str(tmp_path / "toy"), "--out", str(out)],
                              capsys)
        assert code == EXIT_CONFIG
        assert "convergence conditions failed" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("solver, result", [
        ("dense", "similarity.csv"), ("lyapunov", "similarity.csv"), ("lowrank", "factors"),
    ])
    @pytest.mark.parametrize("max_iter, exit_code", [("100", EXIT_OK), ("1", EXIT_NOCONVERGE)])
    def test_out_holds_the_result_and_the_trace(self, tmp_path, capsys, solver, result,
                                                max_iter, exit_code):
        write_toy_bundle(tmp_path / "toy")
        out = tmp_path / "o"
        code, _, _ = run(["solve", "--bundle", str(tmp_path / "toy"), "--out", str(out),
                          "--solver", solver, "--max-iter", max_iter], capsys)
        assert code == exit_code
        assert sorted(p.name for p in out.iterdir()) == sorted([result, "trace.csv"])

    @pytest.mark.parametrize("solver", ["dense", "lowrank"])
    def test_out_that_is_a_file_is_io_error(self, tmp_path, solver):
        write_toy_bundle(tmp_path / "toy")
        out = tmp_path / "o"
        out.write_text("keep", encoding="utf-8")
        code, stderr = run_process(["solve", "--bundle", str(tmp_path / "toy"), "--out", str(out),
                                    "--solver", solver])
        assert code == EXIT_IO
        assert "Traceback" not in stderr and "error:" in stderr
        assert out.read_text(encoding="utf-8") == "keep"

    def test_missing_bundle_is_io_error(self, tmp_path, capsys):
        code, _, stderr = run(
            ["solve", "--bundle", str(tmp_path / "nope"), "--out",
             str(tmp_path / "o")],
            capsys,
        )
        assert code == EXIT_IO
        assert "error:" in stderr

    def test_bad_ranks_is_config_error(self, tmp_path, capsys):
        write_toy_bundle(tmp_path / "toy")
        code, _, _ = run(
            ["solve", "--bundle", str(tmp_path / "toy"), "--out",
             str(tmp_path / "o"), "--solver", "lowrank", "--ranks", "zero"],
            capsys,
        )
        assert code == EXIT_CONFIG

    def test_listing_order_of_the_schema_reaches_no_result(self, tmp_path, capsys):
        # A small bibliographic network, whose type and relation names are
        # not in listing order, written as two bundles that differ only in the
        # order of schema.json's types and relations lists.
        rng = np.random.default_rng(5)
        sizes = {"papers": 40, "venues": 6, "topics": 3, "authors": 12}
        types = [(name, [f"{name[0]}{i}" for i in range(n)]) for name, n in sizes.items()]
        relations = []
        for name, src, dst in (("published_in", "papers", "venues"),
                               ("written_by", "papers", "authors"),
                               ("hosts", "venues", "authors")):
            pairs = np.unique(rng.integers(0, [sizes[src], sizes[dst]], (60, 2)), axis=0)
            relations.append((name, src, dst, [(f"{src[0]}{i}", f"{dst[0]}{j}") for i, j in pairs]))
        bundles = [tmp_path / "listed", tmp_path / "reversed"]
        dataio.save_network(hetsim.build_network(types, relations), bundles[0])
        dataio.save_network(hetsim.build_network(types[::-1], relations[::-1]), bundles[1])
        schemas = [json.loads((b / "schema.json").read_text(encoding="utf-8")) for b in bundles]
        assert schemas[0] != schemas[1]
        assert all(schemas[0][k] == schemas[1][k][::-1] for k in ("types", "relations"))

        def solve(bundle, solver):
            out = tmp_path / f"{bundle.name}-{solver}"
            code, _, _ = run(["solve", "--bundle", str(bundle), "--out", str(out), "--solver",
                              solver, "--ranks", "3", "--oversample", "2", "--seed", "1",
                              "--max-iter", "300"], capsys)
            assert code == EXIT_OK
            with open(out / "trace.csv", newline="", encoding="utf-8") as f:
                trace = [row[:2] for row in csv.reader(f)]  # all but the seconds
            return out, trace

        (first, trace), (second, again) = (solve(b, "lowrank") for b in bundles)
        assert trace == again and len(trace) > 2
        for name in sizes:  # sketched (papers, venues, authors) and exact (topics)
            for part in ("U", "D"):
                csv_name = f"factors/{part}_{name}.csv"
                assert (first / csv_name).read_bytes() == (second / csv_name).read_bytes()
        # The manifest lists the types in the bundle's order and is otherwise the same.
        manifests = [json.loads((o / "factors" / "factors.json").read_text(encoding="utf-8"))
                     for o in (first, second)]
        assert manifests[0]["types"] == manifests[1]["types"][::-1]
        assert manifests[0] == {**manifests[1], "types": manifests[0]["types"]}

        (first, trace), (second, again) = (solve(b, "dense") for b in bundles)
        assert trace == again and len(trace) > 2
        nets = [dataio.load_network(b)[0] for b in bundles]
        mine, theirs = (dataio.load_similarity(o / "similarity.csv", net)
                        for o, net in zip((first, second), nets))
        for name in sizes:
            assert np.array_equal(mine[name], theirs[name])

    def test_effective_config_line_printed(self, tmp_path, capsys):
        write_toy_bundle(tmp_path / "toy")
        _, stdout, _ = run(
            ["solve", "--bundle", str(tmp_path / "toy"), "--out",
             str(tmp_path / "o")],
            capsys,
        )
        first = stdout.splitlines()[0]
        assert first.startswith("config: ")
        cfg = json.loads(first[len("config: "):])
        assert cfg["command"] == "solve"
        assert cfg["tol"] == 1e-9
        assert cfg["seed"] == 0


class TestSynth:
    def test_random_bundle_deterministic(self, tmp_path, capsys):
        for name in ("one", "two"):
            code, _, _ = run(
                ["synth", "random", "--K", "3", "--N", "20", "--seed", "5",
                 "--out", str(tmp_path / name)],
                capsys,
            )
            assert code == EXIT_OK
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_layered_bundle_with_points(self, tmp_path, capsys):
        code, _, _ = run(
            ["synth", "layered", "--counts", "10,10,10",
             "--r", "0.3", "--seed", "2", "--out", str(tmp_path / "lay")],
            capsys,
        )
        assert code == EXIT_OK
        assert (tmp_path / "lay" / "points.csv").is_file()
        net, _ = dataio.load_network(tmp_path / "lay")
        assert len(net.types) == 3

    def test_pigeonhole_rejection_is_config_error(self, tmp_path, capsys):
        code = None
        for seed in range(50):
            code, _, stderr = run(
                ["synth", "random", "--K", "2", "--N", "2", "--seed",
                 str(seed), "--out", str(tmp_path / f"s{seed}")],
                capsys,
            )
            if code == EXIT_CONFIG:
                assert "distinct edges" in stderr
                break
        assert code == EXIT_CONFIG

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HETSIM_SEED", "5")
        run(["synth", "random", "--K", "3", "--N", "20",
             "--out", str(tmp_path / "env")], capsys)
        monkeypatch.delenv("HETSIM_SEED")
        run(["synth", "random", "--K", "3", "--N", "20", "--seed", "5",
             "--out", str(tmp_path / "flag")], capsys)
        for f in sorted((tmp_path / "env").iterdir()):
            assert f.read_bytes() == (tmp_path / "flag" / f.name).read_bytes()

    @pytest.mark.parametrize("argv, env, source", [
        (["solve", "--bundle", "b", "--out", "o", "--solver", "lowrank", "--seed", "-1"],
         None, "--seed must be an integer >= 0, got -1"),
        (["synth", "random", "--K", "3", "--N", "20", "--seed", "-3", "--out", "o"],
         None, "--seed must be an integer >= 0, got -3"),
        (["synth", "random", "--K", "3", "--N", "20", "--out", "o"],
         "-3", "HETSIM_SEED must be an integer >= 0, got '-3'"),
        (["solve", "--bundle", "b", "--out", "o", "--solver", "lowrank"],
         "x", "HETSIM_SEED must be an integer >= 0, got 'x'"),
        # The flag is checked, not the variable it overrides.
        (["synth", "random", "--K", "3", "--N", "20", "--seed", "-3", "--out", "o"],
         "2", "--seed must be an integer >= 0, got -3"),
    ])
    def test_negative_seed_refused_before_any_work(self, argv, env, source, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("HETSIM_SEED", raising=False)
        else:
            monkeypatch.setenv("HETSIM_SEED", env)
        code, stdout, stderr = run(argv, capsys)
        assert code == EXIT_CONFIG
        assert stderr == f"error: {source}\n"
        assert stdout == "" and not (tmp_path / "o").exists()  # not even the config echo


class TestEvalQ:
    def test_collinear_fixture_prints_one_third(self, tmp_path, capsys):
        # Three collinear points per layer, duplicated across two layers so
        # the similarity recovers the geometry exactly up to ties.
        pts = hetsim.synth.PointCloud(
            (
                np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0]]),
                np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0]]),
            )
        )
        spec = hetsim.LayeredGraphSpec(counts=(3, 3), radius=0.15, seed=0)
        net, pts = hetsim.layered_points_graph(spec, points=pts)
        bundle = tmp_path / "b"
        dataio.save_network(net, bundle)
        dataio.save_points(pts, bundle / "points.csv")
        truth = {
            t.name: hetsim.geometric_ground_truth(pts.layers[k])
            for k, t in enumerate(net.types)
        }
        for block in truth.values():
            np.fill_diagonal(block, block.max())
        dataio.save_similarity(
            hetsim.SimilaritySet(truth), net, bundle / "similarity.csv"
        )
        code, stdout, _ = run(
            ["eval-q", "--bundle", str(bundle), "--similarity",
             str(bundle / "similarity.csv")],
            capsys,
        )
        assert code == EXIT_OK
        assert "Q = 0.333333" in stdout

    def test_sweep_mode_prints_grid(self, capsys):
        code, stdout, _ = run(
            ["eval-q", "--sweep", "0.2:0.3:0.1", "--trials", "2",
             "--counts", "8,8", "--max-iter", "30", "--seed", "0"],
            capsys,
        )
        assert code == EXIT_OK
        lines = [l for l in stdout.splitlines() if l.startswith("r=")]
        assert len(lines) == 2
        assert all("meanQ=" in l and "trials=2" in l for l in lines)

    def test_sweep_mode_counts_unconverged_solves(self, capsys):
        code, stdout, _ = run(
            ["eval-q", "--sweep", "0.2:0.3:0.1", "--trials", "3",
             "--counts", "8,8", "--max-iter", "1", "--seed", "0"],
            capsys,
        )
        assert code == EXIT_OK
        lines = [l for l in stdout.splitlines() if l.startswith("r=")]
        assert len(lines) == 2
        assert all(l.endswith("trials=3 unconverged=3") for l in lines)

    def test_lowrank_sweep_report_is_reproducible(self, capsys):
        # Mean Q counts strict orderings, so on near-tied rank-4 blocks it
        # follows rounding; it is as reproducible as the factors are.
        argv = ["eval-q", "--sweep", "0.1:0.3:0.1", "--trials", "2", "--counts", "12,12",
                "--seed", "1", "--solver", "lowrank", "--ranks", "4"]
        first, second = run(argv, capsys), run(argv, capsys)
        assert first[0] == second[0] == EXIT_OK
        assert first[1] == second[1]

    @pytest.mark.parametrize("solver", [["--solver", "dense"],
                                        ["--solver", "lowrank", "--ranks", "4"]])
    def test_sweep_scores_only_the_printed_layer(self, capsys, monkeypatch, solver):
        calls, quality = [], hetsim.synth.ordering_quality
        monkeypatch.setattr(hetsim.synth, "ordering_quality",
                            lambda *a: calls.append(1) or quality(*a))
        code, _, _ = run(["eval-q", "--sweep", "0.2:0.3:0.1", "--trials", "2",
                          "--counts", "8,8,8", "--max-iter", "30", "--seed", "0", *solver], capsys)
        assert code == EXIT_OK
        assert len(calls) == 2 * 2  # one per trial at each of the two radii

    def test_missing_inputs_is_config_error(self, capsys):
        code, _, _ = run(["eval-q"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("fault", ["no layer types", "layer of another size"])
    def test_points_that_do_not_fit_the_bundle_are_io_error(self, tmp_path, capsys, fault):
        """Layer k of points.csv must be the bundle's type layer{k}, one
        entity per point: otherwise eval-q names points.csv, exit 4."""
        layered = tmp_path / "layered"
        assert run(["synth", "layered", "--counts", "5,4", "--r", "0.5", "--seed", "1",
                    "--out", str(layered)], capsys)[0] == EXIT_OK
        bundle = tmp_path / "b"
        if fault == "no layer types":
            argv = ["synth", "random", "--K", "2", "--N", "10", "--seed", "1"]
        else:
            argv = ["synth", "layered", "--counts", "4,4", "--r", "0.5", "--seed", "1"]
        assert run([*argv, "--out", str(bundle)], capsys)[0] == EXIT_OK
        shutil.copy(layered / "points.csv", bundle / "points.csv")
        net, _ = dataio.load_network(bundle)
        blocks = hetsim.SimilaritySet({t.name: np.eye(t.size) for t in net.types})
        dataio.save_similarity(blocks, net, tmp_path / "similarity.csv")
        code, stdout, stderr = run(["eval-q", "--bundle", str(bundle), "--similarity",
                                    str(tmp_path / "similarity.csv")], capsys)
        assert code == EXIT_IO
        assert f"{bundle / 'points.csv'}: layer 0 does not fit the bundle" in stderr
        assert "Q =" not in stdout

    def test_layer_of_one_point_is_io_error(self, tmp_path, capsys):
        """A layer's quality ranks pairs of other points, so a points.csv
        layer of one point is named with its file: exit 4, not exit 2."""
        bundle = tmp_path / "b"
        assert run(["synth", "layered", "--counts", "3,1", "--r", "0.5", "--seed", "1",
                    "--out", str(bundle)], capsys)[0] == EXIT_OK
        net, _ = dataio.load_network(bundle)
        blocks = hetsim.SimilaritySet({t.name: np.eye(t.size) for t in net.types})
        dataio.save_similarity(blocks, net, tmp_path / "similarity.csv")
        code, stdout, stderr = run(["eval-q", "--bundle", str(bundle), "--similarity",
                                    str(tmp_path / "similarity.csv")], capsys)
        assert code == EXIT_IO
        assert f"{bundle / 'points.csv'}: layer 1 has fewer than 2 points" in stderr
        assert "Q =" not in stdout

    @staticmethod
    def _solved_layered(tmp_path, capsys, counts, seed):
        """A ``synth layered --r 0.6`` bundle and its dense ``solve`` dump."""
        bundle, out = tmp_path / "b", tmp_path / "o"
        assert run(["synth", "layered", "--counts", counts, "--r", "0.6", "--seed", seed,
                    "--out", str(bundle)], capsys)[0] == EXIT_OK
        assert run(["solve", "--bundle", str(bundle), "--out", str(out)], capsys)[0] == EXIT_OK
        return bundle, out / "similarity.csv"

    @staticmethod
    def _drop_lines(path, prefix):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(prefix)))

    @pytest.mark.parametrize("layer", [1, 2])
    def test_points_missing_a_layer_are_io_error(self, tmp_path, capsys, layer):
        """points.csv is read by layer number: with layer 1's rows gone, layer
        2's points are not scored as layer 1's, and with the last layer's rows
        gone, type layer2 is not left unscored; points.csv is named, exit 4."""
        bundle, similarity = self._solved_layered(tmp_path, capsys, "5,5,5", "1")
        self._drop_lines(bundle / "points.csv", f"{layer},")
        code, stdout, stderr = run(["eval-q", "--bundle", str(bundle), "--similarity",
                                    str(similarity)], capsys)
        assert code == EXIT_IO
        assert f"{bundle / 'points.csv'}: no points in layer {layer}" in stderr
        assert not [line for line in stdout.splitlines() if line.startswith("Q")]

    def test_similarity_missing_a_type_is_io_error(self, tmp_path, capsys):
        """A dump with no rows for a type of the bundle is refused, not read
        as the identity block: the dump is named, exit 4."""
        bundle, similarity = self._solved_layered(tmp_path, capsys, "6,6", "2")
        self._drop_lines(similarity, "layer0,")
        code, stdout, stderr = run(["eval-q", "--bundle", str(bundle), "--similarity",
                                    str(similarity)], capsys)
        assert code == EXIT_IO
        assert f"{similarity}: no rows for type 'layer0'" in stderr
        assert not [line for line in stdout.splitlines() if line.startswith("Q")]

    @pytest.mark.parametrize("counts", ["1,3", "4,0"])
    def test_sweep_with_a_layer_below_two_points_is_config_error(
        self, capsys, monkeypatch, counts
    ):
        """A layer's quality ranks pairs of other points, so --counts with a
        layer below 2 is refused before any network is built."""
        built = []
        monkeypatch.setattr(hetsim.synth, "layered_points_graph", built.append)
        code, stdout, stderr = run(
            ["eval-q", "--sweep", "0.3:0.3:0.1", "--trials", "1", "--counts", counts], capsys
        )
        assert code == EXIT_CONFIG
        assert "--counts" in stderr
        assert built == [] and "meanQ" not in stdout

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_sweep_with_fewer_than_one_trial_is_config_error(self, capsys, trials):
        code, stdout, stderr = run(
            ["eval-q", "--sweep", "0.3:0.3:0.1", "--counts", "4,4", "--trials", trials],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert "--trials must be at least 1" in stderr
        assert "meanQ" not in stdout

    @pytest.mark.parametrize("spec", ["1:2:1e-17", "0:inf:1"])
    def test_sweep_grid_that_never_ends_is_config_error(self, capsys, spec):
        # 1.0 + 1e-17 == 1.0, and no finite step reaches inf: either grid
        # would grow until memory ran out.
        code, stdout, stderr = run(
            ["eval-q", "--sweep", spec, "--counts", "4,4", "--trials", "1"], capsys
        )
        assert code == EXIT_CONFIG
        assert "sweep" in stderr
        assert "meanQ" not in stdout

    def test_readme_sweep_grid(self):
        # The grid README's eval-q example runs, as the accumulating parser built it.
        assert _parse_sweep("0.05:0.5:0.05") == [
            0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]

    def test_sweep_with_a_tiny_step_gives_distinct_radii_up_to_r1(self):
        grid = _parse_sweep("0:1e-11:1e-13")
        assert len(grid) == len(set(grid)) == 101
        assert grid == sorted(grid) and grid[-1] == 1e-11

    def test_sweep_grid_beyond_the_limit_is_config_error(self, capsys):
        # 10^9 + 1 radii: rejected before any is built.
        code, stdout, stderr = run(
            ["eval-q", "--sweep", "0:1:1e-9", "--counts", "4,4", "--trials", "1"], capsys
        )
        assert code == EXIT_CONFIG
        assert f"more than {MAX_SWEEP_POINTS}" in stderr
        assert "meanQ" not in stdout
        assert len(_parse_sweep(f"0:{MAX_SWEEP_POINTS - 1}:1")) == MAX_SWEEP_POINTS


class TestQueryAndHeatmap:
    def _solved_toy(self, tmp_path, capsys):
        write_toy_bundle(tmp_path / "toy")
        run(["solve", "--bundle", str(tmp_path / "toy"), "--out",
             str(tmp_path / "out")], capsys)
        return tmp_path / "toy", tmp_path / "out" / "similarity.csv"

    def test_query_similarity_output(self, tmp_path, capsys):
        _, similarity = self._solved_toy(tmp_path, capsys)
        code, stdout, _ = run(
            ["query", "--similarity", str(similarity), "--type", "A",
             "--id", "a1", "--k", "1"],
            capsys,
        )
        assert code == EXIT_OK
        row = stdout.splitlines()[-1].split(",")
        assert row[0] == "1"
        assert row[1] == "a2"
        assert float(row[2]) == pytest.approx(0.25, abs=1e-9)

    def test_query_factors_requires_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "toy"
        write_toy_bundle(bundle)
        run(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f"),
             "--solver", "lowrank", "--ranks", "full", "--seed", "0"], capsys)
        code, _, _ = run(
            ["query", "--factors", str(tmp_path / "f" / "factors"),
             "--type", "A", "--id", "a1"],
            capsys,
        )
        assert code == EXIT_CONFIG
        code, stdout, _ = run(
            ["query", "--factors", str(tmp_path / "f" / "factors"),
             "--bundle", str(bundle), "--type", "A", "--id", "a1", "--k", "1"],
            capsys,
        )
        assert code == EXIT_OK
        assert stdout.splitlines()[-1].split(",")[1] == "a2"

    def test_query_scores_non_increasing(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        run(["synth", "random", "--K", "3", "--N", "15", "--seed", "3",
             "--out", str(bundle)], capsys)
        run(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
             "--max-iter", "300"], capsys)
        code, stdout, _ = run(
            ["query", "--similarity", str(tmp_path / "o" / "similarity.csv"),
             "--type", "c0", "--id", "c0_0", "--k", "6"],
            capsys,
        )
        assert code == EXIT_OK
        rows = [l.split(",") for l in stdout.splitlines() if "," in l][1:]
        scores = [float(r[2]) for r in rows if len(r) == 3]
        assert len(scores) == 6
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_query_non_positive_k_is_config_error(self, tmp_path, capsys, k):
        bundle, similarity = self._solved_toy(tmp_path, capsys)
        run(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "f"),
             "--solver", "lowrank", "--ranks", "full"], capsys)
        for source in (["--similarity", str(similarity)],
                       ["--factors", str(tmp_path / "f" / "factors"), "--bundle", str(bundle)]):
            code, stdout, _ = run(
                ["query", *source, "--type", "A", "--id", "a1", "--k", k], capsys
            )
            assert code == EXIT_CONFIG
            assert stdout.splitlines()[1:] == []

    def test_unknown_id_is_config_error(self, tmp_path, capsys):
        _, similarity = self._solved_toy(tmp_path, capsys)
        code, _, _ = run(
            ["query", "--similarity", str(similarity), "--type", "A",
             "--id", "ghost"],
            capsys,
        )
        assert code == EXIT_CONFIG

    def test_heatmap_from_similarity(self, tmp_path, capsys):
        _, similarity = self._solved_toy(tmp_path, capsys)
        out = tmp_path / "heat.svg"
        code, _, _ = run(
            ["heatmap", "--similarity", str(similarity), "--type", "A",
             "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert "<svg" in out.read_text()

    @pytest.mark.parametrize("command", ["query", "heatmap"])
    def test_both_sources_is_config_error(self, tmp_path, capsys, command):
        # Refused before any file is read: neither source exists.
        argv = {
            "query": ["query", "--bundle", str(tmp_path / "toy"), "--id", "a1"],
            "heatmap": ["heatmap", "--out", str(tmp_path / "a.svg")],
        }[command]
        code, _, stderr = run([*argv, "--factors", str(tmp_path / "f"), "--similarity",
                               str(tmp_path / "s.csv"), "--type", "A"], capsys)
        assert code == EXIT_CONFIG
        assert f"error: {command} takes exactly one of --factors and --similarity" in stderr
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("types,plain", [
        ([("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])], True),
        ([("A", ["a,1", 'a"2', "a\r\n3"]), ("B", ["b1", "b2"])], False),
        ([("A", ["a1", "a2", "a3"]), ("B", ["b,1", 'b"2'])], False),
        ([('A,"x', ["a1", "a2", "a3"]), ("B", ["b1", "b2"])], False),
    ], ids=["plain", "quoted asked ids", "quoted other ids", "quoted type name"])
    def test_similarity_commands_match_the_solved_block(self, tmp_path, capsys, types, plain):
        """query and heatmap --similarity print the in-memory ranking and draw
        the in-memory block, whether the dump is read without csv or with it."""
        (name, ids), (_, other) = types
        net = hetsim.build_network(types, [("r", name, "B", [(ids[0], other[1])])])
        state, _ = hetsim.solve_dense(net, hetsim.default_weights(net))
        similarity = tmp_path / "similarity.csv"
        dataio.save_similarity(state, net, similarity)
        block = state[name]
        dataio.export_heatmap(block, tmp_path / "want.svg")
        with mock.patch.object(dataio, "_row_chunks", wraps=dataio._row_chunks) as row_chunks:
            for i, eid in enumerate(ids):
                code, stdout, _ = run(["query", "--similarity", str(similarity), "--type", name,
                                       "--id", eid, "--k", "2"], capsys)
                assert code == EXIT_OK
                assert stdout.split("\n", 1)[1] == "".join(
                    f"{rank},{ids[j]},{'%.17g' % score}\n"
                    for rank, (j, score) in enumerate(rank_others(block[i], i, 2), start=1)
                )
            out = tmp_path / "heat.svg"
            code, _, _ = run(["heatmap", "--similarity", str(similarity), "--type", name,
                              "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert out.read_bytes() == (tmp_path / "want.svg").read_bytes()
        assert row_chunks.called != plain

    @pytest.mark.parametrize("size", [1, 3])
    def test_query_factors_of_another_size_is_io_error(self, tmp_path, capsys, size):
        bundle = tmp_path / "toy"
        write_toy_bundle(bundle)  # type A has 2 entities
        other = hetsim.build_network(
            [("A", [f"x{i}" for i in range(size)]), ("B", ["b1"])], []
        )
        states = {
            "A": FactoredSimilarity(np.ones((size, 1)), np.ones(1)),
            "B": FactoredSimilarity.identity(1),
        }
        dataio.save_factors(states, other, tmp_path / "factors", seed=0, iterations=1)
        code, _, stderr = run(
            ["query", "--factors", str(tmp_path / "factors"), "--bundle", str(bundle),
             "--type", "A", "--id", "a1"],
            capsys,
        )
        assert code == EXIT_IO
        assert "do not fit the bundle" in stderr


def _append_line(path, line):
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")


def _drop_last_line(path):
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:-1]),
                    encoding="utf-8")


class TestFactorScope:
    """``query`` and ``heatmap --factors --type c0`` read the factor manifest,
    c0's U and D files, and (for ``query``) schema.json and c0's entity file:
    a fault anywhere else goes unseen, a fault in those files still exits 4."""

    def _solved(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=6, seed=3))
        dataio.save_network(net, bundle)
        code, _, _ = run(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                          "--solver", "lowrank", "--ranks", "2", "--seed", "0"], capsys)
        assert code in (EXIT_OK, EXIT_NOCONVERGE)
        return bundle, tmp_path / "o" / "factors"

    def _outputs(self, bundle, factors, svg, capsys):
        """The query's exit code and printed rows, the heatmap's exit code and SVG bytes."""
        q_code, q_out, _ = run(["query", "--factors", str(factors), "--bundle", str(bundle),
                                "--type", "c0", "--id", "c0_1", "--k", "4"], capsys)
        h_code, _, _ = run(["heatmap", "--factors", str(factors), "--type", "c0",
                            "--out", str(svg)], capsys)
        return q_code, q_out.splitlines()[1:], h_code, svg.read_bytes() if h_code == 0 else None

    @pytest.mark.parametrize("fault", ["truncated U_c1.csv", "repeated edge", "repeated c1 id"])
    def test_a_fault_in_another_type_goes_unseen(self, tmp_path, capsys, fault):
        bundle, factors = self._solved(tmp_path, capsys)
        want = self._outputs(bundle, factors, tmp_path / "want.svg", capsys)
        assert want[0] == want[2] == EXIT_OK and len(want[1]) == 4
        if fault == "truncated U_c1.csv":
            _drop_last_line(factors / "U_c1.csv")
        elif fault == "repeated edge":
            edges = bundle / "edges_r_c1_c2.csv"
            _append_line(edges, edges.read_text(encoding="utf-8").splitlines()[1])
        else:
            _append_line(bundle / "entities_c1.csv", "c1_0")
        with pytest.raises(dataio.BundleError):  # the whole readers see the fault
            if fault.startswith("truncated"):
                dataio.load_factors(factors)
            else:
                dataio.load_network(bundle)
        assert self._outputs(bundle, factors, tmp_path / "got.svg", capsys) == want

    @pytest.mark.parametrize("fault,message", [
        ("missing U_c0.csv row", "U_c0.csv: no row for 1 of 12 entries"),
        ("repeated c0 id", "entities_c0.csv:8: duplicate id 'c0_0'"),
        ("repeated type name", "schema.json: duplicate type names"),
    ])
    def test_a_fault_in_the_asked_type_is_io_error(self, tmp_path, capsys, fault, message):
        bundle, factors = self._solved(tmp_path, capsys)
        if fault == "missing U_c0.csv row":
            _drop_last_line(factors / "U_c0.csv")
        elif fault == "repeated c0 id":
            _append_line(bundle / "entities_c0.csv", "c0_0")
        else:
            schema = json.loads((bundle / "schema.json").read_text())
            schema["types"].append(schema["types"][2])
            (bundle / "schema.json").write_text(json.dumps(schema))
        code, _, stderr = run(["query", "--factors", str(factors), "--bundle", str(bundle),
                               "--type", "c0", "--id", "c0_1"], capsys)
        assert code == EXIT_IO
        assert message in stderr
        heatmap = self._outputs(bundle, factors, tmp_path / "h.svg", capsys)[2]
        assert heatmap == (EXIT_IO if fault.startswith("missing") else EXIT_OK)

    def test_unknown_type_is_config_error(self, tmp_path, capsys):
        bundle, factors = self._solved(tmp_path, capsys)
        code, _, stderr = run(["query", "--factors", str(factors), "--bundle", str(bundle),
                               "--type", "x", "--id", "c0_1"], capsys)
        assert code == EXIT_CONFIG
        assert "unknown type 'x'" in stderr
        code, _, stderr = run(["heatmap", "--factors", str(factors), "--type", "x",
                               "--out", str(tmp_path / "x.svg")], capsys)
        assert code == EXIT_CONFIG
        assert "no factors for type 'x'" in stderr

    def test_missing_bundle_is_config_error_before_any_factor_is_read(self, tmp_path, capsys):
        code, _, stderr = run(["query", "--factors", str(tmp_path / "nowhere"),
                               "--type", "c0", "--id", "c0_1"], capsys)
        assert code == EXIT_CONFIG
        assert "need --bundle" in stderr


class TestMissingKeys:
    def _schema(self, tmp_path):
        """A toy bundle with explicit weights, and its schema.json path."""
        bundle = tmp_path / "toy"
        net = write_toy_bundle(bundle)
        dataio.save_network(net, bundle, weights=hetsim.default_weights(net))
        return bundle, bundle / dataio.SCHEMA_NAME

    def _manifest(self, tmp_path):
        """A one-type factor set, and its factors.json path."""
        net = hetsim.build_network([("A", ["a1", "a2"])], [])
        states = {"A": FactoredSimilarity(np.ones((2, 1)), np.ones(1))}
        dataio.save_factors(states, net, tmp_path / "f", seed=0, iterations=1)
        return tmp_path / "f", tmp_path / "f" / dataio.FACTORS_NAME

    def _exits_with_io_error(self, argv):
        code, stderr = run_process(argv)
        assert code == EXIT_IO
        assert "Traceback" not in stderr
        return stderr

    @pytest.mark.parametrize("section,key", [
        ("types", "name"), ("types", "entities_csv"),
        ("relations", "name"), ("relations", "src"), ("relations", "dst"),
        ("relations", "edges_csv"),
        ("weights", "type"), ("weights", "relation"), ("weights", "weight"),
    ])
    def test_schema_entry_without_key_is_io_error(self, tmp_path, section, key):
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        del schema[section][0][key]
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"lacks {key}" in stderr

    @pytest.mark.parametrize("weight", [None, "0.5", True, [1.0]])
    def test_schema_weight_not_a_number_is_io_error(self, tmp_path, weight):
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        schema["weights"][0]["weight"] = weight
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert "not a finite number" in stderr

    def test_schema_negative_weight_is_io_error(self, tmp_path):
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        schema["weights"][0]["weight"] = -0.5
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{path}: entry " in stderr
        assert "weight -0.5, which is not a finite number >= 0" in stderr

    @pytest.mark.parametrize("entry,message", [
        ({"type": "Z", "relation": "r"}, "weight for type 'Z': 'r' is not its relation"),
        ({"type": "A", "relation": "q"}, "weight for type 'A': 'q' is not its relation"),
        ({"type": "C", "relation": "r"}, "weight for type 'C': 'r' is not its relation"),
        ({"type": "A", "relation": "r"}, "duplicate weight for type 'A', relation 'r'"),
    ], ids=["unknown type", "unknown relation", "relation not incident", "repeated pair"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_schema_weight_outside_the_schema_is_io_error(self, tmp_path, entry, message, command):
        """A weight is refused, not dropped or overwritten, when its type or
        relation is not in the schema, its relation does not touch its type,
        or its (type, relation) pair is listed twice."""
        bundle, path = self._schema(tmp_path)
        (bundle / "entities_C.csv").write_text("id\nc1\n")
        schema = json.loads(path.read_text())
        schema["types"].append({"name": "C", "entities_csv": "entities_C.csv"})
        path.write_text(json.dumps(schema))
        dataio.load_network(bundle)  # whole with the extra type
        schema["weights"].append({**entry, "weight": 0.25})
        path.write_text(json.dumps(schema))
        out = tmp_path / "run"
        stderr = self._exits_with_io_error(
            ["check", "--bundle", str(bundle)] if command == "check"
            else ["solve", "--bundle", str(bundle), "--out", str(out)]
        )
        assert f"{path}: {message}" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("partner", ["A", "nonsense", None])
    def test_schema_weight_partner_not_the_other_type_is_io_error(self, tmp_path, partner):
        """A weight's ``partner``, if given, is its relation's other type:
        for type A across r (A -> B), B."""
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        entry = next(e for e in schema["weights"] if e["type"] == "A")
        assert entry["partner"] == "B"
        entry["partner"] = partner
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{path}: weight for type 'A', relation 'r': partner is not 'B'" in stderr
        del entry["partner"]  # the key is optional
        path.write_text(json.dumps(schema))
        loaded, weights = dataio.load_network(bundle)
        assert weights == hetsim.default_weights(loaded)

    @pytest.mark.parametrize("partner,refused", [("A", False), ("B", True)])
    def test_schema_weight_partner_across_a_self_relation(self, tmp_path, partner, refused):
        """Across a self-relation the other type is the type itself."""
        bundle = tmp_path / "self"
        net = hetsim.build_network(
            [("A", ["a1", "a2"]), ("B", ["b1"])],
            [("s", "A", "A", [("a1", "a2")]), ("r", "A", "B", [("a1", "b1")])],
        )
        dataio.save_network(net, bundle, weights=hetsim.default_weights(net))
        path = bundle / dataio.SCHEMA_NAME
        schema = json.loads(path.read_text())
        entry = next(e for e in schema["weights"] if e["relation"] == "s")
        assert entry["partner"] == "A"
        entry["partner"] = partner
        path.write_text(json.dumps(schema))
        if refused:
            stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
            assert f"{path}: weight for type 'A', relation 's': partner is not 'A'" in stderr
        else:
            assert dataio.load_network(bundle)[1] == hetsim.default_weights(net)

    @pytest.mark.parametrize("section,key,value", [
        ("types", "entities_csv", 3), ("types", "name", ["A"]),
        ("relations", "src", ["A"]), ("relations", "edges_csv", None),
        ("weights", "type", ["A"]), ("weights", "relation", 1),
    ])
    def test_schema_value_of_wrong_type_is_io_error(self, tmp_path, section, key, value):
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        schema[section][0][key] = value
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{key} {value!r}, which is not a string" in stderr

    @pytest.mark.parametrize("section,value", [
        ("types", 3), ("relations", {"name": "r"}), ("weights", "w"),
    ])
    def test_schema_section_not_a_list_is_io_error(self, tmp_path, section, value):
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        schema[section] = value
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{section} {value!r}, which is not a list" in stderr

    @pytest.mark.parametrize("text", ["{not json", "[]"], ids=["invalid", "list"])
    def test_unreadable_schema_is_io_error(self, tmp_path, text):
        bundle, path = self._schema(tmp_path)
        path.write_text(text)
        self._exits_with_io_error(["check", "--bundle", str(bundle)])

    def test_repeated_edge_is_io_error(self, tmp_path):
        bundle, _ = self._schema(tmp_path)
        edges = bundle / "edges_r.csv"
        edges.write_text(edges.read_text() + "a2,b1\n")  # line 4 repeats line 3
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{edges}:4: duplicate edge 'a2' -> 'b1'" in stderr

    @pytest.mark.parametrize("section,message", [
        ("types", "duplicate type names"), ("relations", "duplicate relation names"),
    ])
    def test_repeated_schema_name_is_io_error(self, tmp_path, section, message):
        bundle, path = self._schema(tmp_path)
        schema = json.loads(path.read_text())
        schema[section].append(schema[section][0])
        path.write_text(json.dumps(schema))
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{path}: {message}" in stderr

    def test_entity_file_without_rows_is_io_error(self, tmp_path):
        bundle, _ = self._schema(tmp_path)
        entities = bundle / "entities_B.csv"
        entities.write_text("id\n")
        stderr = self._exits_with_io_error(["check", "--bundle", str(bundle)])
        assert f"{entities}: type 'B' has no entities" in stderr

    @pytest.mark.parametrize("command", ["query", "heatmap"])
    def test_repeated_factor_type_name_is_io_error(self, tmp_path, command):
        factors, path = self._manifest(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["types"].append(manifest["types"][0])
        path.write_text(json.dumps(manifest))
        bundle, _ = self._schema(tmp_path)
        argv = {
            "query": ["query", "--bundle", str(bundle), "--id", "a1"],
            "heatmap": ["heatmap", "--out", str(tmp_path / "a.svg")],
        }[command]
        stderr = self._exits_with_io_error([*argv, "--factors", str(factors), "--type", "A"])
        assert f"{path}: duplicate type names" in stderr

    @pytest.mark.parametrize("key", ["types", "name", "n", "rank", "u_csv", "d_csv"])
    def test_factor_manifest_without_key_is_io_error(self, tmp_path, key):
        factors, path = self._manifest(tmp_path)
        manifest = json.loads(path.read_text())
        del (manifest if key == "types" else manifest["types"][0])[key]
        path.write_text(json.dumps(manifest))
        stderr = self._exits_with_io_error(
            ["heatmap", "--factors", str(factors), "--type", "A",
             "--out", str(tmp_path / "a.svg")]
        )
        assert f"lacks {key}" in stderr

    @pytest.mark.parametrize("key,value,kind", [
        ("n", None, "an integer >= 1"), ("n", "two", "an integer >= 1"),
        ("n", -1, "an integer >= 1"), ("n", True, "an integer >= 1"),
        ("rank", [1], "an integer >= 0"), ("rank", 1.0, "an integer >= 0"),
        ("u_csv", 3, "a string"), ("d_csv", None, "a string"),
        ("name", ["A"], "a string"), ("types", 3, "a list"),
        ("n", 0, "an integer >= 1"),
    ])
    def test_factor_manifest_value_of_wrong_type_is_io_error(self, tmp_path, key, value, kind):
        factors, path = self._manifest(tmp_path)
        manifest = json.loads(path.read_text())
        (manifest if key == "types" else manifest["types"][0])[key] = value
        path.write_text(json.dumps(manifest))
        stderr = self._exits_with_io_error(
            ["heatmap", "--factors", str(factors), "--type", "A",
             "--out", str(tmp_path / "a.svg")]
        )
        assert f"{key} {value!r}, which is not {kind}" in stderr

    @pytest.mark.parametrize("n,rank", [(10**15, 10**6), (2 * 10**6, 1000)])
    def test_factor_shape_beyond_the_file_is_io_error(self, tmp_path, n, rank):
        # Checked before allocating: these shapes ask for 8e21 and 1.6e10 bytes.
        factors, path = self._manifest(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["types"][0].update(n=n, rank=rank)
        path.write_text(json.dumps(manifest))
        stderr = self._exits_with_io_error(
            ["heatmap", "--factors", str(factors), "--type", "A",
             "--out", str(tmp_path / "a.svg")]
        )
        assert f"U_A.csv: shape ({n}, {rank}) needs more rows than the file holds" in stderr

    def test_block_too_large_to_allocate_is_io_error(self, tmp_path):
        # Rank 0 needs no factor rows, so this manifest passes every check; its
        # dense block asks numpy for 6.9 EiB, which it refuses without touching memory.
        factors, path = self._manifest(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["types"][0].update(n=10**9, rank=0)
        path.write_text(json.dumps(manifest))
        (factors / "U_A.csv").write_text("row,col,value\r\n")
        (factors / "D_A.csv").write_text("k,value\r\n")
        stderr = self._exits_with_io_error(
            ["heatmap", "--factors", str(factors), "--type", "A",
             "--out", str(tmp_path / "a.svg")]
        )
        assert stderr.startswith("error: ")

    def test_factor_file_with_a_missing_row_is_io_error(self, tmp_path, capsys, monkeypatch):
        # The README quickstart's low-rank factors, one data row of U_c0.csv gone.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        synth = next(x for x in lines if x.startswith("hetsim synth random"))
        solve = next(x for x in lines if x.startswith("hetsim solve") and "lowrank" in x)
        monkeypatch.chdir(tmp_path)
        for line in (synth, solve):
            assert run(shlex.split(line)[1:], capsys)[0] == EXIT_OK, line
        factors = tmp_path / "run-lr" / "factors"
        u_file = factors / "U_c0.csv"
        rows = u_file.read_text(encoding="utf-8").splitlines(keepends=True)
        u_file.write_text("".join(rows[:5] + rows[6:]), encoding="utf-8")
        stderr = self._exits_with_io_error(
            ["heatmap", "--factors", str(factors), "--type", "c0",
             "--out", str(tmp_path / "c0.svg")]
        )
        assert "U_c0.csv: no row for 1 of " in stderr

    @pytest.mark.parametrize("text", ["{not json", "[]"], ids=["invalid", "list"])
    def test_unreadable_factor_manifest_is_io_error(self, tmp_path, text):
        factors, path = self._manifest(tmp_path)
        path.write_text(text)
        self._exits_with_io_error(
            ["heatmap", "--factors", str(factors), "--type", "A",
             "--out", str(tmp_path / "a.svg")]
        )


class TestUnreadableCsv:
    """A field over csv's size limit, or bytes that are not UTF-8, in any CSV
    a command reads exit 4 and name the file, with no traceback."""

    def _similarity(self, tmp_path):
        """The toy's similarity CSV: A's rows on lines 2-4, B's on line 5."""
        net = write_toy_bundle(tmp_path / "toy")
        state, _ = hetsim.solve_dense(net, hetsim.default_weights(net))
        path = tmp_path / "similarity.csv"
        dataio.save_similarity(state, net, path)
        return path

    def _exits_with(self, argv, message):
        code, stderr = run_process(argv)
        assert (code, stderr) == (EXIT_IO, f"error: {message}\n")

    @pytest.mark.parametrize("line", [3, 5], ids=["asked type", "another type"])
    def test_over_long_similarity_field_is_io_error(self, tmp_path, line):
        path = self._similarity(tmp_path)
        lines = path.read_bytes().decode().split("\r\n")
        fields = lines[line - 1].split(",")
        fields[1] = "x" * (csv.field_size_limit() + 1)
        lines[line - 1] = ",".join(fields)
        path.write_bytes("\r\n".join(lines).encode())
        self._exits_with(["query", "--similarity", str(path), "--type", "A", "--id", "a1"],
                         f"{path}:{line}: field larger than field limit (131072)")

    def test_over_long_entity_id_is_io_error(self, tmp_path):
        write_toy_bundle(tmp_path / "toy")
        path = tmp_path / "toy" / "entities_A.csv"
        _append_line(path, "x" * (csv.field_size_limit() + 1))
        self._exits_with(["check", "--bundle", str(tmp_path / "toy")],
                         f"{path}:4: field larger than field limit (131072)")

    @pytest.mark.parametrize("command", ["query", "heatmap"])
    def test_similarity_not_utf8_is_io_error(self, tmp_path, command):
        path = self._similarity(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"a2", b"a\xff", 1))
        tail = ["--id", "a1"] if command == "query" else ["--out", str(tmp_path / "h.svg")]
        self._exits_with([command, "--similarity", str(path), "--type", "A", *tail],
                         f"{path}: invalid UTF-8 (invalid start byte)")

    def test_entity_file_not_utf8_is_io_error(self, tmp_path):
        write_toy_bundle(tmp_path / "toy")
        path = tmp_path / "toy" / "entities_A.csv"
        path.write_bytes(path.read_bytes().replace(b"a2", b"a\xff"))
        self._exits_with(["check", "--bundle", str(tmp_path / "toy")],
                         f"{path}: invalid UTF-8 (invalid start byte)")


class TestNonFiniteValues:
    """A non-finite value in a row of the asked type, in a similarity dump or
    a factor file, is an I/O error (exit 4) that names the file and line."""

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("command", ["query", "heatmap"])
    @pytest.mark.parametrize("source", ["similarity", "factors"])
    def test_non_finite_value_is_io_error(self, tmp_path, capsys, source, command, value):
        bundle = tmp_path / "bundle"
        dataio.save_network(hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=6, seed=3)),
                            bundle)
        solver = ["--solver", "dense"] if source == "similarity" else [
            "--solver", "lowrank", "--ranks", "2", "--seed", "0"]
        code, _, _ = run(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                          *solver], capsys)
        assert code in (EXIT_OK, EXIT_NOCONVERGE)
        if source == "similarity":
            path = tmp_path / "o" / "similarity.csv"
            args, message = ["--similarity", str(path)], f"malformed value {value!r}"
        else:
            path = tmp_path / "o" / "factors" / "U_c0.csv"
            args, message = ["--factors", str(path.parent)], "malformed or out-of-range factor row"
            args += ["--bundle", str(bundle)] if command == "query" else []
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + value  # line 3, a row of c0
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tail = ["--id", "c0_1"] if command == "query" else ["--out", str(tmp_path / "h.svg")]
        code, out, err = run([command, *args, "--type", "c0", *tail], capsys)
        assert (code, err) == (EXIT_IO, f"error: {path}:3: {message}\n")


class TestCheck:
    def test_passing_bundle(self, tmp_path, capsys):
        write_toy_bundle(tmp_path / "toy")
        code, stdout, _ = run(
            ["check", "--bundle", str(tmp_path / "toy")], capsys
        )
        assert code == EXIT_OK
        assert "check: PASS" in stdout
        assert "lyapunov bound" in stdout

    def test_overweight_bundle_fails(self, tmp_path, capsys):
        net = write_toy_bundle(tmp_path / "toy")
        weights = hetsim.WeightMatrix({("A", "r"): 1.5, ("B", "r"): 1.0})
        dataio.save_network(net, tmp_path / "toy", weights=weights)
        code, stdout, _ = run(
            ["check", "--bundle", str(tmp_path / "toy")], capsys
        )
        assert code == EXIT_CONFIG
        assert "check: FAIL" in stdout
        assert "overweight type: A" in stdout

    def test_hub_column_passes(self, tmp_path, capsys):
        # 100 000 edges into one entity: its column of the normalized operator
        # sums to 1 + 1.9e-12 in floating point, yet is stochastic by
        # construction, so neither the check nor a solve's precheck may fail.
        n = 100_000
        a = hetsim.EntityType("A", tuple(f"a{i}" for i in range(n)))
        b = hetsim.EntityType("B", ("b0",))
        rel = hetsim.Relation("r", a, b, np.arange(n), np.zeros(n, dtype=np.int64))
        dataio.save_network(hetsim.HeteroNetwork((a, b), (rel,)), tmp_path / "hub")
        code, stdout, _ = run(["check", "--bundle", str(tmp_path / "hub")], capsys)
        assert code == EXIT_OK
        assert "check: PASS" in stdout
        code, _, stderr = run(
            ["solve", "--bundle", str(tmp_path / "hub"), "--out", str(tmp_path / "out"),
             "--solver", "lowrank", "--ranks", "1", "--max-iter", "2"],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_NOCONVERGE), stderr


# -- fuzzing: every input gives an exit code ------------------------------

FUZZ_INSERTS = [b'"', b",", b"\r", b"\n", b"\xff", b"-1", b"1e999"]
FUZZ_MUTATIONS = ["truncate", "delete line", "repeat line", "reverse line", "insert",
                  "empty", "remove"]
# Edge values of the flags each command takes; argparse keeps the last one given.
FUZZ_FLAGS = {
    "query": [("--k", "0")],
    "solve": [("--ranks", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--max-iter", "0"),
              ("--seed", "-1"), ("--oversample", "-1")],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A K=3, N=6 bundle, its similarity CSV and a rank-2 factor set, a
    three-layer bundle with its points.csv and its similarity CSV, and the
    paths of their files relative to the directory holding them all."""
    root = tmp_path_factory.mktemp("fuzz")
    net = hetsim.random_network(hetsim.RandomNetworkSpec(k=3, n=6, seed=3))
    weights = hetsim.default_weights(net)
    dataio.save_network(net, root / "bundle")
    state, _ = hetsim.solve_dense(net, weights)
    dataio.save_similarity(state, net, root / "similarity.csv")
    factors, trace = hetsim.solve_lowrank(net, weights, svd=hetsim.SvdConfig(rank=2))
    dataio.save_factors(factors, net, root / "factors", 0, trace.iterations)
    net, points = hetsim.layered_points_graph(hetsim.LayeredGraphSpec((4, 4, 3), 0.5, seed=1))
    dataio.save_network(net, root / "layered")
    dataio.save_points(points, root / "layered" / "points.csv")
    state, _ = hetsim.solve_dense(net, hetsim.default_weights(net))
    dataio.save_similarity(state, net, root / "layered.csv")
    return root, sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def _mutate(path, kind, at, text):
    """Apply one mutation to the file at ``path``; ``at`` picks the byte or line."""
    if kind == "remove" or not path.exists():
        path.unlink(missing_ok=True)
        return
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if kind == "truncate":
        data = data[: at % (len(data) + 1)]
    elif kind == "empty":
        data = b""
    elif kind == "insert":
        at %= len(data) + 1
        data = data[:at] + text + data[at:]
    elif lines:
        i = at % len(lines)
        body = lines[i].rstrip(b"\r\n")
        if kind == "delete line":
            del lines[i]
        elif kind == "repeat line":
            lines.insert(i, lines[i])
        else:
            lines[i] = body[::-1] + lines[i][len(body):]
        data = b"".join(lines)
    path.write_bytes(data)


def _fuzz_argv(root, command, data):
    bundle, sim, factors = root / "bundle", root / "similarity.csv", root / "factors"
    if command == "check":
        return ["check", "--bundle", str(bundle)]
    if command == "eval-q":
        sim = data.draw(st.sampled_from([root / "layered.csv", sim]))
        return ["eval-q", "--bundle", str(root / "layered"), "--similarity", str(sim)]
    if command == "solve":
        solver = data.draw(st.sampled_from(["dense", "lowrank", "lyapunov"]))
        return ["solve", "--bundle", str(bundle), "--out", str(root / "out"), "--solver",
                solver, "--max-iter", str(data.draw(st.integers(1, 5)))]
    source = data.draw(st.sampled_from(
        [["--similarity", str(sim)], ["--factors", str(factors), "--bundle", str(bundle)]]
    ))
    kind = data.draw(st.sampled_from(["c0", "c2", "x"]))
    if command == "heatmap":
        return ["heatmap", *source, "--type", kind, "--out", str(root / "h.svg")]
    entity = data.draw(st.sampled_from(["c0_0", "c0_5", "c2_3", "?"]))
    return ["query", *source, "--type", kind, "--id", entity]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_mutated_input_gives_an_exit_code(fuzz_inputs, data):
    pristine, files = fuzz_inputs
    mutations = data.draw(st.lists(st.tuples(
        st.sampled_from(files), st.sampled_from(FUZZ_MUTATIONS),
        st.integers(0, 10**4), st.sampled_from(FUZZ_INSERTS),
    ), max_size=3))
    command = data.draw(st.sampled_from(["check", "solve", "query", "heatmap", "eval-q"]))
    flag = data.draw(st.sampled_from([(), *FUZZ_FLAGS.get(command, [])]))
    with tempfile.TemporaryDirectory(dir=pristine.parent) as tmp:
        root = Path(tmp) / "in"
        shutil.copytree(pristine, root)
        for name, kind, at, text in mutations:
            _mutate(root / name, kind, at, text)
        argv = [*_fuzz_argv(root, command, data), *flag]
        note(f"argv: {argv}")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
            assert code == EXIT_CONFIG
    event(f"{command} exit {code}")
    assert code in {EXIT_OK, EXIT_CONFIG, EXIT_NOCONVERGE, EXIT_IO}


IMPORT_FLOOR_SCRIPT = """
import sys
import hetsim, hetsim.cli

tmp = sys.argv[1]
calls = [
    ["synth", "random", "--K", "3", "--N", "30", "--seed", "1", "--out", f"{tmp}/r"],
    ["solve", "--bundle", f"{tmp}/r", "--out", f"{tmp}/dense"],
    ["solve", "--bundle", f"{tmp}/r", "--out", f"{tmp}/lowrank", "--solver", "lowrank",
     "--ranks", "3", "--tol", "1e-6"],
    ["synth", "layered", "--counts", "8,8", "--r", "0.5", "--seed", "1", "--out", f"{tmp}/lay"],
    ["solve", "--bundle", f"{tmp}/lay", "--out", f"{tmp}/laysim", "--tol", "1e-4"],
    ["eval-q", "--bundle", f"{tmp}/lay", "--similarity", f"{tmp}/laysim/similarity.csv"],
]
codes = [hetsim.cli.main(argv) for argv in calls]
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.spatial", "scipy.linalg")))
print("RESULT", codes, loaded)
"""


def test_cli_loads_neither_scipy_spatial_nor_scipy_linalg(tmp_path):
    """A fresh interpreter that imports hetsim and runs synth, a dense and a
    low-rank solve and eval-q loads neither scipy.spatial (with its qhull)
    nor scipy.linalg: of scipy, hetsim needs only scipy.sparse."""
    src = str(Path(hetsim.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FLOOR_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = proc.stdout.splitlines()[-1]
    assert result == f"RESULT {[EXIT_OK] * 6} []"
