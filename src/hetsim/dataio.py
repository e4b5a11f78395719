"""File formats: network bundles, similarity dumps, factors, points, heatmaps.

All text formats are UTF-8 CSV with a header row; the bundle schema is one
JSON document naming the per-type entity files and per-relation edge files.
Values are written with 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np

from .dense import SimilaritySet
from .lowrank import FactoredSimilarity
from .model import HeteroNetwork, WeightMatrix, build_network
from .synth import PointCloud

SCHEMA_NAME = "schema.json"
FACTORS_NAME = "factors.json"

_FMT = "%.17g"


class BundleError(ValueError):
    """Missing files, unknown ids, or malformed rows (reported with line numbers)."""


def _read_rows(path: Path, expected_header: list[str]):
    if not path.is_file():
        raise BundleError(f"missing file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BundleError(f"{path}: empty file") from None
        if header != expected_header:
            raise BundleError(
                f"{path}:1: expected header {','.join(expected_header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise BundleError(f"{path}:{lineno}: expected {len(expected_header)} fields")
            yield lineno, row


def _read_json(path: Path) -> dict:
    """A JSON document whose top level is an object."""
    if not path.is_file():
        raise BundleError(f"missing file: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise BundleError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise BundleError(f"{path}: top level is not a JSON object")
    return doc


def _fields(entry, path: Path, *keys: str) -> list:
    """Required keys of one schema or manifest entry, in order."""
    missing = [k for k in keys if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise BundleError(f"{path}: entry {entry!r} lacks {', '.join(missing)}")
    return [entry[k] for k in keys]


def save_network(
    network: HeteroNetwork, bundle_dir, weights: WeightMatrix | None = None
) -> None:
    """Write schema.json plus one entities CSV per type and one edges CSV per relation."""
    bundle = Path(bundle_dir)
    bundle.mkdir(parents=True, exist_ok=True)
    schema = {"types": [], "relations": []}
    for t in network.types:
        fname = f"entities_{t.name}.csv"
        schema["types"].append({"name": t.name, "entities_csv": fname})
        with open(bundle / fname, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id"])
            for eid in t.ids:
                w.writerow([eid])
    for r in network.relations:
        fname = f"edges_{r.name}.csv"
        schema["relations"].append(
            {"name": r.name, "src": r.src.name, "dst": r.dst.name, "edges_csv": fname}
        )
        with open(bundle / fname, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["src_id", "dst_id"])
            for a, b in r.edge_ids():
                w.writerow([a, b])
    if weights is not None:
        rel_by_name = {r.name: r for r in network.relations}
        schema["weights"] = [
            {
                "type": t,
                "partner": (
                    rel_by_name[r].dst.name
                    if rel_by_name[r].src.name == t
                    else rel_by_name[r].src.name
                ),
                "relation": r,
                "weight": w,
            }
            for (t, r), w in sorted(weights.entries.items())
        ]
    with open(bundle / SCHEMA_NAME, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_network(bundle_dir) -> tuple[HeteroNetwork, WeightMatrix | None]:
    """Load a bundle; index order is file row order, so loading is order-stable."""
    bundle = Path(bundle_dir)
    schema_path = bundle / SCHEMA_NAME
    schema = _read_json(schema_path)

    type_specs = []
    for tspec in schema.get("types", []):
        name, entities_csv = _fields(tspec, schema_path, "name", "entities_csv")
        path = bundle / entities_csv
        ids, seen = [], set()
        for lineno, row in _read_rows(path, ["id"]):
            if row[0] in seen:
                raise BundleError(f"{path}:{lineno}: duplicate id {row[0]!r}")
            seen.add(row[0])
            ids.append(row[0])
        type_specs.append((name, ids))
    id_sets = {name: set(ids) for name, ids in type_specs}

    relation_specs = []
    for rspec in schema.get("relations", []):
        keys = ("name", "src", "dst", "edges_csv")
        name, src, dst, edges_csv = _fields(rspec, schema_path, *keys)
        path = bundle / edges_csv
        if src not in id_sets or dst not in id_sets:
            raise BundleError(f"{schema_path}: relation {name!r} references unknown type")
        edges = []
        for lineno, row in _read_rows(path, ["src_id", "dst_id"]):
            if row[0] not in id_sets[src]:
                raise BundleError(f"{path}:{lineno}: unknown {src} id {row[0]!r}")
            if row[1] not in id_sets[dst]:
                raise BundleError(f"{path}:{lineno}: unknown {dst} id {row[1]!r}")
            edges.append((row[0], row[1]))
        relation_specs.append((name, src, dst, edges))

    network = build_network(type_specs, relation_specs)
    weights = None
    if "weights" in schema:
        entries = {}
        for e in schema["weights"]:
            t, r, w = _fields(e, schema_path, "type", "relation", "weight")
            try:
                number = not isinstance(w, bool) and math.isfinite(w)
            except (TypeError, OverflowError):  # not a number, or an int past float range
                number = False
            if not number:
                raise BundleError(f"{schema_path}: weight {w!r} of ({t!r}, {r!r}) "
                                  "is not a finite number")
            entries[(t, r)] = float(w)
        weights = WeightMatrix(entries)
    return network, weights


def save_similarity(state: SimilaritySet, network: HeteroNetwork, path) -> None:
    """Dense similarity as CSV (upper triangle, diagonal included)."""
    for name, block in state.blocks.items():
        if not np.isfinite(block).all():
            raise ValueError(f"non-finite similarity values in type {name!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["type", "row_id", "col_id", "value"])
        for t in network.types:
            block = state.blocks[t.name]
            for i in range(t.size):
                for j in range(i, t.size):
                    w.writerow([t.name, t.ids[i], t.ids[j], _FMT % block[i, j]])


def load_similarity(path, network: HeteroNetwork) -> SimilaritySet:
    blocks = {t.name: np.eye(t.size) for t in network.types}
    types = {t.name: t for t in network.types}
    p = Path(path)
    for lineno, row in _read_rows(p, ["type", "row_id", "col_id", "value"]):
        tname, rid, cid, value = row
        if tname not in types:
            raise BundleError(f"{p}:{lineno}: unknown type {tname!r}")
        t = types[tname]
        if rid not in t.index or cid not in t.index:
            raise BundleError(f"{p}:{lineno}: unknown entity id")
        i, j = t.index[rid], t.index[cid]
        try:
            v = float(value)
        except ValueError:
            raise BundleError(f"{p}:{lineno}: malformed value {value!r}") from None
        blocks[tname][i, j] = v
        blocks[tname][j, i] = v
    return SimilaritySet(blocks)


def read_similarity_block(path, type_name: str) -> tuple[list[str], np.ndarray]:
    """One block from a similarity CSV without the originating network.

    Ids are taken in first-appearance order, which matches entity file order
    for upper-triangle dumps.
    """
    p = Path(path)
    order: list[str] = []
    seen: dict[str, int] = {}
    entries: list[tuple[str, str, float]] = []
    for lineno, row in _read_rows(p, ["type", "row_id", "col_id", "value"]):
        if row[0] != type_name:
            continue
        for eid in (row[1], row[2]):
            if eid not in seen:
                seen[eid] = len(order)
                order.append(eid)
        try:
            entries.append((row[1], row[2], float(row[3])))
        except ValueError:
            raise BundleError(f"{p}:{lineno}: malformed value {row[3]!r}") from None
    if not order:
        raise BundleError(f"{p}: no rows for type {type_name!r}")
    n = len(order)
    block = np.eye(n)
    for rid, cid, v in entries:
        i, j = seen[rid], seen[cid]
        block[i, j] = v
        block[j, i] = v
    return order, block


def save_factors(
    states: Mapping[str, FactoredSimilarity],
    network: HeteroNetwork,
    out_dir,
    seed: int,
    iterations: int,
) -> None:
    """Factored similarity container: manifest plus coordinate CSVs per type."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": seed, "iterations": iterations, "types": []}
    for t in network.types:
        f = states[t.name]
        u_name, d_name = f"U_{t.name}.csv", f"D_{t.name}.csv"
        manifest["types"].append(
            {"name": t.name, "n": t.size, "rank": f.rank, "u_csv": u_name, "d_csv": d_name}
        )
        with open(out / u_name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col", "value"])
            for i in range(f.n):
                for k in range(f.rank):
                    w.writerow([i, k, _FMT % f.U[i, k]])
        with open(out / d_name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "value"])
            for k in range(f.rank):
                w.writerow([k, _FMT % f.d[k]])
    with open(out / FACTORS_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_factors(in_dir) -> dict[str, FactoredSimilarity]:
    base = Path(in_dir)
    manifest_path = base / FACTORS_NAME
    manifest = _read_json(manifest_path)
    states = {}
    fields = ("name", "n", "rank", "u_csv", "d_csv")
    for tspec in _fields(manifest, manifest_path, "types")[0]:
        name, n, rank, u_csv, d_csv = _fields(tspec, manifest_path, *fields)
        # numpy rejects an index past the end but would wrap a negative one
        u = np.zeros((int(n), int(rank)))
        p = base / u_csv
        for lineno, row in _read_rows(p, ["row", "col", "value"]):
            try:
                i, k = int(row[0]), int(row[1])
                if i < 0 or k < 0:
                    raise IndexError
                u[i, k] = float(row[2])
            except (ValueError, IndexError):
                raise BundleError(f"{p}:{lineno}: malformed or out-of-range factor row") from None
        d = np.zeros(int(rank))
        p = base / d_csv
        for lineno, row in _read_rows(p, ["k", "value"]):
            try:
                if (k := int(row[0])) < 0:
                    raise IndexError
                d[k] = float(row[1])
            except (ValueError, IndexError):
                raise BundleError(f"{p}:{lineno}: malformed or out-of-range factor row") from None
        states[name] = FactoredSimilarity(u, d)
    return states


def save_points(points: PointCloud, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "x", "y"])
        for k, layer in enumerate(points.layers):
            for x, y in layer:
                w.writerow([k, _FMT % x, _FMT % y])


def load_points(path) -> PointCloud:
    p = Path(path)
    layers: dict[int, list[tuple[float, float]]] = {}
    for lineno, row in _read_rows(p, ["layer", "x", "y"]):
        try:
            layers.setdefault(int(row[0]), []).append((float(row[1]), float(row[2])))
        except ValueError:
            raise BundleError(f"{p}:{lineno}: malformed point row") from None
    if not layers:
        raise BundleError(f"{p}: no points")
    ordered = [np.asarray(layers[k], dtype=float) for k in sorted(layers)]
    return PointCloud(tuple(ordered))


# Two-stop linear color ramp for heatmaps (low -> high).
_RAMP_LOW = (247, 251, 255)
_RAMP_HIGH = (8, 48, 107)


def export_heatmap(matrix: np.ndarray, path, cell: int = 8) -> None:
    """Matrix heatmap as SVG: row/column order preserved, linear value ramp.

    Values map linearly from the matrix minimum (light) to the maximum
    (dark); a constant matrix renders entirely light.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("heatmap input must be 2-D")
    if not np.isfinite(m).all():
        raise ValueError("heatmap input must be finite")
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo
    rows, cols = m.shape
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
        f'height="{rows * cell}" viewBox="0 0 {cols * cell} {rows * cell}">\n'
        f"<!-- linear ramp: {lo:.6g} -> rgb{_RAMP_LOW}, {hi:.6g} -> rgb{_RAMP_HIGH} -->\n"
    ]
    for i in range(rows):
        for j in range(cols):
            frac = (m[i, j] - lo) / span if span > 0 else 0.0
            rgb = tuple(
                round(a + frac * (b - a)) for a, b in zip(_RAMP_LOW, _RAMP_HIGH)
            )
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({rgb[0]},{rgb[1]},{rgb[2]})"/>\n'
            )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
