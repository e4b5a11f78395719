"""File formats: network bundles, similarity dumps, factors, points, heatmaps.

All text formats are UTF-8 CSV with a header row; the bundle schema is one
JSON document naming the per-type entity files and per-relation edge files.
Values are written with 17 significant digits so doubles round-trip exactly.

Every file is written and read in whole-array passes, with the bytes and
error messages of a row-by-row ``csv`` loop: ids are quoted by the ``csv``
module and values are formatted with ``%.17g``.  Each format's checks are
written once, in a ``read(chunks)`` fold that ``_read`` runs over the file;
on a fault, ``_refused`` runs the same ``read`` once more, over one-row
chunks, to name the line.  One similarity block is read from a plain file
without csv (``_plain_lines``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, NoReturn

import numpy as np

from .dense import SimilaritySet, SolveTrace
from .lowrank import FactoredSimilarity
from .model import EntityType, HeteroNetwork, NetworkError, Relation, WeightMatrix, positions
from .synth import PointCloud

SCHEMA_NAME = "schema.json"
FACTORS_NAME = "factors.json"

_FMT = "%.17g"
_SIM_HEADER = ["type", "row_id", "col_id", "value"]
# CSV records read per pass of the streaming readers: bounds the rows held at once.
_CHUNK_ROWS = 1 << 11
# Bytes read per pass of the plain similarity reader (``_plain_lines``).
_CHUNK_BYTES = 1 << 18


class BundleError(ValueError):
    """Missing files, unknown ids, or malformed rows (reported with line numbers)."""


class _Malformed(Exception):
    """A fault met by a ``read`` fold, its message that of a one-row chunk."""


class _NotPlain(Exception):
    """A similarity CSV that only csv reads exactly (see ``_plain_lines``)."""


@contextmanager
def _csv_body(path: Path, expected_header: list[str]):
    """A csv reader over the rows of ``path`` after its checked header."""
    if not path.is_file():
        raise BundleError(f"missing file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise BundleError(f"{path}: empty file")
            if header != expected_header:
                raise BundleError(
                    f"{path}:1: expected header {','.join(expected_header)!r}"
                )
            yield reader
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise BundleError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise BundleError(f"{path}: invalid UTF-8 ({exc.reason})") from None


def _row_chunks(path: Path, expected_header: list[str]):
    """The non-blank rows after the header, streamed in non-empty lists; a row
    with the wrong field count raises ``_Malformed``."""
    width = len(expected_header)
    with _csv_body(path, expected_header) as reader:
        while True:
            start = reader.line_num
            rows = list(islice(reader, _CHUNK_ROWS))
            if reader.line_num == start:  # end of file
                return
            if set(map(len, rows)) - {width}:
                rows = [r for r in rows if r]  # blank lines are skipped
                if set(map(len, rows)) - {width}:
                    raise _Malformed
            if rows:
                yield rows


def _read(path: Path, header: list[str], read, repeated: str | None = None):
    """``read`` of the row chunks of ``path``; on a fault (``_Malformed``, or a
    ``NetworkError`` from what it builds), ``_refused`` names the line."""
    try:
        return read(_row_chunks(path, header))
    except (_Malformed, NetworkError):
        _refused(path, header, read, repeated)


def _refused(path: Path, header: list[str], read, repeated: str | None = None) -> NoReturn:
    """The first fault of ``path``, named with the line of the row where ``read``
    stops when run once more over one-row chunks that refuse a wrong field count
    and, if given, a row equal to an earlier one (``repeated.format(*row)``)."""
    line, seen = 1, set()

    def rows(reader):
        nonlocal line
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise _Malformed(f"expected {len(header)} fields")
            if repeated is not None:
                if tuple(row) in seen:
                    raise _Malformed(repeated.format(*row))
                seen.add(tuple(row))
            yield [row]

    with _csv_body(path, header) as reader:
        try:
            read(rows(reader))
        except _Malformed as exc:
            raise BundleError(f"{path}:{line}: {exc}") from None
    raise BundleError(f"{path}: unreadable rows")


def _numbers(fields: tuple[str, ...], message: str, dtype=float) -> np.ndarray:
    """``float()``, or ``int()`` within ``dtype``'s range, of each field:
    numpy parses a ``str`` as Python does.  A non-finite value (``nan``,
    ``inf``, or a float past the double range) is malformed too, and any
    malformed field raises ``_Malformed(message)``."""
    try:
        out = np.array(fields, dtype=dtype)
    except (ValueError, OverflowError):
        raise _Malformed(message) from None
    if not np.isfinite(out).all():
        raise _Malformed(message)
    return out


def _put(target: np.ndarray, flat: np.ndarray, values: np.ndarray) -> None:
    """``target.flat[flat] = values`` for a C-contiguous ``target``, the last
    of repeated positions winning as in a row-by-row loop."""
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    target.reshape(-1)[flat[last]] = values[last]


def _put_symmetric(block: np.ndarray, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> None:
    """``block[i, j] = block[j, i] = value``, row after row, each pair placed once."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    _put(block, lo * block.shape[1] + hi, values)
    block[hi, lo] = block[lo, hi]


def _quoted(fields) -> list[str]:
    """Each field as ``csv.writer`` writes it within a row (QUOTE_MINIMAL)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for field in fields:
        buf.seek(0)
        buf.truncate()
        writer.writerow([field, ""])  # alone, an empty field would be written as ""
        out.append(buf.getvalue()[: -len(",\r\n")])
    return out


def _csv_text(row_format: str, *columns: list) -> str:
    """One ``row_format`` line per row, filled with that row's item of each
    column, in a single ``%`` pass."""
    rows = len(columns[0])
    args = [None] * (len(columns) * rows)
    for c, column in enumerate(columns):
        args[c :: len(columns)] = column
    return row_format * rows % tuple(args)


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


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_weight(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value) and value >= 0
    except (TypeError, OverflowError):  # not a number, or an int past float range
        return False


_STRING = (lambda v: isinstance(v, str), "a string")
_LIST = (lambda v: isinstance(v, list), "a list")
# What each schema or manifest key holds; every other key holds a string.
_KINDS = {
    "types": _LIST, "relations": _LIST, "weights": _LIST, "rank": (_is_count, "an integer >= 0"),
    "n": (lambda v: _is_count(v) and v >= 1, "an integer >= 1"),
    "weight": (_is_weight, "a finite number >= 0"),
}


def _fields(entry, path: Path, *keys: str) -> list:
    """Required keys of one schema or manifest entry, in order, each checked
    for its JSON type."""
    missing = [k for k in keys if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise BundleError(f"{path}: entry {entry!r} lacks {', '.join(missing)}")
    values = [entry[k] for k in keys]
    for key, value in zip(keys, values):
        holds, kind = _KINDS.get(key, _STRING)
        if not holds(value):
            raise BundleError(
                f"{path}: entry {entry!r} has {key} {value!r}, which is not {kind}"
            )
    return values


def _named(entries: list, path: Path, kind: str, *keys: str) -> list[list]:
    """``_fields`` of each schema or manifest entry, names (the first key) distinct."""
    out = [_fields(e, path, *keys) for e in entries]
    if len({e[0] for e in out}) != len(out):
        raise BundleError(f"{path}: duplicate {kind} names")
    return out


def save_network(
    network: HeteroNetwork, bundle_dir, weights: WeightMatrix | None = None
) -> None:
    """Write schema.json plus one entities CSV per type and one edges CSV per relation."""
    bundle = Path(bundle_dir)
    bundle.mkdir(parents=True, exist_ok=True)
    schema = {"types": [], "relations": []}
    quoted = {}
    for t in network.types:
        fname = f"entities_{t.name}.csv"
        schema["types"].append({"name": t.name, "entities_csv": fname})
        quoted[t.name] = np.array(_quoted(t.ids), dtype=object)
        # A row of one empty field is written as "", or it would read as a blank line.
        rows = [q or '""' for q in quoted[t.name].tolist()]
        (bundle / fname).write_text("id\r\n" + _csv_text("%s\r\n", rows), "utf-8", newline="")
    for r in network.relations:
        fname = f"edges_{r.name}.csv"
        schema["relations"].append(
            {"name": r.name, "src": r.src.name, "dst": r.dst.name, "edges_csv": fname}
        )
        src, dst = quoted[r.src.name][r.src_idx].tolist(), quoted[r.dst.name][r.dst_idx].tolist()
        (bundle / fname).write_text(
            "src_id,dst_id\r\n" + _csv_text("%s,%s\r\n", src, dst), "utf-8", newline=""
        )
    if weights is not None:
        schema["weights"] = []
        for (t, r), w in sorted(weights.entries.items()):
            rel = network.relation(r)
            partner = rel.dst.name if rel.src.name == t else rel.src.name
            schema["weights"].append({"type": t, "partner": partner, "relation": r, "weight": w})
    (bundle / SCHEMA_NAME).write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n", "utf-8")


def _entity_type(name: str, path: Path) -> EntityType:
    """A type from its entity file, ids in row order."""

    def read(chunks):
        ids = tuple(r[0] for rows in chunks for r in rows)
        if not ids:
            raise BundleError(f"{path}: type {name!r} has no entities")
        return EntityType(name, ids)

    return _read(path, ["id"], read, repeated="duplicate id {0!r}")


def _relation(name: str, src: EntityType, dst: EntityType, path: Path) -> Relation:
    """A relation from its edge file, each endpoint column of a chunk mapped at once."""

    def read(chunks):
        a, b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for rows in chunks:
            for t, side, found in ((src, 0, a), (dst, 1, b)):
                try:
                    found.append(positions([r[side] for r in rows], t.index))
                except KeyError as exc:
                    raise _Malformed(f"unknown {t.name} id {exc.args[0]!r}") from None
        return Relation(name, src, dst, np.concatenate(a), np.concatenate(b))

    return _read(path, ["src_id", "dst_id"], read, repeated="duplicate edge {0!r} -> {1!r}")


def _schema(bundle: Path) -> tuple[dict[str, str], list[list], list[list] | None]:
    """schema.json's entries, each checked for its keys and their JSON types:
    entity files by type name, relations as [name, src, dst, edges_csv] and
    weights as [type, relation, weight] (None without a weights section).
    Names are checked distinct and relation types declared; a weight names a
    type, a relation incident to it (once) and any ``partner`` at its other end."""
    path = bundle / SCHEMA_NAME
    schema = _read_json(path)
    # A schema without types or relations has none.
    type_entries, relation_entries = _fields(
        {"types": [], "relations": [], **schema}, path, "types", "relations"
    )
    types = _named(type_entries, path, "type", "name", "entities_csv")
    relations = _named(relation_entries, path, "relation", "name", "src", "dst", "edges_csv")
    type_files = dict(types)
    for name, src, dst, _ in relations:
        if src not in type_files or dst not in type_files:
            raise BundleError(f"{path}: relation {name!r} references unknown type")
    if "weights" not in schema:
        return type_files, relations, None
    entries = _fields(schema, path, "weights")[0]
    weights = [_fields(e, path, "type", "relation", "weight") for e in entries]
    incident, seen = {name: (src, dst) for name, src, dst, _ in relations}, set()
    for entry, (t, r, _) in zip(entries, weights):
        if t not in incident.get(r, ()):  # an unknown type touches no relation
            raise BundleError(f"{path}: weight for type {t!r}: {r!r} is not its relation")
        other = incident[r][t == incident[r][0]]  # r's other end; t itself across t -> t
        if entry.get("partner", other) != other:
            raise BundleError(
                f"{path}: weight for type {t!r}, relation {r!r}: partner is not {other!r}")
        if (t, r) in seen:
            raise BundleError(f"{path}: duplicate weight for type {t!r}, relation {r!r}")
        seen.add((t, r))
    return type_files, relations, weights


def load_network(bundle_dir) -> tuple[HeteroNetwork, WeightMatrix | None]:
    """Load a bundle; index order is file row order, so loading is order-stable."""
    bundle = Path(bundle_dir)
    type_files, relation_entries, weight_entries = _schema(bundle)
    types = {name: _entity_type(name, bundle / f) for name, f in type_files.items()}
    relations = tuple(_relation(name, types[src], types[dst], bundle / edges_csv)
                      for name, src, dst, edges_csv in relation_entries)
    network = HeteroNetwork(tuple(types.values()), relations)
    if weight_entries is None:
        return network, None
    return network, WeightMatrix({(t, r): float(w) for t, r, w in weight_entries})


def load_entity_type(bundle_dir, name: str) -> EntityType:
    """One type of a bundle, from its whole checked schema and its entity file alone."""
    bundle = Path(bundle_dir)
    type_files = _schema(bundle)[0]
    if name not in type_files:
        raise NetworkError(f"unknown type {name!r}")
    return _entity_type(name, bundle / type_files[name])


def save_similarity(state: SimilaritySet, network: HeteroNetwork, path) -> None:
    """Dense similarity as CSV (upper triangle, diagonal included)."""
    for name, block in state.blocks.items():
        if not np.isfinite(block).all():
            raise ValueError(f"non-finite similarity values in type {name!r}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_SIM_HEADER) + "\r\n")
        for t in network.types:
            rows, cols = np.triu_indices(t.size)
            ids = np.array(_quoted(t.ids), dtype=object)
            row_format = _quoted([t.name])[0].replace("%", "%%") + f",%s,%s,{_FMT}\r\n"
            fh.write(_csv_text(
                row_format,
                ids[rows].tolist(), ids[cols].tolist(),
                state.blocks[t.name][rows, cols].tolist(),
            ))


def save_trace(trace: SolveTrace, path) -> None:
    """A solve's trace as CSV: iteration, residual and wall seconds per sweep."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("iteration,residual,seconds\r\n" + _csv_text(
        f"%d,{_FMT},{_FMT}\r\n", list(range(1, trace.iterations + 1)), trace.residuals,
        trace.seconds,
    ), "utf-8", newline="")


def load_similarity(path, network: HeteroNetwork) -> SimilaritySet:
    """Every block of ``network`` from a similarity CSV that has rows for each:
    unit diagonal, each row setting its cell and the mirrored one, later rows winning."""
    blocks = {t.name: np.eye(t.size) for t in network.types}
    types = {t.name: t for t in network.types}
    unseen = dict.fromkeys(types)  # in network order

    def read(chunks):
        for rows in chunks:
            for tname in {r[0] for r in rows}:
                if tname not in types:
                    raise _Malformed(f"unknown type {tname!r}")
                unseen.pop(tname, None)
                index = types[tname].index
                _, rids, cids, values = zip(*(r for r in rows if r[0] == tname))
                try:
                    i, j = positions(rids, index), positions(cids, index)
                except KeyError:
                    raise _Malformed("unknown entity id") from None
                _put_symmetric(blocks[tname], i, j,
                               _numbers(values, f"malformed value {values[0]!r}"))

    _read(Path(path), _SIM_HEADER, read)
    if unseen:
        raise BundleError(f"{Path(path)}: no rows for type {next(iter(unseen))!r}")
    return SimilaritySet(blocks)


def _plain_lines(path: Path, type_name: str) -> list[bytes]:
    """The row id, column id and value of each of ``type_name``'s lines in a
    similarity CSV, found without csv: per piece of the file, those fields of
    its lines of the type, joined by commas.

    That split is csv's parse, and every row is still checked, in a plain
    file: the exact header, no ``"``, every ``\\r`` in a ``\\r\\n``, valid
    UTF-8, no line over ``csv.field_size_limit()``, and 3 commas on every
    non-blank line.  Any other file, or a type name holding ``,``, ``"``,
    ``\\r`` or ``\\n``, raises ``_NotPlain``.
    """
    if not path.is_file() or any(c in type_name for c in ',"\r\n'):
        raise _NotPlain
    # A lone surrogate is encoded to bytes that no valid UTF-8 file holds.
    prefix = (type_name + ",").encode("utf-8", "surrogatepass")
    header = ",".join(_SIM_HEADER).encode()
    limit, found = csv.field_size_limit(), []
    with open(path, "rb") as fh:
        if fh.readline(len(header) + 2) not in (header, header + b"\n", header + b"\r\n"):
            raise _NotPlain
        # Pieces of whole lines: a chunk, then the rest of its last line.
        while piece := fh.read(_CHUNK_BYTES) + fh.readline(limit):
            if not piece.endswith(b"\n"):  # the last line, or one over the limit
                if piece.endswith(b"\r") or fh.read(1):
                    raise _NotPlain
                piece += b"\n"
            a = np.frombuffer(piece, np.uint8)
            ends = np.flatnonzero(a == ord("\n"))
            starts = np.concatenate(([0], ends[:-1] + 1))
            crlf = a[ends - 1] == ord("\r")  # a[-1] is a newline
            filled = ends - starts != crlf
            commas = np.flatnonzero(a == ord(","))
            if (b'"' in piece or np.count_nonzero(a == ord("\r")) != crlf.sum()
                    or (ends - starts).max() > limit
                    # The commas, in order, fall three to each non-blank line.
                    or commas.size != 3 * filled.sum()
                    or (commas[0::3] < starts[filled]).any()
                    or (commas[2::3] >= ends[filled]).any()):
                raise _NotPlain
            try:
                piece.decode()
            except UnicodeDecodeError:
                raise _NotPlain from None
            keep = filled.copy()  # the type's lines
            for j, byte in enumerate(prefix):  # no line ends before a mismatch
                keep[keep] = a[starts[keep] + j] == byte
            if keep.any():  # one byte mask: their fields and newlines, less any \r
                mask = np.repeat(keep, np.diff(ends, prepend=-1))
                mask[starts[keep, None] + np.arange(len(prefix))] = False
                mask[ends[keep & crlf] - 1] = False
                fields = a[mask]
                fields[fields == ord("\n")] = ord(",")
                found.append(fields[:-1].tobytes())
    return found


def read_similarity_block(path, type_name: str) -> tuple[list[str], np.ndarray]:
    """One block from a similarity CSV without the originating network.

    Ids are taken in first-appearance order, which matches entity file order
    for upper-triangle dumps.
    """
    p = Path(path)
    seen: dict[str, int] = {}

    def block(parts):
        """Cell positions and values of (row ids, column ids, values) triples."""
        cells = []
        for rids, cids, values in parts:
            values = _numbers(values, f"malformed value {values[0]!r}")
            for eid in dict.fromkeys(chain.from_iterable(zip(rids, cids))):
                seen.setdefault(eid, len(seen))
            cells.append((positions(rids, seen), positions(cids, seen), values))
        return cells

    def read(chunks):
        """``block`` of the type's rows in csv's row chunks."""
        typed = ([r for r in rows if r[0] == type_name] for rows in chunks)
        return block(tuple(zip(*rows))[1:] for rows in typed if rows)

    try:  # _plain_lines runs, and may raise _NotPlain, before block
        fields = (piece.decode().split(",") for piece in _plain_lines(p, type_name))
        cells = block((f[0::3], f[1::3], f[2::3]) for f in fields)
    except _NotPlain:
        cells = _read(p, _SIM_HEADER, read)
    except _Malformed:
        _refused(p, _SIM_HEADER, read)
    if not seen:
        raise BundleError(f"{p}: no rows for type {type_name!r}")
    out = np.eye(len(seen))
    _put_symmetric(out, *(np.concatenate(c) for c in zip(*cells)))
    return list(seen), out


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
        rows, cols = np.indices(f.U.shape).reshape(2, -1)
        (out / u_name).write_text("row,col,value\r\n" + _csv_text(
            f"%d,%d,{_FMT}\r\n", rows.tolist(), cols.tolist(), f.U.ravel().tolist()
        ), "utf-8", newline="")
        (out / d_name).write_text("k,value\r\n" + _csv_text(
            f"%d,{_FMT}\r\n", list(range(f.rank)), f.d.tolist()
        ), "utf-8", newline="")
    (out / FACTORS_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")


def _read_factor(path: Path, header: list[str], shape: tuple[int, ...]) -> np.ndarray:
    """An array from its coordinate CSV, a row per entry: its indices, then its value."""
    # The shape comes from the manifest: before allocating it, check that the
    # file can hold a row per entry, each at least two bytes per field.
    if path.is_file() and 2 * (len(shape) + 1) * math.prod(shape) > path.stat().st_size:
        raise BundleError(f"{path}: shape {shape} needs more rows than the file holds")
    out, seen = np.zeros(shape), np.zeros(math.prod(shape), dtype=bool)
    message = "malformed or out-of-range factor row"

    def read(chunks):
        for rows in chunks:
            *indices, values = zip(*rows)
            try:
                flat = np.ravel_multi_index(  # rejects negative indices too
                    [np.array(i, dtype=np.intp) for i in indices], shape
                )
            except (ValueError, OverflowError):
                raise _Malformed(message) from None
            _put(out, flat, _numbers(values, message))
            seen[flat] = True

    _read(path, header, read)
    if not seen.all():
        raise BundleError(f"{path}: no row for {seen.size - seen.sum()} of {seen.size} entries")
    return out


def load_factors(in_dir, only: str | None = None) -> dict[str, FactoredSimilarity]:
    """Factors by type name.  With ``only``, every manifest entry is checked but
    only that type's files are read, and the result holds that type if listed."""
    base = Path(in_dir)
    manifest_path = base / FACTORS_NAME
    manifest = _read_json(manifest_path)
    fields = ("name", "n", "rank", "u_csv", "d_csv")
    types = _fields(manifest, manifest_path, "types")[0]
    states = {}
    for name, n, rank, u_csv, d_csv in _named(types, manifest_path, "type", *fields):
        if only is not None and name != only:
            continue
        u = _read_factor(base / u_csv, ["row", "col", "value"], (n, rank))
        d = _read_factor(base / d_csv, ["k", "value"], (rank,))
        states[name] = FactoredSimilarity(u, d)
    return states


def save_points(points: PointCloud, path) -> None:
    """Points as CSV: one ``layer,x,y`` row per point, layer by layer."""
    sizes = [len(layer) for layer in points.layers]
    x, y = np.concatenate([*points.layers, np.empty((0, 2))]).T.tolist()
    Path(path).write_text("layer,x,y\r\n" + _csv_text(
        f"%d,{_FMT},{_FMT}\r\n", np.repeat(np.arange(len(sizes)), sizes).tolist(), x, y
    ), "utf-8", newline="")


def load_points(path) -> PointCloud:
    """A point cloud from its CSV: layer k holds the points, in [0, 1]^2 and in
    row order, of the rows numbered k, which must run from 0 with no gap."""
    p, message = Path(path), "malformed point row"

    def read(chunks):
        parts = [(np.empty(0, np.int64), np.empty((0, 2)))]
        for rows in chunks:
            k, x, y = zip(*rows)
            layer = _numbers(k, message, np.int64)
            if (layer < 0).any():
                raise _Malformed("negative layer number")
            xy = np.column_stack([_numbers(x, message), _numbers(y, message)])
            if ((xy < 0.0) | (xy > 1.0)).any():
                raise _Malformed("coordinates must lie in [0, 1]")
            parts.append((layer, xy))
        return parts

    layer, xy = (np.concatenate(c) for c in zip(*_read(p, ["layer", "x", "y"], read)))
    order = np.argsort(layer, kind="stable")  # by layer, in row order within one
    numbers, starts = np.unique(layer[order], return_index=True)  # 0 .. n-1, or one is missing
    missing = np.setdiff1d(np.arange(max(len(numbers), 1)), numbers)
    if missing.size:
        raise BundleError(f"{p}: no points in layer {missing[0]}")
    return PointCloud(tuple(np.split(xy[order], starts[1:])))


# Two-stop linear color ramp for heatmaps (low -> high).
_RAMP_LOW = (247, 251, 255)
_RAMP_HIGH = (8, 48, 107)


def export_heatmap(matrix: np.ndarray, path, cell: int = 8) -> None:
    """Matrix heatmap as SVG: row/column order preserved, linear value ramp.

    Values map linearly from the matrix minimum (light) to the maximum
    (dark); a constant matrix renders entirely light.  Each channel is
    ``low + frac * (high - low)`` rounded half to even.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("heatmap input must be 2-D")
    if not np.isfinite(m).all():
        raise ValueError("heatmap input must be finite")
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo
    rows, cols = m.shape
    with np.errstate(over="ignore", invalid="ignore"):
        frac = (m - lo) / span if span > 0 else np.zeros_like(m)
    if not np.isfinite(frac).all():  # the value range overflows a double
        raise ValueError("heatmap value range is not finite")
    r, g, b = (
        np.rint(low + frac * (high - low)).astype(np.int64)
        for low, high in zip(_RAMP_LOW, _RAMP_HIGH)
    )
    colors, cell_color = np.unique((r << 16) | (g << 8) | b, return_inverse=True)
    fills = np.array([f'fill="rgb({c >> 16},{c >> 8 & 255},{c & 255})"/>\n'
                      for c in colors.tolist()], dtype=object)
    # Each cell's x string, then its y and fill strings, set row by row.
    row = [f'<rect x="{j * cell}" y="' for j in range(cols) for _ in range(3)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
            f'height="{rows * cell}" viewBox="0 0 {cols * cell} {rows * cell}">\n'
            f"<!-- linear ramp: {lo:.6g} -> rgb{_RAMP_LOW}, {hi:.6g} -> rgb{_RAMP_HIGH} -->\n"
        )
        for i, row_fills in enumerate(fills[cell_color.reshape(rows, cols)]):
            row[1::3] = [f'{i * cell}" width="{cell}" height="{cell}" '] * cols
            row[2::3] = row_fills.tolist()
            fh.write("".join(row))
        fh.write("</svg>\n")
