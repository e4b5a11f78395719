"""Shared fixtures: small networks used across the suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

import hetsim
from hetsim.model import EntityType, HeteroNetwork, NetworkError, Relation


@pytest.fixture
def toy_network():
    """Two types A = {a1, a2}, B = {b1}, one relation with both a's on b1."""
    return hetsim.build_network(
        [("A", ["a1", "a2"]), ("B", ["b1"])],
        [("r", "A", "B", [("a1", "b1"), ("a2", "b1")])],
    )


@pytest.fixture
def toy_weights(toy_network):
    return hetsim.default_weights(toy_network)


def single_type_graph(adjacency, name="T"):
    """Network with one type and one relation from a dense 0/1 adjacency."""
    a = np.asarray(adjacency)
    n = a.shape[0]
    ids = [f"v{i}" for i in range(n)]
    ii, jj = np.nonzero(a)
    edges = [(f"v{i}", f"v{j}") for i, j in zip(ii, jj)]
    return hetsim.build_network([(name, ids)], [("e", name, name, edges)])


def edge_ids(relation):
    """A relation's edges as (src id, dst id) pairs, in stored order."""
    return [(relation.src.ids[i], relation.dst.ids[j])
            for i, j in zip(relation.src_idx, relation.dst_idx)]


def build_network_loop(type_specs, relation_specs):
    """The per-edge ``build_network`` that the whole-array one replaced, kept
    as its oracle."""
    types = tuple(EntityType(name, tuple(ids)) for name, ids in type_specs)
    by_name = {t.name: t for t in types}
    if len(by_name) != len(types):
        raise NetworkError("duplicate type names")
    relations = []
    for name, src_name, dst_name, edges in relation_specs:
        if src_name not in by_name:
            raise NetworkError(f"relation {name!r}: unknown src type {src_name!r}")
        if dst_name not in by_name:
            raise NetworkError(f"relation {name!r}: unknown dst type {dst_name!r}")
        src, dst = by_name[src_name], by_name[dst_name]
        si, di = [], []
        for a, b in edges:
            if a not in src.index:
                raise NetworkError(f"relation {name!r}: unknown entity id {a!r}")
            if b not in dst.index:
                raise NetworkError(f"relation {name!r}: unknown entity id {b!r}")
            si.append(src.index[a])
            di.append(dst.index[b])
        relations.append(
            Relation(name, src, dst, np.asarray(si, np.int64), np.asarray(di, np.int64))
        )
    return HeteroNetwork(types, tuple(relations))


def assert_same_network(got, want):
    """Equal type names and ids, and equal relations: names, endpoint types,
    and edge index arrays with their dtype."""
    assert [(t.name, t.ids) for t in got.types] == [(t.name, t.ids) for t in want.types]
    assert len(got.relations) == len(want.relations)
    for a, b in zip(got.relations, want.relations):
        assert (a.name, a.src.name, a.dst.name) == (b.name, b.src.name, b.dst.name)
        for x, y in ((a.src_idx, b.src_idx), (a.dst_idx, b.dst_idx)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def outcome(build, *args):
    """``build(*args)``, or the type and message of the error it raises."""
    try:
        return build(*args)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


@st.composite
def networks_relations_weights(draw):
    """1-3 types of 1-6 entities, 0-5 relations between drawn types (self-
    relations allowed) on drawn edge subsets (empty ones and isolated columns
    included), and weights that are zero, ordinary or overweight.  The last
    type's weights are all zero, so it has no weighted side."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    types = [(f"t{i}", [f"t{i}e{j}" for j in range(n)]) for i, n in enumerate(sizes)]
    relations = []
    for k in range(draw(st.integers(0, 5))):
        a, b = draw(st.integers(0, len(sizes) - 1)), draw(st.integers(0, len(sizes) - 1))
        pairs = [(i, j) for i in range(sizes[a]) for j in range(sizes[b])]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        relations.append((f"r{k}", f"t{a}", f"t{b}",
                          [(f"t{a}e{i}", f"t{b}e{j}") for i, j in edges]))
    net = hetsim.build_network(types, relations)
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
    entries = {
        (t.name, r.name): 0.0 if t is net.types[-1] else draw(weight)
        for t in net.types for r in net.incident(t.name)
    }
    return net, hetsim.WeightMatrix(entries)
