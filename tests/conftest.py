"""Shared fixtures: small networks used across the suite."""

import numpy as np
import pytest

import hetsim
from hetsim.dense import coupling_plan
from hetsim.model import coupling_operators


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


def plan_for(network, weights):
    """The per-solve coupling plan that ``sweep`` and ``sweep_lowrank`` take."""
    return coupling_plan(network, weights, coupling_operators(network))
