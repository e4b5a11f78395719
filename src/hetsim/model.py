"""Typed network data model, stochastic normalization and convergence checks.

A heterogeneous network is a set of entity types plus named directed
relations between type pairs.  Entities carry arbitrary string ids
externally and dense 0-based indices internally; the bijection is explicit
so that files and solver output stay aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # imported where operators are built, so readers never load scipy
    import scipy.sparse as sp

# A type's incident weights may sum above 1 by this much before the
# condition check flags it.
STOCHASTIC_TOL = 1e-12


class NetworkError(ValueError):
    """Malformed network definition (duplicate names, unknown ids, ...)."""


@dataclass(frozen=True)
class EntityType:
    """A named class of entities with an id <-> dense-index bijection."""

    name: str
    ids: tuple[str, ...]
    index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.ids:
            raise NetworkError(f"type {self.name!r} has no entities")
        idx = dict(zip(self.ids, range(len(self.ids))))
        if len(idx) != len(self.ids):
            raise NetworkError(f"type {self.name!r} has duplicate entity ids")
        object.__setattr__(self, "index", idx)

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Relation:
    """A named 0/1 relation between two entity types, stored as index pairs."""

    name: str
    src: EntityType
    dst: EntityType
    src_idx: np.ndarray = field(repr=False)
    dst_idx: np.ndarray = field(repr=False)

    def __post_init__(self):
        si = np.asarray(self.src_idx, dtype=np.int64)
        di = np.asarray(self.dst_idx, dtype=np.int64)
        if si.shape != di.shape or si.ndim != 1:
            raise NetworkError(f"relation {self.name!r}: malformed edge arrays")
        if si.size:
            if si.min() < 0 or si.max() >= self.src.size:
                raise NetworkError(f"relation {self.name!r}: src index out of range")
            if di.min() < 0 or di.max() >= self.dst.size:
                raise NetworkError(f"relation {self.name!r}: dst index out of range")
            keys = np.sort(si * self.dst.size + di)
            if (keys[1:] == keys[:-1]).any():
                raise NetworkError(f"relation {self.name!r}: duplicate edges")
        object.__setattr__(self, "src_idx", si)
        object.__setattr__(self, "dst_idx", di)

    @property
    def n_edges(self) -> int:
        return int(self.src_idx.size)


@dataclass(frozen=True)
class HeteroNetwork:
    """Validated collection of entity types and relations."""

    types: tuple[EntityType, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self):
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise NetworkError("duplicate type names")
        rnames = [r.name for r in self.relations]
        if len(set(rnames)) != len(rnames):
            raise NetworkError("duplicate relation names")
        registered = set(names)
        for r in self.relations:
            if r.src.name not in registered or r.dst.name not in registered:
                raise NetworkError(f"relation {r.name!r} references unknown type")

    def type(self, name: str) -> EntityType:
        for t in self.types:
            if t.name == name:
                return t
        raise NetworkError(f"unknown type {name!r}")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise NetworkError(f"unknown relation {name!r}")

    def incident(self, type_name: str) -> list[Relation]:
        """Relations touching a type in either role (self-relations once), by
        name, so no sum over a type's sides depends on listing order."""
        return sorted([r for r in self.relations if type_name in (r.src.name, r.dst.name)],
                      key=attrgetter("name"))


def build_network(
    type_specs: Sequence[tuple[str, Sequence[str]]],
    relation_specs: Sequence[tuple[str, str, str, Iterable[tuple[str, str]]]],
) -> HeteroNetwork:
    """Construct a validated network from entity-id and edge-id listings.

    ``type_specs``: (name, entity ids); ``relation_specs``:
    (name, src type, dst type, [(src id, dst id), ...]).  Index order
    follows listing order; an unknown id is named at its first edge.
    """
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
        edges = list(edges)
        try:
            si = positions([a for a, _ in edges], src.index)
            di = positions([b for _, b in edges], dst.index)
        except KeyError:
            bad = next(x for e in edges for x, t in zip(e, (src, dst)) if x not in t.index)
            raise NetworkError(f"relation {name!r}: unknown entity id {bad!r}") from None
        relations.append(Relation(name, src, dst, si, di))
    return HeteroNetwork(types, tuple(relations))


def positions(ids: Sequence[str], index: Mapping[str, int]) -> np.ndarray:
    """The index of each id; a KeyError names the first one ``index`` lacks."""
    return np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def column_stochastic(relation: Relation, direction: str) -> sp.csr_matrix:
    """Normalize a relation so that every nonempty column sums to 1, as CSR.

    ``forward`` aggregates dst -> src (shape |src| x |dst|); ``reverse`` the
    opposite.  Each column with k >= 1 incident edges gets entries 1/k; the
    sparsity pattern equals the relation's edge pattern, and columns with no
    edges stay all-zero (isolated entities); rows hold sorted column indices.
    """
    import scipy.sparse as sp
    if direction == "forward":
        rows, cols = relation.src_idx, relation.dst_idx
        shape = (relation.src.size, relation.dst.size)
    elif direction == "reverse":
        rows, cols = relation.dst_idx, relation.src_idx
        shape = (relation.dst.size, relation.src.size)
    else:
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    data = 1.0 / np.bincount(cols, minlength=shape[1])[cols]
    return sp.csr_matrix((data, cols, indptr), shape=shape)


@dataclass(frozen=True)
class WeightMatrix:
    """Per-type relation weights: (type name, relation name) -> weight.

    The weight of relation r in type t's update may differ from its weight
    in the partner's update; both sides are stored explicitly.
    """

    entries: dict[tuple[str, str], float]

    def __post_init__(self):
        for (t, r), w in self.entries.items():
            if not -np.inf < w < np.inf:  # NaN too: every comparison with it is false
                raise NetworkError(f"non-finite weight for ({t!r}, {r!r})")
            if w < 0:
                raise NetworkError(f"negative weight for ({t!r}, {r!r})")

    def weight(self, type_name: str, relation_name: str) -> float:
        return self.entries.get((type_name, relation_name), 0.0)

    def type_sum(self, network: HeteroNetwork, type_name: str) -> float:
        return sum(self.weight(type_name, r.name) for r in network.incident(type_name))


def default_weights(network: HeteroNetwork) -> WeightMatrix:
    """Uniform weights: each relation incident to t gets 1 / (#incident to t).

    Parallel relations between the same type pair count separately; isolated
    types get no entries.
    """
    entries: dict[tuple[str, str], float] = {}
    for t in network.types:
        incident = network.incident(t.name)
        if not incident:
            continue
        w = 1.0 / len(incident)
        for r in incident:
            entries[(t.name, r.name)] = w
    return WeightMatrix(entries)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the sufficient-condition checks; failing is a value, not an error."""

    overweight: tuple[str, ...]  # types whose incident weights sum above 1
    weight_sums: dict[str, float]
    lyapunov_bounds: dict[str, float]  # sum_r w_r * ||W_r||_1^2 per type

    @property
    def ok(self) -> bool:
        return not self.overweight


def coupling_operators(
    network: HeteroNetwork,
) -> dict[str, tuple[sp.csr_matrix, sp.csr_matrix]]:
    """Per relation: (forward, reverse) normalized operators as CSR."""
    return {
        r.name: (column_stochastic(r, "forward"), column_stochastic(r, "reverse"))
        for r in network.relations
    }


def check_weight_pairs(network: HeteroNetwork, weights: WeightMatrix) -> None:
    """Refuse, naming the first in sorted order, a weight entry whose type is
    not an end of its relation (an unknown type or relation included)."""
    ends = {(t.name, r.name) for r in network.relations for t in (r.src, r.dst)}
    if bad := sorted(weights.entries.keys() - ends):
        raise NetworkError(f"weight for type {bad[0][0]!r}: {bad[0][1]!r} is not its relation")


def check_convergence_conditions(network: HeteroNetwork, weights: WeightMatrix) -> ConditionReport:
    """Check the sufficient conditions for fixed-point convergence.

    Reports each type's incident weight sum, the types where it exceeds 1,
    and the damped contraction bound sum_r w_r * ||W_r||_1^2 per type.  The
    other condition, column-stochastic operators, holds by construction
    (``column_stochastic``), so it is read off the edges, not the operators:
    ||W||_1 is 1 for a relation with edges and 0 for an empty one, and the
    bound is the sum of w over the incident relations that have edges.
    Refuses a weight for a pair the network lacks (``check_weight_pairs``).
    """
    check_weight_pairs(network, weights)
    sums = {t.name: weights.type_sum(network, t.name) for t in network.types}
    over = tuple(name for name, s in sums.items() if s > 1.0 + STOCHASTIC_TOL)
    bounds = {
        name: sum((weights.weight(name, r.name) for r in network.incident(name) if r.n_edges), 0.0)
        for name in sums
    }
    return ConditionReport(over, sums, bounds)
