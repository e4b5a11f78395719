"""Synthetic network generators and the triple-ordering quality metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EntityType, HeteroNetwork, NetworkError, Relation


@dataclass(frozen=True)
class RandomNetworkSpec:
    """Fully-connected typed network with uniformly sampled sparse relations."""

    k: int  # number of classes
    n: int  # upper bound on class size; actual sizes ~ U[n/2, n]
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least 2 classes")
        if self.n < 2:
            raise ValueError("need class size bound of at least 2")


def random_network(spec: RandomNetworkSpec) -> HeteroNetwork:
    """One relation per unordered class pair, 2*min(|t_i|, |t_j|) distinct edges.

    Sizes are drawn uniformly from [n/2, n]; edges uniformly without
    replacement over the index grid.  Deterministic given the seed.
    """
    rng = np.random.default_rng(spec.seed)
    sizes = rng.integers(spec.n // 2, spec.n + 1, size=spec.k)
    types = tuple(EntityType(f"c{i}", tuple(f"c{i}_{j}" for j in range(sizes[i])))
                  for i in range(spec.k))
    relations = []
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            si, sj = types[i].size, types[j].size
            m = 2 * min(si, sj)
            if m > si * sj:
                raise NetworkError(f"cannot place {m} distinct edges on a {si}x{sj} grid "
                                   f"(classes c{i}, c{j}); increase n")
            cells = rng.choice(si * sj, size=m, replace=False)
            rows, cols = np.divmod(cells, sj)
            relations.append(Relation(f"r_c{i}_c{j}", types[i], types[j], rows, cols))
    return HeteroNetwork(types, tuple(relations))


@dataclass(frozen=True)
class LayeredGraphSpec:
    """Layered random geometric graph on the unit square."""

    counts: tuple[int, ...]  # points per layer
    radius: float
    seed: int = 0

    def __post_init__(self):
        if len(self.counts) < 2:
            raise ValueError("need at least 2 layers")
        if any(c < 1 for c in self.counts):
            raise ValueError("every layer needs at least one point")
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class PointCloud:
    """Per-layer 2-D points in [0, 1]^2."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        for pts in self.layers:
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("layers must be (n, 2) arrays")
            if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
                raise ValueError("coordinates must lie in [0, 1]")


def layered_points_graph(
    spec: LayeredGraphSpec, points: PointCloud | None = None
) -> tuple[HeteroNetwork, PointCloud]:
    """Uniform points per layer; adjacent layers linked below the radius.

    Relation r_k connects layer k to layer k-1 wherever the Euclidean
    distance is strictly below the radius.  ``points`` overrides generation
    for fixed geometries.
    """
    if points is None:
        rng = np.random.default_rng(spec.seed)
        points = PointCloud(tuple(rng.uniform(0.0, 1.0, size=(c, 2)) for c in spec.counts))
    elif tuple(p.shape[0] for p in points.layers) != tuple(spec.counts):
        raise ValueError("point cloud does not match the layer counts")
    types = tuple(EntityType(f"layer{k}", tuple(f"p{k}_{i}" for i in range(c)))
                  for k, c in enumerate(spec.counts))
    relations = []
    for k in range(1, len(types)):
        dist = _distances(points.layers[k], points.layers[k - 1])
        ii, jj = np.nonzero(dist < spec.radius)
        relations.append(Relation(f"r{k}", types[k], types[k - 1], ii, jj))
    return HeteroNetwork(types, tuple(relations)), points


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-to-row Euclidean distances of (n, d) ``a`` and (m, d) ``b`` in cdist's
    bits: squared differences summed in coordinate order, then one sqrt."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        out += np.square(np.subtract.outer(a[:, k], b[:, k]))
    return np.sqrt(out, out=out)


def geometric_ground_truth(points: np.ndarray) -> np.ndarray:
    """Spatial similarity of one layer: negative Euclidean distance.

    Only the per-row ordering is consumed downstream, so any strictly
    decreasing function of distance is equivalent.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need an (n, d) array of at least 2 points")
    return -_distances(pts, pts)


def ordering_quality(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Fraction of ordered triples (a, b, c) with S_ab < S_ac and S^_ab < S^_ac.

    Literal triple count over all n^3 triples (self-pairs included), strict
    inequalities, divided by n^3.
    """
    s = np.asarray(s, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    if s.shape != s_hat.shape or s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("matrices must share an n x n shape")
    n = s.shape[0]
    if n < 2:
        raise ValueError("need at least 2 entities")
    total = 0
    for a in range(n):
        both = (s[a][:, None] < s[a][None, :]) & (s_hat[a][:, None] < s_hat[a][None, :])
        total += int(np.count_nonzero(both))
    return total / n**3


def layer_quality(points: PointCloud, blocks) -> list[float]:
    """Ordering quality per layer of a solved layered graph.

    ``blocks`` maps type names (``layer0``, ...) to dense similarity
    matrices; ground truth comes from the layer's coordinates.
    """
    out = []
    for k, pts in enumerate(points.layers):
        truth = geometric_ground_truth(pts)
        out.append(ordering_quality(truth, np.asarray(blocks[f"layer{k}"])))
    return out
