"""Scalable solver on factored similarity state S_t ~= I + U_t D_t U_t^T.

Each sweep assembles, per type, a matrix-free self-adjoint update operator
from the sparse normalized relations and the partners' factors, removes its
exact diagonal, and projects the result back to rank a_t with a randomized
eigendecomposition.  Queries evaluate the factored form directly and never
densify a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .dense import DivergenceError, SolveTrace, SolverConfig, _require_conditions, iterate
from .model import HeteroNetwork, WeightMatrix, coupling_operators, weighted_sides


@dataclass(frozen=True)
class FactoredSimilarity:
    """Rank-a factor pair (U, d) representing the block I + U diag(d) U^T."""

    U: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.d.ndim != 1 or self.U.shape[1] != self.d.size:
            raise ValueError("inconsistent factor shapes")

    @classmethod
    def identity(cls, n: int) -> "FactoredSimilarity":
        return cls(np.zeros((n, 0)), np.zeros(0))

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def rank(self) -> int:
        return int(self.d.size)

    def dense(self) -> np.ndarray:
        return np.eye(self.n) + (self.U * self.d) @ self.U.T

    def diagonal_drift(self) -> float:
        """Max deviation of the represented diagonal from 1 (diagnostic only)."""
        if self.rank == 0:
            return 0.0
        return float(np.abs((self.U * self.d) * self.U).sum(axis=1).max())


def similarity_query(state: FactoredSimilarity, a: int, b: int) -> float:
    """Exact evaluation of the factored form: delta_ab + U[a] D U[b]^T."""
    n = state.n
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"entity index out of range for block of size {n}")
    val = 1.0 if a == b else 0.0
    if state.rank:
        val += float((state.U[a] * state.d) @ state.U[b])
    return val


def top_k(state: FactoredSimilarity, a: int, k: int) -> list[tuple[int, float]]:
    """k most similar entities to a (excluding a), ties broken by index."""
    n = state.n
    if not 0 <= a < n:
        raise IndexError(f"entity index out of range for block of size {n}")
    scores = state.U @ (state.U[a] * state.d) if state.rank else np.zeros(n)
    return rank_others(scores, a, k)


def rank_others(scores: np.ndarray, a: int, k: int) -> list[tuple[int, float]]:
    """(index, score) of the k highest ``scores`` other than entry a, in
    descending order, ties broken by index."""
    if k < 1:
        raise ValueError("k must be at least 1")
    order = np.lexsort((np.arange(scores.size), -scores))
    return [(int(j), float(scores[j])) for j in order[order != a][:k]]


@dataclass(frozen=True)
class SvdConfig:
    """Projection ranks and randomized-decomposition knobs.

    ``rank`` is either one rank for every type or a per-type-name mapping;
    the effective rank is clamped to the block size, and the oversampling
    to whatever room remains.
    """

    rank: int | Mapping[str, int]
    oversample: int = 10
    power: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.oversample < 0 or self.power < 0:
            raise ValueError("oversample and power must be nonnegative")
        ranks = (
            self.rank.values() if isinstance(self.rank, Mapping) else [self.rank]
        )
        if any(r < 1 for r in ranks):
            raise ValueError("ranks must be at least 1")

    def rank_for(self, type_name: str, size: int) -> int:
        r = self.rank[type_name] if isinstance(self.rank, Mapping) else self.rank
        return min(int(r), size)


class UpdateOperator:
    """Matrix-free self-adjoint per-type update map.

    Applies x -> sum over incident relations of
    w * (W (W^T x) + W U_p diag(d_p) U_p^T (W^T x)), where W is the
    column-stochastic operator oriented toward this type and (U_p, d_p)
    are the partner's factors.  Symmetric by construction.  Cost per apply
    is O(nnz + n * a); ``spmv_count`` tracks sparse products for cost tests.
    ``base_diagonal`` is the factor-free part of the diagonal,
    sum w * rownorm^2(W).
    """

    def __init__(self, size: int, terms, base_diagonal: np.ndarray):
        self.shape = (size, size)
        # term: (weight, W csr (n x n_p), W^T csr, U_p, d_p)
        self.terms = terms
        self.base_diagonal = base_diagonal
        self.spmv_count = 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a vector or an (n, k) block."""
        out = np.zeros_like(x)
        for w, oper, oper_t, u_p, d_p in self.terms:
            y = oper_t @ x
            self.spmv_count += 1
            if d_p.size:
                g = u_p.T @ y
                y = y + u_p @ (d_p[:, None] * g if y.ndim == 2 else d_p * g)
            out += w * (oper @ y)
            self.spmv_count += 1
        return out

    def diagonal(self) -> np.ndarray:
        """Exact diagonal: squared row norms of W plus the factored middle term."""
        diag = self.base_diagonal.copy()
        for w, oper, _, u_p, d_p in self.terms:
            if d_p.size:
                wu = oper @ u_p
                diag += w * ((wu * d_p) * wu).sum(axis=1)
        return diag


class _DiagRemoved:
    """op - diag(op), still matrix-free."""

    def __init__(self, op: UpdateOperator, diag: np.ndarray):
        self.op = op
        self.diag = diag
        self.shape = op.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        shift = self.diag[:, None] * x if x.ndim == 2 else self.diag * x
        return self.op.apply(x) - shift


def update_constants(network: HeteroNetwork, weights: WeightMatrix, couplings=None) -> dict:
    """Per type, the parts of its update operator that depend on the network
    and weights alone, so that a solve builds them once: ``(terms, diagonal)``
    with terms ``(weight, W csr, W^T csr, partner name)`` and the weight-only
    diagonal sum w * rownorm^2(W).  ``couplings`` is ``coupling_operators``'
    result; built here when omitted."""
    if couplings is None:
        couplings = coupling_operators(network)
    out = {}
    for t in network.types:
        terms = []
        diag = np.zeros(t.size)
        for w, oper, partner in weighted_sides(network, weights, couplings, t.name):
            terms.append((w, oper, oper.T.tocsr(), partner))
            diag += w * np.asarray(oper.multiply(oper).sum(axis=1)).ravel()
        out[t.name] = (terms, diag)
    return out


def build_update_operator(
    network: HeteroNetwork,
    weights: WeightMatrix,
    state: Mapping[str, FactoredSimilarity],
    type_name: str,
    ops: dict | None = None,
) -> UpdateOperator:
    """Attach the partners' current factors to one type's update operator.

    ``ops`` is the result of ``update_constants``; built here when omitted.
    """
    if ops is None:
        ops = update_constants(network, weights)
    consts, diag = ops[type_name]
    terms = [
        (w, oper, oper_t, state[p].U, state[p].d) for w, oper, oper_t, p in consts
    ]
    return UpdateOperator(network.type(type_name).size, terms, diag)


def randomized_eig(op, rank: int, oversample: int = 10, power: int = 2, rng=None):
    """Randomized eigendecomposition of a self-adjoint operator.

    Gaussian sketch of size rank + oversample, ``power`` extra passes with
    re-orthonormalization, then an exact eigendecomposition of the projected
    matrix.  Keeps the ``rank`` eigenpairs largest in magnitude (negative
    eigenvalues included).  Deterministic given the generator.
    """
    if isinstance(op, np.ndarray):
        mat = op
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("dense operator must be square")
        apply_ = mat.__matmul__
        n = mat.shape[0]
    else:
        apply_ = op.apply
        n = op.shape[0]
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank + oversample > n:
        raise ValueError(
            f"rank + oversampling ({rank + oversample}) exceeds dimension ({n})"
        )
    rng = np.random.default_rng(rng)
    omega = rng.standard_normal((n, rank + oversample))
    q, _ = np.linalg.qr(apply_(omega))
    for _ in range(power):
        q, _ = np.linalg.qr(apply_(q))
    b = q.T @ apply_(q)
    if not np.isfinite(b).all():
        raise DivergenceError("non-finite values in the projected operator")
    b = 0.5 * (b + b.T)
    lam, v = np.linalg.eigh(b)
    order = np.argsort(-np.abs(lam), kind="stable")[:rank]
    return q @ v[:, order], lam[order]


def factored_residual(old: FactoredSimilarity, new: FactoredSimilarity) -> float:
    """Frobenius distance between two factored blocks without densifying.

    || U' D' U'^T - U D U^T ||_F via the Gram matrix of the stacked factors.
    """
    z = np.hstack([new.U, old.U])
    c = np.concatenate([new.d, -old.d])
    if c.size == 0:
        return 0.0
    g = z.T @ z
    val = float((np.outer(c, c) * g * g).sum())
    return float(np.sqrt(max(val, 0.0)))


def _rng_for(seed: int, type_index: int):
    # Independent, seed-derived stream per type.  The stream is the same on
    # every sweep, so each solve iterates one fixed deterministic truncated
    # map; re-sketching per sweep would keep re-sampling the discarded tail
    # and the residual would jitter at the truncation level forever.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(type_index,))
    )


def sweep_lowrank(
    network: HeteroNetwork,
    weights: WeightMatrix,
    state: Mapping[str, FactoredSimilarity],
    cfg: SvdConfig,
    ops: dict | None = None,
) -> dict[str, FactoredSimilarity]:
    """One Jacobi sweep in factored form.

    Per type: assemble the update operator against the previous factors,
    subtract its exact diagonal, and project to rank a_t.  The identity is
    re-added implicitly by the factored representation.  ``ops`` is the
    result of ``update_constants``; built here when omitted.
    """
    if ops is None:
        ops = update_constants(network, weights)
    new: dict[str, FactoredSimilarity] = {}
    for ti, t in enumerate(network.types):
        op = build_update_operator(network, weights, state, t.name, ops)
        if not op.terms:
            new[t.name] = FactoredSimilarity.identity(t.size)
            continue
        shifted = _DiagRemoved(op, op.diagonal())
        rank = cfg.rank_for(t.name, t.size)
        oversample = min(cfg.oversample, t.size - rank)
        u, d = randomized_eig(
            shifted, rank, oversample, cfg.power, _rng_for(cfg.seed, ti)
        )
        new[t.name] = FactoredSimilarity(u, d)
    return new


def solve_lowrank(
    network: HeteroNetwork,
    weights: WeightMatrix,
    config: SolverConfig | None = None,
    svd: SvdConfig | None = None,
    check: bool = True,
) -> tuple[dict[str, FactoredSimilarity], SolveTrace]:
    """Iterate factored sweeps from S = I; residuals stay in factored form."""
    config = config or SolverConfig()
    svd = svd or SvdConfig(rank=10)
    couplings = coupling_operators(network)
    _require_conditions(network, weights, check, couplings)
    ops = update_constants(network, weights, couplings)
    return iterate(
        {t.name: FactoredSimilarity.identity(t.size) for t in network.types},
        lambda state: sweep_lowrank(network, weights, state, svd, ops=ops),
        lambda old, new: {name: factored_residual(old[name], new[name]) for name in old},
        lambda state: all(
            np.isfinite(f.U).all() and np.isfinite(f.d).all() for f in state.values()
        ),
        config,
    )
