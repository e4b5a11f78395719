"""Scalable solver on factored similarity state S_t ~= I + U_t D_t U_t^T.

Each sweep assembles, per type, a matrix-free self-adjoint update operator
B M C^T less its exact diagonal, two sparse products per apply, and projects
it back to rank a_t with a randomized eigendecomposition.  Per solve, B comes
from the dense coupling plan, and C^T, the weight-only diagonal and each
type's Gaussian sketch are built once.  Queries evaluate the factored form
directly and never densify a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .dense import DivergenceError, SolveTrace, SolverConfig, checked_plan, iterate, update_order
from .model import HeteroNetwork, WeightMatrix


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
        return float(np.abs((self.U * self.d) * self.U).sum(axis=1).max(initial=0.0))


def similarity_query(state: FactoredSimilarity, a: int, b: int) -> float:
    """Exact evaluation of the factored form: delta_ab + U[a] D U[b]^T."""
    n = state.n
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"entity index out of range for block of size {n}")
    val = 1.0 if a == b else 0.0
    return val + float((state.U[a] * state.d) @ state.U[b])


def top_k(state: FactoredSimilarity, a: int, k: int) -> list[tuple[int, float]]:
    """k most similar entities to a (excluding a), ties broken by index."""
    n = state.n
    if not 0 <= a < n:
        raise IndexError(f"entity index out of range for block of size {n}")
    scores = state.U @ (state.U[a] * state.d)
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
    """Projection rank and randomized-decomposition knobs.

    ``rank`` is one integer rank for every type; ``update_plan`` clamps it
    to each block's size, and the oversampling to whatever room remains.
    """

    rank: int
    oversample: int = 10
    power: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.oversample < 0 or self.power < 0:
            raise ValueError("oversample and power must be nonnegative")
        if not isinstance(self.rank, (int, np.integer)) or self.rank < 1:
            raise ValueError(f"rank must be one integer of at least 1, got {self.rank!r}")


class UpdateOperator:
    """Matrix-free self-adjoint per-type update map, less its own diagonal.

    Applies x -> B M C^T x - diag(B M C^T) x, where B = [w_1 W_1 | ... |
    w_m W_m] is the type's entry of the dense coupling plan, C^T = [W_1 |
    ... | W_m]^T, and M = blockdiag(I + U_p D_p U_p^T) over the partners'
    factors: the sum over incident relations of w W (I + U_p D_p U_p^T) W^T,
    W oriented toward this type, with its exact diagonal removed.  Symmetric
    by construction.  An apply is two sparse products, counted in
    ``spmv_count``, plus O(n a) dense work.  ``entry`` is the type's
    ``update_plan`` entry, with the weight-only diagonal sum w * rownorm^2(W).
    """

    def __init__(self, entry, state: Mapping[str, FactoredSimilarity]):
        self.stacked, rows, self.stacked_t, self.base_diagonal = entry[:4]
        self.shape = (self.stacked.shape[0],) * 2
        # side: (weight, W, U_p, d_p, start, stop), start:stop its rows of C^T x
        self.sides = [
            (w, oper, state[p].U, state[p].d, start, stop) for w, oper, p, start, stop in rows
        ]
        self.spmv_count = 0
        self.shift = self.diagonal()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a vector or an (n, k) block."""
        block = x.reshape(self.shape[0], -1)
        y = self.stacked_t @ block
        for _, _, u_p, d_p, start, stop in self.sides:
            y[start:stop] += u_p @ (d_p[:, None] * (u_p.T @ y[start:stop]))
        self.spmv_count += 2
        return (self.stacked @ y - self.shift[:, None] * block).reshape(x.shape)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def diagonal(self) -> np.ndarray:
        """Exact diagonal of B M C^T: the weight-only part plus the factored
        middle term w * rownorm^2 of W U_p under D_p, per side."""
        diag = self.base_diagonal.copy()
        for w, oper, u_p, d_p, _, _ in self.sides:
            wu = oper @ u_p
            diag += w * ((wu * d_p) * wu).sum(axis=1)
        return diag


def build_update_operator(state: Mapping[str, FactoredSimilarity], entry) -> UpdateOperator:
    """Attach the partners' current factors to one type's update operator;
    ``entry`` is the type's entry of ``update_plan``."""
    return UpdateOperator(entry, state)


def randomized_eig(op, rank: int, sketch, power: int = 2):
    """Randomized eigendecomposition of a self-adjoint operator on its sketch.

    ``op`` is anything with a square ``shape`` and ``op @ block``: an ndarray
    or an ``UpdateOperator``.  The caller's ``sketch`` (n rows, at least
    ``rank`` columns) sets the range finder's width: ``op @ sketch`` and
    ``power`` extra passes, each re-orthonormalized, then an exact
    eigendecomposition of the projected matrix.  ``sketch=None`` asks for
    the exact decomposition of ``op`` itself, taken with one apply.  Keeps
    the ``rank`` eigenpairs largest in magnitude (negative eigenvalues
    included).  Draws nothing, so it is deterministic given its inputs.
    """
    n = op.shape[0]
    if op.shape != (n, n):
        raise ValueError("operator must be square")
    if sketch is not None and sketch.shape[0] != n:
        raise ValueError(f"sketch has {sketch.shape[0]} rows, the operator {n}")
    width = n if sketch is None else sketch.shape[1]
    if not 1 <= rank <= width <= n:
        raise ValueError(f"need 1 <= rank ({rank}) <= width ({width}) <= n ({n})")
    if sketch is None:  # the range is the whole space: Q = I
        q, b = None, op @ np.eye(n)
    else:
        q, _ = np.linalg.qr(op @ sketch)
        for _ in range(power):
            q, _ = np.linalg.qr(op @ q)
        b = q.T @ (op @ q)
    if not np.isfinite(b).all():
        raise DivergenceError("non-finite values in the projected operator")
    b = 0.5 * (b + b.T)
    lam, v = np.linalg.eigh(b)
    order = np.argsort(-np.abs(lam), kind="stable")[:rank]
    return (v[:, order] if q is None else q @ v[:, order]), lam[order]


def factored_residual(old: FactoredSimilarity, new: FactoredSimilarity) -> float:
    """Frobenius distance between two factored blocks without densifying.

    ``new.U`` must have orthonormal columns, as ``randomized_eig`` returns.
    With P = U'^T U, E = U - U' P and G = E^T E, || U' D' U'^T - U D U^T ||_F^2
    is ||D' - P D P^T||^2 + 2 <(P D) G, P D> + <G D, (G D)^T>: no term is a
    difference of large ones, so equal factor pairs read near 0."""
    p = new.U.T @ old.U
    e = old.U - new.U @ p
    g = e.T @ e
    pd, gd = p * old.d, g * old.d
    core = pd @ p.T
    core.flat[:: core.shape[0] + 1] -= new.d  # P D P^T - D'
    val = np.vdot(core, core) + 2 * np.vdot(pd @ g, pd) + np.vdot(gd, gd.T)
    return float(np.sqrt(max(val, 0.0)))


def _rng_for(seed: int, type_index: int):
    # Independent, seed-derived stream per type.  A solve draws each type's
    # sketch from it once and reuses that sketch on every sweep, so the solve
    # iterates one fixed deterministic truncated map; re-sketching per sweep
    # would keep re-sampling the discarded tail and the residual would jitter
    # at the truncation level forever.  A full-width type draws nothing.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(type_index,))
    )


def update_plan(network: HeteroNetwork, plan: dict, svd: SvdConfig) -> dict:
    """The low-rank solver's one per-solve table, built from
    ``dense.coupling_plan``'s result ``plan``.  Each type with a weighted
    relation side gets ``(B, rows, C^T, diagonal, rank, sketch)``: B and
    rows from ``plan``, C^T = [W_1 | ... | W_m]^T as CSR, the weight-only
    diagonal sum w * rownorm^2(W) (the diagonal of B C^T), the rank clamped
    to the block, and the Gaussian sketch of rank + oversample columns, or
    None (exact decomposition) when they would fill the block."""
    table = {}
    for ti, t in enumerate(network.types):
        stacked, rows = plan[t.name]
        if not rows:
            continue
        c = sp.hstack([oper for _, oper, *_ in rows], format="csr")
        rank = min(int(svd.rank), t.size)
        width = min(rank + svd.oversample, t.size)
        sketch = None
        if width < t.size:
            sketch = _rng_for(svd.seed, ti).standard_normal((t.size, width))
        diagonal = np.asarray(stacked.multiply(c).sum(axis=1)).ravel()
        table[t.name] = (stacked, rows, c.T.tocsr(), diagonal, rank, sketch)
    return table


def sweep_lowrank(
    network: HeteroNetwork, state: Mapping[str, FactoredSimilarity], table: dict, power: int
) -> dict[str, FactoredSimilarity]:
    """One Gauss-Seidel sweep in factored form, in ``dense.update_order``.

    Per type: assemble the update operator, less its exact diagonal, against
    the partners' newest factors and project it to its rank with ``power``
    passes.  The identity is re-added implicitly by the factored
    representation.  ``table`` is ``update_plan``'s result; a type absent
    there stays I.  ``state`` itself is left as it is.
    """
    new = dict(state)
    for t in update_order(network):
        if t.name not in table:
            new[t.name] = FactoredSimilarity.identity(t.size)
            continue
        entry = table[t.name]
        rank, sketch = entry[4:]
        op = build_update_operator(new, entry)
        u, d = randomized_eig(op, rank, sketch, power)
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
    table = update_plan(network, checked_plan(network, weights, check), svd)
    return iterate(
        {t.name: FactoredSimilarity.identity(t.size) for t in network.types},
        lambda state: sweep_lowrank(network, state, table, svd.power),
        lambda old, new: {name: factored_residual(old[name], new[name]) for name in old},
        config,
    )
