"""Scalable solver on factored similarity state S_t ~= I + U_t D_t U_t^T.

Each sweep assembles, per type, a matrix-free self-adjoint update operator
B M C^T less its exact diagonal and projects it back to rank a_t: a
randomized eigendecomposition, exact (of the operator applied to I) when
the sketch would fill the block.  Per solve, C^T, the weight-only
diagonal and each Gaussian sketch are built once; B comes from the dense
coupling plan.  From its sixth sweep on, a solve Anderson-mixes the sweep
inputs from its last few factored images, re-truncated to each type's
rank, and still stops on a plain image.  Queries evaluate the factored
form directly and never densify a block.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dense import (DivergenceError, SolveTrace, SolverConfig, check_field, checked_plan,
                    iterate, update_order)
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

    rank: int = 10
    oversample: int = 10
    power: int = 2
    seed: int = 0

    def __post_init__(self):
        for name, least in (("rank", 1), ("oversample", 0), ("power", 0), ("seed", 0)):
            check_field(name, getattr(self, name), numbers.Integral, least - 1,
                        f"one integer of at least {least}")


class UpdateOperator:
    """Matrix-free self-adjoint per-type update map, less its own diagonal.

    Applies x -> B M C^T x - diag(B M C^T) x, where B = [w_1 W_1 | ... |
    w_m W_m] is the type's entry of the dense coupling plan, C^T = [W_1 |
    ... | W_m]^T, and M = blockdiag(I + U_p D_p U_p^T) over the partners'
    factors: the sum over incident relations of w W (I + U_p D_p U_p^T) W^T,
    W oriented toward this type, with its exact diagonal removed.  Symmetric
    by construction.

    An apply is the weight-only part B C^T x, two sparse products, plus
    V G V^T x, with V = [W_1 U_1 | ... | W_m U_m] formed once per operator
    in m sparse products and G = diag(w_i d_i), less the diagonal times x.
    ``spmv_count`` counts every sparse product: m, then two per apply.
    ``entry`` is the type's ``update_plan`` entry.
    """

    def __init__(self, entry, state: Mapping[str, FactoredSimilarity]):
        self.stacked, rows, self.stacked_t, self.base_diagonal = entry[:4]
        self.shape = (self.stacked.shape[0],) * 2
        self.v = np.hstack([oper @ state[p].U for _, oper, p, _, _ in rows])
        self.vg = self.v * np.concatenate([w * state[p].d for w, _, p, _, _ in rows])
        self.spmv_count = len(rows)  # the products W_i U_i that form V
        self.shift = self.diagonal()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a vector or an (n, k) block."""
        block = x.reshape(self.shape[0], -1)
        out = self.vg @ (self.v.T @ block)
        out += self.stacked @ (self.stacked_t @ block)
        out -= self.shift[:, None] * block
        self.spmv_count += 2
        return out.reshape(x.shape)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def diagonal(self) -> np.ndarray:
        """Exact diagonal of B M C^T: the weight-only part plus the factored
        middle term, rownorm^2 of V under G."""
        return self.base_diagonal + (self.vg * self.v).sum(axis=1)


def build_update_operator(state: Mapping[str, FactoredSimilarity], entry) -> UpdateOperator:
    """Attach the partners' current factors to one type's update operator;
    ``entry`` is the type's entry of ``update_plan``."""
    return UpdateOperator(entry, state)


_PIVOT_FLOOR = 1e-6

# Anderson mixing of the low-rank sweeps (``solve_lowrank``): the history
# depth m of AA(m) and the number of residual rises after which mixing
# stops for good.
MIX_DEPTH = 3
MAX_RISES = 3


def _power_basis(y: np.ndarray) -> np.ndarray:
    """A well-conditioned basis of range(y) for the next power pass.

    One Cholesky step, y R^-1 with R^T R = y^T y, unless the Gram matrix is
    not safely positive definite: when ``cholesky`` raises or a pivot falls
    below ``_PIVOT_FLOOR`` times the largest, y may have a condition number
    past about 1e6, where the step's loss of orthogonality (about eps times
    its square) is no longer small, and Householder QR is taken instead.
    """
    try:
        lower = np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return np.linalg.qr(y)[0]
    pivots = np.diag(lower)
    if not pivots.min() > _PIVOT_FLOOR * pivots.max():
        return np.linalg.qr(y)[0]
    return y @ np.linalg.inv(lower).T


def randomized_eig(op, rank: int, sketch, power: int = 2):
    """Randomized eigendecomposition of a self-adjoint operator on its sketch.

    ``op`` is anything with a square ``shape`` and ``op @ block``: an
    ndarray or an ``UpdateOperator``.  The caller's ``sketch`` (n rows, at
    least ``rank`` columns) sets the range finder's width: ``op @ sketch``,
    then ``power`` passes that each apply ``op`` to a well-conditioned basis
    of the last product (one Cholesky step, or Householder QR when that is
    unsafe), then Householder QR of the last product, so the basis Q is
    orthonormal to rounding, and an exact eigendecomposition of Q^T op Q.
    ``sketch=None`` asks for the exact decomposition of ``op`` itself, taken
    as ``op @ I``, the same apply.  Keeps the ``rank`` eigenpairs largest in
    magnitude (negative eigenvalues included).  Draws nothing, so it is
    deterministic given its inputs.
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
        y = op @ sketch
        for _ in range(power):
            y = op @ _power_basis(y)
        q, _ = np.linalg.qr(y)
        b = q.T @ (op @ q)
    if not np.isfinite(b).all():
        raise DivergenceError("non-finite values in the projected operator")
    b = 0.5 * (b + b.T)
    v, lam = _largest(*np.linalg.eigh(b), rank)
    return (v if q is None else q @ v), lam


def _largest(lam: np.ndarray, v: np.ndarray, rank: int):
    """The ``rank`` eigenpairs of ``eigh``'s (lam, v) largest in magnitude,
    negative ones included, as (vectors, values)."""
    order = np.argsort(-np.abs(lam), kind="stable")[:rank]
    return v[:, order], lam[order]


def _stacked(u: np.ndarray, d: np.ndarray, older: np.ndarray, w: np.ndarray):
    """(Q, C) with Q C Q^T = u diag(d) u^T + older diag(w) older^T, u orthonormal:
    P = u^T older, older - u P = Q_e R_e (Householder, one projection pass),
    Q = [u | Q_e] and C = diag(d, 0) + K diag(w) K^T with K = [P; R_e]."""
    p = u.T @ older
    q_e, r_e = np.linalg.qr(older - u @ p)
    k = np.vstack([p, r_e])
    core = (k * w) @ k.T
    core[: d.size, : d.size] += np.diag(d)
    return np.hstack([u, q_e]), core


def _correction(old: FactoredSimilarity, new: FactoredSimilarity):
    """new - old as (Q, C) with new - old = Q C Q^T, for ``new.U`` orthonormal
    as ``randomized_eig`` returns: ``_stacked(U', D', U, -D)``.  Only D' - P D
    P^T subtracts large terms, so equal factor pairs give a C at rounding level;
    stacking [U' | U] with weights [D', -D] would cancel |d|^2-size terms."""
    return _stacked(new.U, new.d, old.U, -old.d)


def _inner(first, second) -> float:
    """Frobenius inner product of two ``_correction`` pairs (Q1, C1) and
    (Q2, C2): tr(C1 M C2 M^T) with M = Q1^T Q2, exact for any Q1 and Q2."""
    (q1, c1), (q2, c2) = first, second
    m = q1.T @ q2
    return float(np.vdot(c1, m @ c2 @ m.T))


def factored_residual(old: FactoredSimilarity, new: FactoredSimilarity) -> float:
    """Frobenius distance between two factored blocks without densifying:
    ||C||_F of ``_correction(old, new)``, whose Q is orthonormal, so equal
    factor pairs read near 0; ``new.U`` must be orthonormal."""
    return float(np.linalg.norm(_correction(old, new)[1]))


def _anderson_weights(gram: np.ndarray) -> np.ndarray:
    """The weights alpha, summing to 1, that minimize ||sum_j alpha_j f_j||
    given the Gram matrix of the f_j: alpha proportional to gram^-1 1, by
    least squares in case the Gram matrix is singular."""
    w = np.linalg.lstsq(gram, np.ones(len(gram)), rcond=None)[0]
    return w / w.sum()


def _mix(images: list, alpha: np.ndarray) -> FactoredSimilarity:
    """I + sum_j alpha_j U_j D_j U_j^T re-truncated to the newest image's rank:
    ``eigh`` of the core ``_stacked`` builds on the newest U (orthonormal) and
    the older ones, and its eigenpairs largest in magnitude, as
    ``randomized_eig``'s, which returns exactly the rank it is asked for."""
    *older, newest = images
    q, core = _stacked(newest.U, alpha[-1] * newest.d, np.hstack([f.U for f in older]),
                       np.concatenate([a * f.d for a, f in zip(alpha, older)]))
    v, lam = _largest(*np.linalg.eigh(core), newest.rank)
    return FactoredSimilarity(q @ v, lam)


def _rng_for(seed: int, position: int):
    # Independent, seed-derived stream per ``update_order`` position.  A
    # solve draws each type's sketch from it once and reuses that sketch on
    # every sweep, so the solve iterates one fixed deterministic truncated
    # map; re-sketching per sweep would keep re-sampling the discarded tail
    # and the residual would jitter at the truncation level forever.
    # Anderson mixing changes only the inputs the map is applied to, not the
    # map, so its limit is still a fixed point of that one map.  A
    # full-width type draws nothing.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(position,)))


def update_plan(network: HeteroNetwork, plan: dict, svd: SvdConfig) -> dict:
    """The low-rank solver's one per-solve table, built from
    ``dense.coupling_plan``'s result ``plan`` and keyed in
    ``dense.update_order``.  Each type with a weighted relation side gets
    ``(B, rows, C^T, diagonal, rank, sketch)``: B and rows from ``plan``,
    C^T = [W_1 | ... | W_m]^T as CSR, the weight-only diagonal sum
    w * rownorm^2(W) (the diagonal of B C^T), the rank clamped to the block,
    and the Gaussian sketch of rank + oversample columns (``_rng_for`` the
    type's ``update_order`` position), or None (exact decomposition) when it
    would fill the block."""
    import scipy.sparse as sp
    table = {}
    for position, t in enumerate(update_order(network)):
        stacked, rows = plan[t.name]
        if not rows:
            continue
        c = sp.hstack([oper for _, oper, *_ in rows], format="csr")
        rank = min(int(svd.rank), t.size)
        width = min(rank + svd.oversample, t.size)
        sketch = (_rng_for(svd.seed, position).standard_normal((t.size, width))
                  if width < t.size else None)
        diagonal = np.asarray(stacked.multiply(c).sum(axis=1)).ravel()
        table[t.name] = (stacked, rows, c.T.tocsr(), diagonal, rank, sketch)
    return table


def sweep_lowrank(
    network: HeteroNetwork, state: Mapping[str, FactoredSimilarity], table: dict, power: int
) -> tuple[dict[str, FactoredSimilarity], dict[str, float], dict[str, tuple]]:
    """One Gauss-Seidel sweep in factored form, in ``dense.update_order``.
    Returns the new factors, each type's ``factored_residual`` against
    ``state`` (keyed in that order) and its correction, the ``_correction``
    pair (Q, C) of which that residual is ||C||_F; none moves a bit with the
    order types and relations are listed in.

    Per type: assemble the update operator, less its exact diagonal, against
    the partners' newest factors and project it to its rank with ``power``
    passes.  The identity is re-added implicitly by the factored
    representation.  ``table`` is ``update_plan``'s result; a type absent
    there stays I.  ``state`` itself is left as it is.
    """
    new, corrections, residuals = dict(state), {}, {}
    for t in update_order(network):
        if t.name in table:
            entry = table[t.name]
            u, d = randomized_eig(build_update_operator(new, entry), *entry[4:], power)
            new[t.name] = FactoredSimilarity(u, d)
        else:
            new[t.name] = FactoredSimilarity.identity(t.size)
        corrections[t.name] = _correction(state[t.name], new[t.name])
        residuals[t.name] = float(np.linalg.norm(corrections[t.name][1]))
    return new, residuals, corrections


def solve_lowrank(
    network: HeteroNetwork,
    weights: WeightMatrix,
    config: SolverConfig | None = None,
    svd: SvdConfig | None = None,
    check: bool = True,
) -> tuple[dict[str, FactoredSimilarity], SolveTrace]:
    """Iterate factored sweeps from S = I, Anderson-mixing their inputs from
    sweep 6 on.

    Each step sweeps its input x_k and returns the plain image G(x_k) with
    the per-type ``factored_residual(x_k, G(x_k))``, so ``tol`` and the trace
    mean what they mean for plain sweeps.  The history rule: from sweep 4 on,
    each G(x_k) joins the history with the corrections its sweep built, until
    the MAX_RISES-th rise of the summed residual (``iterate``'s sums), and
    every rise from sweep 5 on first drops the history, so the next input is
    that image.
    The history keeps the last MIX_DEPTH + 1 pairs, and a join takes inner
    products only with the pairs it keeps.  Once it holds two, the step
    mixes their images into its input (type-II Anderson mixing; Anderson
    1965, Walker & Ni 2011): per type, I + sum_j alpha_j U_j D_j U_j^T
    re-truncated to the type's rank (``_mix``), with sum alpha = 1
    minimizing the summed norm (in ``update_order``) of sum_j alpha_j
    (G(x_j) - x_j).  So sweep 6's input is the first mixed one.  At a limit
    every image is the same, so the limit is a fixed point of the plain
    truncated map.
    """
    config = config or SolverConfig()
    svd = svd or SvdConfig()
    table = update_plan(network, checked_plan(network, weights, check), svd)
    history, corrections = [], None  # history: (image, its corrections by type), oldest first
    gram, rises = np.zeros((0, 0)), 0

    def step(state, sums):
        nonlocal history, corrections, gram, rises
        # The last sweep's image joins with its corrections; its summed residual is sums[-1].
        if len(sums) >= 4 and rises < MAX_RISES:
            if history and sums[-1] > sums[-2]:  # sweep 4's pair opens it: no rise counts there
                rises += 1
                history, gram = [], np.zeros((0, 0))
            if rises < MAX_RISES:
                history = history[-MIX_DEPTH:] + [(state, corrections)]
                row = [sum(_inner(corrections[name], h[1][name]) for name in table)
                       for h in history]
                kept, gram = gram[1 - len(row):, 1 - len(row):], np.empty((len(row),) * 2)
                gram[:-1, :-1] = kept
                gram[-1] = gram[:, -1] = row
        if len(history) > 1:
            alpha = _anderson_weights(gram)
            state = dict(state)
            for name in table:
                state[name] = _mix([h[0][name] for h in history], alpha)
        state, residuals, corrections = sweep_lowrank(network, state, table, svd.power)
        return state, residuals

    identity = {t.name: FactoredSimilarity.identity(t.size) for t in network.types}
    return iterate(identity, step, config)
