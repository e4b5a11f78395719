"""Dense reference solvers for the coupled similarity fixed point.

One Gauss-Seidel sweep updates the per-type blocks one after another, in
type-name order (``update_order``), each from its partners' newest blocks:

    S_t  <-  sum_r  w_tr * W S_p W^T                 (coupling)
    S_t  <-  S_t - diag(S_t) + I                     (unit diagonal)

where, for each relation between t and a partner p, W is the |t| x |p|
column-stochastic operator oriented toward t (the forward normalization
when t is the relation's source, the reverse one when it is the
destination).  Column-stochastic W and per-type weights summing to 1 make
the coupling nonexpansive, which is what drives convergence.  The damped
variant replaces the diagonal reset with uniform (1 - c) I regularization.
Both solvers over-relax their sweeps while the map contracts slowly
(``_solve_coupled``).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    HeteroNetwork,
    WeightMatrix,
    check_convergence_conditions,
    check_weight_pairs,
    coupling_operators,
)


# Over-relaxation factor of the dense and Lyapunov sweeps (``_solve_coupled``).
RELAX = 1.25


class DivergenceError(RuntimeError):
    """The iteration overflowed or turned NaN: a non-finite summed residual,
    or a non-finite projected operator in the low-rank solver."""


class ConditionError(ValueError):
    """Convergence preconditions failed and were not overridden."""


def check_field(name: str, value, kind: type, floor, want: str) -> None:
    """The field rule of ``SolverConfig`` and ``lowrank.SvdConfig``: ``value``
    is a finite ``kind`` number above ``floor``, never a bool, or ValueError says so."""
    if isinstance(value, bool) or not isinstance(value, kind) or not floor < value < np.inf:
        raise ValueError(f"{name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule on the summed Frobenius residual, read by ``iterate``."""

    tol: float = 1e-9
    max_iter: int = 100

    def __post_init__(self):
        check_field("tol", self.tol, numbers.Real, 0, "positive and finite")
        check_field("max_iter", self.max_iter, numbers.Integral, 0, "one integer of at least 1")


@dataclass
class SolveTrace:
    """Per-iteration residuals and wall times."""

    residuals: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    per_type: list[dict[str, float]] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.residuals)


class SimilaritySet:
    """One dense symmetric per-type similarity block, keyed by type name."""

    def __init__(self, blocks: dict[str, np.ndarray]):
        self.blocks = blocks

    @classmethod
    def identity(cls, network: HeteroNetwork) -> "SimilaritySet":
        return cls({t.name: np.eye(t.size) for t in network.types})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.blocks[name]


def residual(prev: SimilaritySet, new: SimilaritySet) -> float:
    """Sum over types of the Frobenius norm of the block difference."""
    return sum(residual_by_type(prev, new).values(), 0.0)


def residual_by_type(prev: SimilaritySet, new: SimilaritySet) -> dict[str, float]:
    """Frobenius norm of the block difference per type, in ``prev``'s order."""
    if prev.blocks.keys() != new.blocks.keys():
        raise ValueError("similarity sets cover different types")
    out = {}
    for name, b in prev.blocks.items():
        other = new.blocks[name]
        if other.shape != b.shape:
            raise ValueError(f"shape mismatch on type {name!r}")
        out[name] = float(np.linalg.norm(other - b))
    return out


def iterate(state, step, config: SolverConfig):
    """The fixed-point loop every solver runs: ``state, per_type =
    step(state, sums)`` until the summed residual drops to ``config.tol`` or
    ``config.max_iter`` sweeps.

    ``sums`` is ``trace.residuals``, the earlier sweeps' summed residuals,
    which ``step`` only reads.  A sweep's ``per_type``, keyed in
    ``update_order``, is recorded and summed here alone, as given, so the
    stop and the trace do not depend on listing order.  Returns the last
    iterate and its ``SolveTrace``; raises ``DivergenceError`` when the
    summed residual is not finite, which a non-finite iterate after a finite
    one always makes it.
    """
    trace = SolveTrace()
    for _ in range(config.max_iter):
        t0 = time.perf_counter()
        state, per_type = step(state, trace.residuals)
        res = sum(per_type.values())
        trace.seconds.append(time.perf_counter() - t0)
        trace.residuals.append(res)
        trace.per_type.append(per_type)
        if not np.isfinite(res):
            raise DivergenceError(f"non-finite residual at iteration {trace.iterations}")
        if res <= config.tol:
            trace.converged = True
            break
    return state, trace


def coupling_plan(network: HeteroNetwork, weights: WeightMatrix) -> dict:
    """Per type t, ``(B, rows)``: B = [w_1 W_1 | ... | w_m W_m] (CSR) over t's
    incident relations with nonzero weight, in incidence order (by name), each
    W the relation's ``coupling_operators`` entry oriented toward t (forward
    when t is the source, reverse otherwise), and per side (w_i, W_i, partner,
    start, stop), with start:stop the side's row block of the buffer that B
    multiplies.  Both solvers apply their coupling as B times that buffer.
    Refuses a weight for a pair the network lacks (``check_weight_pairs``)."""
    import scipy.sparse as sp
    check_weight_pairs(network, weights)
    ops = coupling_operators(network)
    plan = {}
    for t in network.types:
        rows, start = [], 0
        for rel in network.incident(t.name):
            if w := weights.weight(t.name, rel.name):
                fwd, rev = ops[rel.name]
                if rel.src.name == t.name:
                    oper, partner = fwd, rel.dst.name
                else:
                    oper, partner = rev, rel.src.name
                rows.append((w, oper, partner, start, start + oper.shape[1]))
                start += oper.shape[1]
        # hstack copies, so scaling B's data by each column's weight leaves the sides' W as is.
        b = sp.hstack([r[1] for r in rows] or [sp.csr_matrix((t.size, 0))], format="csr")
        b.data *= np.repeat([r[0] for r in rows], [r[4] - r[3] for r in rows])[b.indices]
        plan[t.name] = (b, rows)
    return plan


def update_order(network: HeteroNetwork) -> list:
    """The one type order of a solve (sweeps, residual keys, sketch streams):
    by name, so no bit of a solve depends on the order types are listed in."""
    return sorted(network.types, key=lambda t: t.name)


def _coupling(t, blocks: dict, plan: dict) -> np.ndarray:
    """Type t's sum_r w W S_p W^T over ``blocks`` before any diagonal
    handling, as B g: the gather buffer g stacks (W_i S_p_i)^T, taken as
    S_p_i W_i^T, over t's sides, one side's product alive at a time.  So the
    result is symmetric only to rounding (off by up to 2.2e-16 seen), as are
    the iterates built on it."""
    stacked, rows = plan[t.name]
    g = np.empty((stacked.shape[1], t.size))
    for _, oper, partner, start, stop in rows:
        g[start:stop] = (oper @ blocks[partner]).T
    return stacked @ g


def sweep(
    network: HeteroNetwork,
    state: SimilaritySet,
    plan: dict,
    damping: float | None = None,
    relax: float = 1.0,
) -> tuple[SimilaritySet, dict[str, float]]:
    """One Gauss-Seidel sweep: the blocks are recomputed in ``update_order``,
    each from the newest blocks of its partners.  Returns the new blocks and
    each type's residual, keyed in ``update_order``: neither moves with listing order.

    A block's plain update T_t(S) is its coupling with the diagonal reset to
    1, or with ``damping`` c the Lyapunov map c * coupling + (1 - c) I.  Each
    type's block moves ``relax`` times its correction, S_t <- T_t(S) +
    (relax - 1) (T_t(S) - S_t), and its residual is the Frobenius norm of
    the plain correction T_t(S) - S_t; later types read the moved blocks.
    The undamped correction's diagonal is exactly 0, so the diagonal stays
    exactly 1.

    ``plan`` is ``coupling_plan``'s result.  Blocks of ``state`` are taken as
    symmetric (``_coupling``) and left as they are; iterates are symmetric
    only to rounding, and the similarity CSV stores the upper triangle.
    Symmetrizing every sweep would cost sweep time and change the chained
    iterates."""
    for t in network.types:
        if state[t.name].shape != (t.size, t.size):
            raise ValueError(f"state shape mismatch on type {t.name!r}")
    blocks = dict(state.blocks)
    norms = {}
    for t in update_order(network):
        m = _coupling(t, blocks, plan)
        if damping is None:
            np.fill_diagonal(m, 1.0)
        else:
            m *= damping
            m[np.diag_indices_from(m)] += 1.0 - damping
        d = m - blocks[t.name]
        norms[t.name] = float(np.linalg.norm(d))
        if relax != 1.0:
            d *= relax - 1.0
            m += d
        del d  # freed before the next type's coupling allocates, for peak memory
        blocks[t.name] = m
    return SimilaritySet(blocks), norms


def checked_plan(network, weights, check, damping=None) -> dict:
    """Every solver's opening: the precheck, then ``coupling_plan``.  With
    ``damping`` c the precheck is the Lyapunov map's c * sum w ||W||_1^2 < 1
    per type: at exactly 1 the damped map need not contract."""
    if check:
        report = check_convergence_conditions(network, weights)
        if damping is not None:
            for name, bound in report.lyapunov_bounds.items():
                if damping * bound >= 1.0:
                    raise ConditionError(
                        f"contraction bound violated for type {name!r}: "
                        f"c * sum w ||W||_1^2 = {damping * bound:.6g}, not below 1"
                    )
        elif not report.ok:
            raise ConditionError(
                f"convergence conditions failed: overweight types {list(report.overweight)}"
            )
    return coupling_plan(network, weights)


def _solve_coupled(network, weights, config, check, damping=None):
    """Iterate from S = I: Gauss-Seidel sweeps, or with ``damping`` c the same
    sweeps of the Lyapunov map S = c * coupling(S) + (1 - c) I.

    Sweeps 1 and 2 are plain.  If the summed residual r_2 is above
    (RELAX - 1) r_1, the map contracts too slowly for plain sweeps to be
    the fast choice, and from sweep 3 on every block moves RELAX times its
    correction (successive over-relaxation; Young 1954).  After sweep 3 the
    first sweep whose summed residual rises turns relaxation off for good:
    a spectrum that reaches toward -1 makes relaxed sweeps diverge.  The
    trace keeps the sweep's residuals, each type's plain-correction norm, so
    ``tol`` means what it means for plain sweeps.  Each step picks ``relax``
    from ``iterate``'s sums of the sweeps before it."""
    plan = checked_plan(network, weights, check, damping)
    relax = 1.0

    def step(state, sums):
        nonlocal relax
        if len(sums) == 2 and sums[1] > (RELAX - 1.0) * sums[0]:
            relax = RELAX
        elif len(sums) > 3 and sums[-1] > sums[-2]:
            relax = 1.0
        return sweep(network, state, plan, damping, relax)

    return iterate(SimilaritySet.identity(network), step, config)


def solve_dense(
    network: HeteroNetwork,
    weights: WeightMatrix,
    config: SolverConfig | None = None,
    check: bool = True,
) -> tuple[SimilaritySet, SolveTrace]:
    """Iterate sweeps from S = I until the summed residual drops below tol."""
    return _solve_coupled(network, weights, config or SolverConfig(), check)


def solve_lyapunov(
    network: HeteroNetwork,
    weights: WeightMatrix,
    config: SolverConfig | None = None,
    check: bool = True,
    damping: float = 0.8,
) -> tuple[SimilaritySet, SolveTrace]:
    """Damped variant S = c * coupling(S) + (1 - c) I, c = ``damping`` in (0, 1).

    No diagonal reset: the diagonal is (1 - c)-regularized and generally
    differs from 1; inspect ``diag`` of the returned blocks if needed.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    return _solve_coupled(network, weights, config or SolverConfig(), check, damping)

