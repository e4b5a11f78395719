"""Per-type similarity on heterogeneous information networks.

Dense fixed-point and randomized low-rank solvers for the coupled
similarity equation, plus synthetic generators, an ordering-quality
metric, CSV/JSON bundle formats, and a CLI (``hetsim``).
"""

from .dense import (
    DivergenceError,
    SimilaritySet,
    SolverConfig,
    SolveTrace,
    residual,
    solve_dense,
    solve_lyapunov,
    sweep,
)
from .lowrank import (
    FactoredSimilarity,
    SvdConfig,
    factored_residual,
    randomized_eig,
    solve_lowrank,
    sweep_lowrank,
    top_k,
)
from .model import (
    ConditionReport,
    EntityType,
    HeteroNetwork,
    NetworkError,
    Relation,
    WeightMatrix,
    build_network,
    check_convergence_conditions,
    column_stochastic,
    default_weights,
)
from .synth import (
    LayeredGraphSpec,
    PointCloud,
    RandomNetworkSpec,
    geometric_ground_truth,
    layered_points_graph,
    ordering_quality,
    random_network,
)

__version__ = "0.1.0"
