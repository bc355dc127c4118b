"""Multi-kernel ridge regression for targets that are smooth graph signals.

The package solves vector regression problems where each target is a
signal over a known graph: single-kernel fits have a closed form, and the
weights combining a dictionary of basis kernels are learned by accelerated
projected gradient descent on a convex reduced objective.
"""

from .graph import (
    Graph,
    NodeCoordinates,
    build_graph,
    distance_matrix,
    geodesic_adjacency,
    laplacian_eigendecomposition,
    smoothness,
)
from .kernels import (
    GAUSSIAN,
    LINEAR,
    KernelDictionary,
    KernelGrid,
    build_dictionary,
    combine,
    kernel_cross,
)
from .solver import (
    KrgModel,
    SingularSystemError,
    solve_structured,
)
from .mkl import (
    OptimizerTrace,
    SolverConfig,
    gamma,
    gamma_gradient,
    optimize,
    project,
)
from .experiment import (
    ExperimentConfig,
    ExperimentDataset,
    MonteCarloReport,
    TrialResult,
    add_noise_snr,
    grid_search_hyperparams,
    make_synthetic_dataset,
    monte_carlo,
    nmse,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "NodeCoordinates",
    "build_graph",
    "distance_matrix",
    "geodesic_adjacency",
    "laplacian_eigendecomposition",
    "smoothness",
    "GAUSSIAN",
    "LINEAR",
    "KernelDictionary",
    "KernelGrid",
    "build_dictionary",
    "combine",
    "kernel_cross",
    "KrgModel",
    "SingularSystemError",
    "solve_structured",
    "OptimizerTrace",
    "SolverConfig",
    "gamma",
    "gamma_gradient",
    "optimize",
    "project",
    "ExperimentConfig",
    "ExperimentDataset",
    "MonteCarloReport",
    "TrialResult",
    "add_noise_snr",
    "grid_search_hyperparams",
    "make_synthetic_dataset",
    "monte_carlo",
    "nmse",
    "run_trial",
]
