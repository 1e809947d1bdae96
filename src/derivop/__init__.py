"""Operator learning with compressed Jacobian supervision.

Pipeline: sample parameters from a Laplacian-smoothed Gaussian prior, solve a
nonlinear reaction-diffusion problem, compress each parameter-to-observable
Jacobian with a randomized SVD, build derivative-informed reduced bases, and
train dense or reduced-basis networks under value-only or Jacobian-penalized
losses.
"""

__version__ = "0.1.0"

from .bases import (
    ReducedBasisPair,
    derivative_informed_bases,
    load_bases,
    pca_bases,
    save_bases,
)
from .datagen import (
    Dataset,
    GenerationError,
    generate_dataset,
    load_dataset,
    reduce_dataset,
    save_dataset,
)
from .io import LoadError, load_arrays, save_arrays
from .linalg import (
    CountingOperator,
    LinearOperator,
    TruncatedJacobian,
    dense_operator,
    randomized_svd,
)
from .metrics import EvalReport, evaluate
from .models import (
    Grid,
    NewtonConvergenceError,
    PriorConfig,
    RDModel,
    ToyMap,
    jacobian_operator,
    sample_prior,
    solve_state,
)
from .netop import (
    MLPSpec,
    NetworkWeights,
    OperatorModel,
    forward,
    full_space_jacobian,
    load_model,
    parametric_jacobian,
    save_model,
)
from .training import AdamState, LossConfig, TrainingError, adam_step, train

__all__ = [
    "AdamState",
    "CountingOperator",
    "Dataset",
    "EvalReport",
    "GenerationError",
    "Grid",
    "LinearOperator",
    "LoadError",
    "LossConfig",
    "MLPSpec",
    "NetworkWeights",
    "NewtonConvergenceError",
    "OperatorModel",
    "PriorConfig",
    "RDModel",
    "ReducedBasisPair",
    "ToyMap",
    "TrainingError",
    "TruncatedJacobian",
    "adam_step",
    "dense_operator",
    "derivative_informed_bases",
    "evaluate",
    "forward",
    "full_space_jacobian",
    "generate_dataset",
    "jacobian_operator",
    "load_arrays",
    "load_bases",
    "load_dataset",
    "load_model",
    "parametric_jacobian",
    "pca_bases",
    "randomized_svd",
    "reduce_dataset",
    "sample_prior",
    "save_arrays",
    "save_bases",
    "save_dataset",
    "save_model",
    "solve_state",
    "train",
]
