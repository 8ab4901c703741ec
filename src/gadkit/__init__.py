"""gadkit: label-free risk anatomy for linear models.

Builds extended design/nescience operators from basis families and sample
designs, computes the aliasing and invertibility operators and their norms
as the model size sweeps from 1 to a budget, and reproduces double descent,
multiple descent, Fourier aliasing, experimental-design effects, and ridge
bounds at desk scale.  :func:`sweep` is the one routine that walks the model
sizes; ridge strengths are plain floats, with lambda = 0 the unregularized
fit.
"""

from ._version import __version__
from .bases import (
    BasisSpec,
    ClusterBasisIndex,
    column_order,
    enumerate_clusters,
    evaluate_columns,
    feature_weights,
    fourier_frequency,
    legendre_gauss_nodes,
)
from .config import DesignConfig, RunConfig, parse_config, parse_config_text, serialize_config
from .datasets import PointCloud, load_cifar_bin, load_idx
from .decomposition import (
    OperatorPanel,
    RiskReport,
    SweepRecord,
    aliasing_operator,
    b_operator,
    build_panels,
    expected_unstructured_error,
    infer_theta,
    invertibility_operator,
    ridge_panels,
    risk_and_errors,
    sweep,
)
from .designs import ParameterSpec, SampleDesign, make_design, make_theta
from .errors import (
    BudgetExceededError,
    ConfigError,
    DecompositionMismatchError,
    FormatError,
    GadkitError,
    InvalidInputError,
    NotConvergedError,
)
from .experiments import run_config
from .linalg import (
    AppendReport,
    SvdResult,
    append_column,
    interleaving_check,
    kernel_projector,
    pseudoinverse,
    spectral_norm,
    svd,
)
from .oracle import OracleResult, certify, oracle_fit, oracle_risk

__all__ = [
    "__version__",
    "AppendReport",
    "BasisSpec",
    "BudgetExceededError",
    "ClusterBasisIndex",
    "ConfigError",
    "DecompositionMismatchError",
    "DesignConfig",
    "FormatError",
    "GadkitError",
    "InvalidInputError",
    "NotConvergedError",
    "OperatorPanel",
    "OracleResult",
    "ParameterSpec",
    "PointCloud",
    "RiskReport",
    "RunConfig",
    "SampleDesign",
    "SvdResult",
    "SweepRecord",
    "aliasing_operator",
    "append_column",
    "b_operator",
    "build_panels",
    "certify",
    "column_order",
    "enumerate_clusters",
    "evaluate_columns",
    "expected_unstructured_error",
    "feature_weights",
    "fourier_frequency",
    "infer_theta",
    "interleaving_check",
    "invertibility_operator",
    "kernel_projector",
    "legendre_gauss_nodes",
    "load_cifar_bin",
    "load_idx",
    "make_design",
    "make_theta",
    "oracle_fit",
    "oracle_risk",
    "parse_config",
    "parse_config_text",
    "pseudoinverse",
    "ridge_panels",
    "risk_and_errors",
    "run_config",
    "serialize_config",
    "spectral_norm",
    "svd",
    "sweep",
]
