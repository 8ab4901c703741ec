"""gadkit: label-free risk anatomy for linear models.

Builds extended design/nescience operators from basis families and sample
designs, computes the aliasing operator, the invertibility error terms and
their norms as the model size sweeps from 1 to a budget, and reproduces double descent,
multiple descent, Fourier aliasing, experimental-design effects, and ridge
bounds at desk scale.  :func:`sweep` is the one routine that walks the model
sizes; ridge strengths are plain floats, with lambda = 0 the unregularized
fit.

The package exports the batch tool's entry points and the pieces a library
sweep needs; everything else is imported from its submodule.
"""

from ._version import __version__
from .bases import BasisSpec, evaluate_columns
from .config import parse_config
from .decomposition import SweepRecord, sweep
from .designs import ParameterSpec, make_design, make_theta
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
from .oracle import certify

__all__ = [
    "__version__",
    "BasisSpec",
    "BudgetExceededError",
    "ConfigError",
    "DecompositionMismatchError",
    "FormatError",
    "GadkitError",
    "InvalidInputError",
    "NotConvergedError",
    "ParameterSpec",
    "SweepRecord",
    "certify",
    "evaluate_columns",
    "make_design",
    "make_theta",
    "parse_config",
    "run_config",
    "sweep",
]
