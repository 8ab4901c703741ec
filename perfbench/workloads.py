"""The benchmark's workloads: which shipped config each one runs, over which model sizes.

This module is plain data so that the parent process can validate a
``--workload`` name without importing numpy or gadkit.  Every window is a
contiguous block of model sizes, so that a sweep which reuses work between
neighbouring ``m`` can show its gain.  Reference rows under ``reference/``
were taken with exactly these windows; change a window and regenerate them
with ``make_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
REFERENCE = HERE / "reference"


@dataclass(frozen=True)
class Recipe:
    """One shipped config, optionally cut to a window ``(lo, hi)`` of model sizes.

    ``oracle_m`` lists the model sizes whose lambda = 0 risk is certified
    against the conjugate-gradient oracle after the timed passes.
    """

    config: str
    window: tuple[int, int] | None = None
    oracle_m: tuple[int, ...] = ()

    @property
    def stem(self) -> str:
        return Path(self.config).stem

    @property
    def path(self) -> Path:
        return CONFIGS / self.config


# workload name -> the recipes one pass runs, in order
WORKLOADS = {
    # n = 100: the window straddles the interpolation threshold, where the
    # norm_pinv peak makes this the most ill-conditioned case
    "rff_double_descent": (Recipe("sweep_rff_sphere.cfg", (81, 120), oracle_m=(81, 100, 120)),),
    # m >> n = 200: every appended column is dependent; m = n is certified
    # outside the window
    "ising_saturated": (Recipe("ising_sweep_physical.cfg", (901, 916), oracle_m=(200, 901, 916)),),
    "ridge_lambda": (Recipe("ridge_sweep.cfg", (31, 70), oracle_m=(31, 50, 70)),),
    # gauss_compare.cfg is left out: its uniformly drawn Legendre design is
    # so ill-conditioned at m = 50 that a few seeds in a hundred give an
    # error row, and a benchmark workload must not fail
    "desk_recipes": (
        Recipe("fourier_check.cfg", oracle_m=(8,)),
        Recipe("unstructured_eb.cfg", oracle_m=(10, 30, 45)),
    ),
    # smoke workload for the harness's own tests; BENCHMARK.json does not list it
    "fourier_check": (Recipe("fourier_check.cfg", oracle_m=(8,)),),
}


def missing_program() -> str | None:
    """Why the program cannot be benchmarked from this checkout, or None if it can."""
    for required in (ROOT / "src" / "gadkit" / "__init__.py", CONFIGS):
        if not required.exists():
            return f"{required.relative_to(ROOT)} is missing; run from a full checkout"
    return None
