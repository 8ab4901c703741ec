"""Batch command-line entry point.

Usage::

    gadkit --config path/to/run.cfg [--out DIR] [--seed N] [--full-scale]

The config file names the experiment and all its parameters; the flags
override the output directory, replace the seed list with a single seed,
and raise sweep dimensions to the reference scale.  The sweep runs in one
process; the BLAS library is its only source of parallelism.  Exit status
0 on success, 1 on a failed run, 2 on a config or usage problem.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config, parse_seed
from .errors import ConfigError, GadkitError
from .experiments import run_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadkit",
        description="Run a configured risk-anatomy experiment and write CSV/JSON artifacts.",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument("--seed", default=None,
                        help="replace the config's seed list with this single seed")
    parser.add_argument("--full-scale", action="store_true",
                        help="raise sweep dimensions to the reference scale")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        seed = None if args.seed is None else parse_seed(args.seed, "--seed")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = run_config(
            config,
            out_dir=args.out,
            seed_override=seed,
            full_scale=args.full_scale,
        )
    except GadkitError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
