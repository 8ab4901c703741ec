"""Regenerate the correctness gate's reference rows from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every recipe of every workload once with its config's default seed and
stores its ``sweep*.csv`` files under ``perfbench/reference/<config stem>/``.
Only do this at a commit whose outputs are known to be right: the gate then
holds later commits to these rows.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import gate
from child import SweepClock, gadkit, run_pass
from workloads import REFERENCE, ROOT, WORKLOADS


def main() -> int:
    recipes = {r.stem: r for rs in WORKLOADS.values() for r in rs}
    clock = SweepClock()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for stem, recipe in sorted(recipes.items()):
            (seed,) = gadkit.parse_config(recipe.path).seeds
            produced = run_pass([recipe], seed, tmp, clock).artifacts
            folder = REFERENCE / stem
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir(parents=True)
            for name in gate.sweep_files(produced):
                target = folder / name.rsplit("/", 1)[-1]
                target.write_text(produced[name], encoding="utf-8")
                print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
