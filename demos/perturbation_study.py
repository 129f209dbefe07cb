"""How much report text can vanish before localization stops working?

Removes a fraction of the mv report's body words under twenty seeds per
level and reruns the whole pipeline each time.  Light damage is harmless;
at half the body gone, some seeds lose the sentences the miner needs.

    python3 demos/perturbation_study.py
"""

from __future__ import annotations

import logging
from pathlib import Path

from racerepro.catalog import bundled_catalog
from racerepro.metrics import (
    MODE_PERTURBED,
    ExperimentConfig,
    FixtureBundle,
    run_fixture,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "mv_438076"
SEEDS = range(20)
FRACTIONS = (0.1, 0.3, 0.5)


def main() -> None:
    bundle = FixtureBundle.from_dir(FIXTURE)
    catalog = bundled_catalog()

    print(f"{len(SEEDS)} seeds per level, 100-attempt budget each")
    print()
    print("removed  reproduced  attempts (per seed)")
    for fraction in FRACTIONS:
        rows = [
            run_fixture(
                bundle,
                ExperimentConfig(
                    mode=MODE_PERTURBED, perturb_fraction=fraction, seed=seed
                ),
                catalog,
            )
            for seed in SEEDS
        ]
        succeeded = sum(1 for row in rows if row.suc == "Y")
        attempts = " ".join(
            str(row.nor) if row.suc == "Y" else "-" for row in rows
        )
        print(f"  {fraction:.0%}     {succeeded:2d}/{len(rows)}       {attempts}")
    print()
    print("'-' marks a seed whose surviving text no longer names the race")


if __name__ == "__main__":
    logging.basicConfig(level=logging.ERROR)
    main()
