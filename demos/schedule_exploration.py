"""Contrast systematic, injected, and random exploration of one race.

The mv scenario has three program-order-preserving interleavings, one of
which fails.  Enumeration proves that; delay injection hits it on the
first try; the unassisted random baseline needs luck.

    python3 demos/schedule_exploration.py
"""

from __future__ import annotations

import logging
from pathlib import Path

from racerepro.harness import enumerate_interleavings
from racerepro.metrics import MODE_RANDOM_BASELINE, ExperimentConfig, Pipeline

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "mv_438076"


def main() -> None:
    pipe = Pipeline(
        ExperimentConfig(),
        report_path=FIXTURE / "mv_438076.txt",
        src_root=FIXTURE / "src",
        scenario_path=FIXTURE / "scenario.json",
    )
    scenario = pipe.scenario

    # --- exhaustive ground truth -------------------------------------------
    results = enumerate_interleavings(scenario)
    print(f"all {len(results)} interleavings of {scenario.id}:")
    for sched, verdict in results:
        order = "  ".join(f"{proc}[{idx}]" for proc, idx in sched.steps)
        print(f"  {verdict.upper():4s}  {order}")
    print()

    # --- guided injection ----------------------------------------------------
    guided = pipe.result
    print(f"guided injection: reproduced in {guided.attempts} attempt(s)")
    for line in pipe.schedule_lines:
        print(f"  {line}")
    print()

    # --- unassisted baseline ---------------------------------------------------
    print("random baseline (100-run budget) across ten seeds:")
    for seed in range(10):
        config = ExperimentConfig(mode=MODE_RANDOM_BASELINE, seed=seed, max_attempts=100)
        result = Pipeline(config, scenario_path=FIXTURE / "scenario.json").result
        status = f"attempt {result.attempts}" if result.reproduced else "never"
        print(f"  seed {seed}: {status}")


if __name__ == "__main__":
    logging.basicConfig(level=logging.ERROR)
    main()
