"""Walk the full pipeline on the bundled mv fixture, stage by stage.

Run from the repository root:

    python3 demos/mv_walkthrough.py
"""

from __future__ import annotations

import logging
from pathlib import Path

from racerepro.harness import format_schedule
from racerepro.metrics import ExperimentConfig, Pipeline

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "mv_438076"


def main() -> None:
    pipe = Pipeline(
        ExperimentConfig(),
        report_path=FIXTURE / "mv_438076.txt",
        src_root=FIXTURE / "src",
        scenario_path=FIXTURE / "scenario.json",
    )
    report = pipe.report
    print(f"report: {report.id}")
    print(f"subject: {report.subject}")
    print()

    # --- stage 1: key system calls ---------------------------------------
    keys = pipe.keys
    print(f"key system calls ({keys.path} path):")
    for entry in keys.entries:
        print(f"  {entry.name:8s} mentioned {entry.count}x")
    print()

    # --- stage 2: interleaving candidates ---------------------------------
    ranking = pipe.ranking
    print("mined interleaving candidates (pairs first, then singletons):")
    for entry in ranking.entries[:5]:
        print(f"  {{{', '.join(entry.items)}}} = {entry.frequency}")
    print()

    # --- stage 3: file ranking --------------------------------------------
    ranked = pipe.file_ranking
    print("structured file ranking:")
    for rank_no, (path, score) in enumerate(ranked.entries[:3], 1):
        print(f"  {rank_no}. {path:10s} {score:.4f}")
    print()

    # --- stage 4: instrumentation points -----------------------------------
    points = pipe.points
    print(f"{len(points)} instrumentation points; the first three:")
    for point in points[:3]:
        partner = ""
        if point.pair_partner is not None:
            partner = f" (pairs with {point.pair_partner.syscall}@{point.pair_partner.line})"
        print(
            f"  {point.rank:3d}. {point.placement:12s} {point.syscall} "
            f"{point.file}:{point.function}:{point.line}{partner}"
        )
    print()

    # --- stage 5: reproduction ---------------------------------------------
    scenario, result = pipe.scenario, pipe.result
    print(f"reproduced: {result.reproduced} after {result.attempts} attempt(s)")
    print("failing schedule (the delay opens the unlink/rename window):")
    for line in format_schedule(scenario, result.schedule):
        print(f"  {line}")


if __name__ == "__main__":
    logging.basicConfig(level=logging.ERROR)
    main()
