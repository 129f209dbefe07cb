"""Walk the full pipeline on the bundled mv fixture, stage by stage.

Each stage prints the summary its CLI artifact prints, so the walkthrough
shows what ``racerepro pipeline`` computes, in the words the CLI uses.

Run from the repository root:

    python3 demos/mv_walkthrough.py
"""

from __future__ import annotations

import logging
from itertools import islice
from pathlib import Path

from racerepro import cli
from racerepro.metrics import ExperimentConfig, Pipeline

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "mv_438076"

#: stage title, the artifact whose summary it prints, and the lines shown (None: all)
STAGES = (
    ("key system calls", cli.KEYS, None),
    ("mined interleaving candidates (pairs first, then singletons)", cli.PAIR_RANKING, 5),
    ("structured file ranking (the top three)", cli.RANKED_FILES, 4),
    ("instrumentation points (the first three)", cli.POINTS, 3),
    ("reproduction (the delay opens the unlink/rename window)", cli.REPRO, None),
)


def main() -> None:
    pipe = Pipeline(
        ExperimentConfig(),
        report_path=FIXTURE / "mv_438076.txt",
        src_root=FIXTURE / "src",
        scenario_path=FIXTURE / "scenario.json",
    )
    print(f"report: {pipe.report.id}")
    print(f"subject: {pipe.report.subject}")
    for title, artifact, shown in STAGES:
        print()
        print(f"{title}:")
        for line in islice(artifact.summary(pipe), shown):
            print(line)


if __name__ == "__main__":
    logging.basicConfig(level=logging.ERROR)
    main()
