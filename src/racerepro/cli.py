"""Command-line surface over the pipeline stages.

Each subcommand is one row of ``SUBCOMMANDS``: its input flags, its stage
flags and its artifacts.  An ``Artifact`` is a file name, the payload it
holds (built from ``metrics.Pipeline`` stages) and the summary a run
prints.  A run builds every payload before it writes the first file, so an
exit 2 on a bad input leaves --out-dir untouched.  Exit codes: 0 success,
1 failure-to-reproduce, 2 usage/config error.  Artifacts are pure
functions of (inputs, config, seed): no timestamps or wall times go into
files, so re-running a stage with unchanged inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import harness as harness_mod
from . import metrics as metrics_mod
from . import retrieval, testcases
from .catalog import KeySystemCalls
from .metrics import ExperimentConfig, FixtureBundle, Pipeline
from .mining import InstrumentationPoint, PairRanking

# bench/tracing.py wraps cli.index_tree and cli.load_report by name: keep both bound.
from .csource import index_tree  # noqa: F401
from .reports import load_report  # noqa: F401

EXIT_OK = 0
EXIT_NOT_REPRODUCED = 1
EXIT_CONFIG = 2


# --- artifact I/O -----------------------------------------------------------

def _write(out_dir: Path, name: str, payload: dict | str) -> Path:
    """Write a dict as indented, key-sorted JSON, a str as it is."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("w", encoding="utf-8") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


def _keys_payload(keys: KeySystemCalls) -> dict:
    return {
        "schema": "racerepro/keys/v1",
        "path": keys.path,
        "entries": [
            {"name": e.name, "count": e.count, "source": e.source} for e in keys.entries
        ],
        "sentence_mentions": {str(i): names for i, names in keys.sentence_mentions.items()},
        "subject_mentions": keys.subject_mentions,
    }


def _ranking_payload(ranking: PairRanking) -> dict:
    return {
        "schema": "racerepro/pair-ranking/v1",
        "enumerate_all": ranking.enumerate_all,
        "entries": [
            {"items": list(e.items), "frequency": e.frequency} for e in ranking.entries
        ],
    }


def _point_payload(p: InstrumentationPoint) -> dict:
    """A point's rank, site, placement and, when it has one, its pair partner."""
    entry = {"rank": p.rank, **p.site._asdict(), "placement": p.placement}
    if p.pair_partner is not None:
        entry["pair_partner"] = p.pair_partner._asdict()
    return entry


def _points_payload(points: list[InstrumentationPoint]) -> dict:
    return {"schema": "racerepro/points/v1", "points": [_point_payload(p) for p in points]}


def _ranked_files_payload(ranked: retrieval.RankedFiles) -> dict:
    return {
        "schema": "racerepro/ranked-files/v1",
        "scheme": ranked.scheme,
        "entries": [{"path": path, "score": score} for path, score in ranked.entries],
        "breakdown": ranked.breakdown,
    }


def _test_cases_payload(
    partial: testcases.TestCase, cases: list[testcases.TestCase]
) -> dict:
    return {
        "schema": "racerepro/test-cases/v1",
        "extracted": {
            "command": partial.command,
            "options": partial.options,
            "inputs": partial.inputs,
        },
        "cases": [
            {
                "command": c.command,
                "options": c.options,
                "inputs": c.inputs,
                "setup": c.setup,
                "error": c.error,
            }
            for c in cases
        ],
    }


def _repro_payload(
    scenario: harness_mod.Scenario, result: harness_mod.ReproResult
) -> dict:
    payload: dict = {
        "schema": "racerepro/repro/v1",
        "scenario": scenario.id,
        "reproduced": result.reproduced,
        "attempts": result.attempts,
    }
    if result.fails_undelayed:
        payload["fails_undelayed"] = True
    if result.schedule is not None:
        payload["schedule"] = {
            "steps": [[proc, idx] for proc, idx in result.schedule.steps],
            "injected_delays": [
                [proc, idx, placement]
                for proc, idx, placement in result.schedule.injected_delays
            ],
            "lines": harness_mod.format_schedule(scenario, result.schedule),
        }
    if result.point_used is not None:
        payload["point_used"] = _point_payload(result.point_used)
    return payload


# --- the artifact table -------------------------------------------------------

def _keys_summary(pipe: Pipeline) -> Iterator[str]:
    keys = pipe.keys
    yield f"extraction path: {keys.path}"
    for entry in keys.entries:
        yield f"  {entry.name}: {entry.count} ({entry.source})"
    if not keys.entries:
        yield "  (no system calls extracted)"


def _ranked_files_summary(pipe: Pipeline) -> Iterator[str]:
    ranked = pipe.file_ranking
    yield f"scheme: {ranked.scheme}"
    for rank_no, (file_path, score) in enumerate(ranked.entries[: pipe.config.top_files], 1):
        yield f"  {rank_no:2d}. {file_path}  {score:.4f}"


def _ranking_summary(pipe: Pipeline) -> Iterator[str]:
    if pipe.ranking.enumerate_all:
        yield "no key system calls: locator will enumerate all sites"
    for entry in pipe.ranking.entries:
        yield f"  {{{', '.join(entry.items)}}} = {entry.frequency}"


def _points_summary(pipe: Pipeline) -> Iterator[str]:
    for p in pipe.points:
        partner = ""
        if p.pair_partner is not None:
            partner = f" (pair with {p.pair_partner.syscall}:{p.pair_partner.line})"
        yield f"  {p.rank:3d}. {p.placement} {p.syscall} {p.file}:{p.function}:{p.line}{partner}"
    if not pipe.points:
        yield "  (no instrumentation points)"


def _test_cases_summary(pipe: Pipeline) -> Iterator[str]:
    for c in pipe.test_cases[1]:
        marker = " [error]" if c.error else ""
        yield f"  {c.render()}{marker}"


def _repro_summary(pipe: Pipeline) -> Iterator[str]:
    result = pipe.result
    yield (f"reproduced: {result.reproduced} in {result.attempts} attempts "
           f"({result.wall_time:.3f}s)")
    if result.schedule is not None:
        for line in harness_mod.format_schedule(pipe.scenario, result.schedule):
            yield f"  {line}"


@dataclass(frozen=True)
class Artifact:
    """One file a subcommand can write into --out-dir."""

    name: str
    #: the file's content (a dict is written as JSON), or None: nothing to write
    payload: Callable[[Pipeline], dict | str | None]
    summary: Callable[[Pipeline], Iterator[str]] | None = None


KEYS = Artifact("keys.json", lambda pipe: _keys_payload(pipe.keys), _keys_summary)
RANKED_FILES = Artifact("ranked_files.json",
                        lambda pipe: _ranked_files_payload(pipe.file_ranking),
                        _ranked_files_summary)
PAIR_RANKING = Artifact("pair_ranking.json", lambda pipe: _ranking_payload(pipe.ranking),
                        _ranking_summary)
POINTS = Artifact("points.json", lambda pipe: _points_payload(pipe.points), _points_summary)
TEST_CASES = Artifact("test_cases.json", lambda pipe: None if pipe.tsl_path is None
                      else _test_cases_payload(*pipe.test_cases), _test_cases_summary)
REPRO = Artifact("repro.json", lambda pipe: _repro_payload(pipe.scenario, pipe.result),
                 _repro_summary)
SCHEDULE = Artifact("schedule.txt", lambda pipe: None if pipe.result.schedule is None else (
    "\n".join(harness_mod.format_schedule(pipe.scenario, pipe.result.schedule)) + "\n"
))

#: input flag -> (Pipeline argument, argument type, help)
INPUT_FLAGS = {
    "--report": ("report_path", Path, "bug report (.txt with Subject: line, or .json)"),
    "--src": ("src_root", Path, "C source tree root"),
    "--scenario": ("scenario_path", Path,
                   "scenario file (JSON; its process names are known commands)"),
    "--tsl": ("tsl_path", Path, "TSL category-partition spec file"),
    "--man-dir": ("man_dir", Path, "man-page catalog directory (default: bundled)"),
    "--commands": ("commands", lambda text: [n.strip() for n in text.split(",") if n.strip()],
                   "comma-separated known command names"),
}

#: flag -> (ExperimentConfig field, help); a subcommand that does not take
#: a flag leaves its field at the config's default
CONFIG_FLAGS = {
    "--n-derived": ("n_derived", "top-n cut for derived syscall extraction"),
    "--top-files": ("top_files", "files searched for instrumentation points"),
    "--top-n": ("recall_k", "K for recall@K in evaluation"),
    "--max-attempts": ("max_attempts", "reproduction attempt budget"),
}


@dataclass(frozen=True)
class Subcommand:
    name: str
    help: str
    inputs: tuple[str, ...]  # input flags it needs
    optional: tuple[str, ...]  # input flags it may be given
    flags: tuple[str, ...]  # stage flags
    artifacts: tuple[Artifact, ...] = ()  # in the order they are built and written


SUBCOMMANDS = (
    Subcommand("extract", "extract KeySystemCalls from a report",
               ("--report",), ("--man-dir",), ("--n-derived",), (KEYS,)),
    Subcommand("rank-files", "rank source files against the report",
               ("--report", "--src"), ("--man-dir",), ("--n-derived", "--top-files"),
               (RANKED_FILES,)),
    Subcommand("mine-pairs", "mine the ranked syscall pair list",
               ("--report",), ("--man-dir",), ("--n-derived",), (PAIR_RANKING,)),
    Subcommand("locate", "resolve ranked instrumentation points",
               ("--report", "--src"), ("--man-dir",), ("--n-derived", "--top-files"),
               (POINTS,)),
    Subcommand("gen-tests", "expand a TSL spec into test cases",
               ("--report", "--tsl"), ("--scenario", "--commands"), (), (TEST_CASES,)),
    Subcommand("reproduce", "run the ranked reproduction loop",
               ("--report", "--src", "--scenario"), ("--man-dir",),
               ("--n-derived", "--top-files", "--max-attempts"), (REPRO,)),
    Subcommand("eval", "run the experiment over fixture bundles",
               (), ("--man-dir",), ("--n-derived", "--top-files", "--top-n", "--max-attempts")),
    Subcommand("pipeline", "run every stage end to end",
               ("--report", "--src", "--scenario"), ("--tsl", "--man-dir"),
               ("--n-derived", "--top-files", "--max-attempts"),
               (KEYS, RANKED_FILES, PAIR_RANKING, POINTS, TEST_CASES, REPRO, SCHEDULE)),
)


# --- running a subcommand -------------------------------------------------------

def _pipeline(args: argparse.Namespace) -> Pipeline:
    """The stages for these arguments; the mode and config are validated here."""
    mode, fraction = metrics_mod.parse_mode(args.mode)
    fields = (CONFIG_FLAGS[flag][0] for flag in args.subcommand.flags)
    config = ExperimentConfig(mode=mode, perturb_fraction=fraction, seed=args.seed,
                              **{name: getattr(args, name) for name in fields})
    given = (INPUT_FLAGS[flag][0] for flag in args.subcommand.inputs + args.subcommand.optional)
    return Pipeline(config, **{
        name: getattr(args, name) for name in given if getattr(args, name) is not None
    })


def write_artifacts(args: argparse.Namespace) -> int:
    """Build every payload, then write them; print the summary of the last
    artifact that has one and the path of the last artifact, if written."""
    pipe = _pipeline(args)
    artifacts = args.subcommand.artifacts
    payloads = [artifact.payload(pipe) for artifact in artifacts]
    for artifact, payload in zip(artifacts, payloads):
        if payload is not None:
            _write(args.out_dir, artifact.name, payload)
    shown = [artifact for artifact in artifacts if artifact.summary is not None][-1]
    for line in shown.summary(pipe):
        print(line)
    if payloads[-1] is not None:
        print(f"wrote {args.out_dir / artifacts[-1].name}")
    if REPRO in artifacts and not pipe.result.reproduced:
        return EXIT_NOT_REPRODUCED
    return EXIT_OK


def _bundle_from_dir(path: Path) -> FixtureBundle:
    candidates = [
        path / "report.txt",
        path / "report.json",
        path / f"{path.name}.txt",
        path / f"{path.name}.json",
    ]
    report = next((c for c in candidates if c.exists()), candidates[0])
    truth = path / "ground_truth.json"
    return FixtureBundle(
        bug_id=path.name,
        report_path=report,
        src_root=path / "src",
        scenario_path=path / "scenario.json",
        ground_truth_path=truth if truth.exists() else None,
    )


def cmd_eval(args: argparse.Namespace) -> int:
    pipe = _pipeline(args)
    corpus = [_bundle_from_dir(Path(d)) for d in args.fixtures]
    rows = metrics_mod.run_experiment(corpus, pipe.config, pipe.catalog)
    payload = {
        "schema": "racerepro/results/v1",
        "mode": args.mode,
        "rows": [metrics_mod.row_to_json(r) for r in rows],
    }
    _write(args.out_dir, "results.json", payload)
    table_path = _write(
        args.out_dir, "results.tsv", metrics_mod.render_table(rows, include_time=False) + "\n"
    )
    print(metrics_mod.render_table(rows, include_time=True))
    print(f"wrote {args.out_dir / 'results.json'} and {table_path}")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racerepro",
        description=(
            "Localize and deterministically reproduce syscall-interleaving "
            "bugs from natural-language bug reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for subcommand in SUBCOMMANDS:
        p = sub.add_parser(subcommand.name, help=subcommand.help)
        for flag in subcommand.inputs + subcommand.optional:
            name, kind, text = INPUT_FLAGS[flag]
            p.add_argument(flag, dest=name, type=kind, required=flag in subcommand.inputs,
                           metavar=flag[2:].upper().replace("-", "_"), help=text)
        for flag in subcommand.flags:
            name, text = CONFIG_FLAGS[flag]
            default = getattr(ExperimentConfig, name)
            p.add_argument(flag, dest=name, type=int, default=default, metavar="N",
                           help=f"{text} (default: {default})")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="directory for artifact files (default: .)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (required for stochastic modes)")
        p.add_argument("--mode", default=metrics_mod.MODE_STRUCTURED_IR,
                       help="pipeline mode: " + " | ".join(
                           f"{m}@<f>" if m == metrics_mod.MODE_PERTURBED else m
                           for m in metrics_mod.MODES))
        p.set_defaults(subcommand=subcommand, func=write_artifacts)

    p = sub.choices["eval"]
    p.add_argument("fixtures", nargs="+",
                   help="fixture bundle directories (report + src/ + scenario.json)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # a bad configuration, an unusable input file or --out-dir
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
