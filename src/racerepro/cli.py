"""Command-line surface over the pipeline stages.

Each subcommand builds one ``metrics.Pipeline`` from its arguments, reads
the stages it needs, writes a schema-tagged JSON artifact into --out-dir,
and prints a short human summary.  Exit codes:
0 success, 1 failure-to-reproduce, 2 usage/config error.  Artifacts are
pure functions of (inputs, config, seed): no timestamps or wall times go
into files, so re-running a stage with unchanged inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
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

def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("w", encoding="utf-8") as fh:
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


# --- subcommands ------------------------------------------------------------

#: flag -> (ExperimentConfig field, help); a subcommand that does not take
#: a flag leaves its field at the config's default
CONFIG_FLAGS = {
    "--n-derived": ("n_derived", "top-n cut for derived syscall extraction"),
    "--top-files": ("top_files", "files searched for instrumentation points"),
    "--top-n": ("recall_k", "K for recall@K in evaluation"),
    "--max-attempts": ("max_attempts", "reproduction attempt budget"),
}


def _pipeline(args: argparse.Namespace) -> Pipeline:
    """The stages for these arguments; the mode and config are validated here."""
    mode, fraction = metrics_mod.parse_mode(args.mode)
    config = ExperimentConfig(
        mode=mode,
        perturb_fraction=fraction,
        seed=args.seed,
        **{name: getattr(args, name) for name, _ in CONFIG_FLAGS.values() if hasattr(args, name)},
    )
    return Pipeline(
        config,
        report_path=getattr(args, "report", None),
        src_root=getattr(args, "src", None),
        scenario_path=getattr(args, "scenario", None),
        man_dir=getattr(args, "man_dir", None),
        tsl_path=getattr(args, "tsl", None),
        commands=[n.strip() for n in getattr(args, "commands", "").split(",") if n.strip()],
    )


def cmd_extract(args: argparse.Namespace) -> int:
    keys = _pipeline(args).keys
    path = _write_json(args.out_dir, "keys.json", _keys_payload(keys))
    print(f"extraction path: {keys.path}")
    for entry in keys.entries:
        print(f"  {entry.name}: {entry.count} ({entry.source})")
    if not keys.entries:
        print("  (no system calls extracted)")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_rank_files(args: argparse.Namespace) -> int:
    ranked = _pipeline(args).file_ranking
    path = _write_json(args.out_dir, "ranked_files.json", _ranked_files_payload(ranked))
    print(f"scheme: {ranked.scheme}")
    for rank_no, (file_path, score) in enumerate(ranked.entries[: args.top_files], 1):
        print(f"  {rank_no:2d}. {file_path}  {score:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_mine_pairs(args: argparse.Namespace) -> int:
    ranking = _pipeline(args).apriori
    path = _write_json(args.out_dir, "pair_ranking.json", _ranking_payload(ranking))
    if ranking.enumerate_all:
        print("no key system calls: locator will enumerate all sites")
    for entry in ranking.entries:
        print(f"  {{{', '.join(entry.items)}}} = {entry.frequency}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_locate(args: argparse.Namespace) -> int:
    points = _pipeline(args).points
    path = _write_json(args.out_dir, "points.json", _points_payload(points))
    for p in points:
        partner = ""
        if p.pair_partner is not None:
            partner = f" (pair with {p.pair_partner.syscall}:{p.pair_partner.line})"
        print(f"  {p.rank:3d}. {p.placement} {p.syscall} {p.file}:{p.function}:{p.line}{partner}")
    if not points:
        print("  (no instrumentation points)")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gen_tests(args: argparse.Namespace) -> int:
    partial, cases = _pipeline(args).test_cases
    path = _write_json(args.out_dir, "test_cases.json", _test_cases_payload(partial, cases))
    for c in cases:
        marker = " [error]" if c.error else ""
        print(f"  {c.render()}{marker}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    pipe = _pipeline(args)
    result = pipe.result
    path = _write_json(args.out_dir, "repro.json", _repro_payload(pipe.scenario, result))
    print(f"reproduced: {result.reproduced} in {result.attempts} attempts "
          f"({result.wall_time:.3f}s)")
    if result.schedule is not None:
        for line in harness_mod.format_schedule(pipe.scenario, result.schedule):
            print(f"  {line}")
    print(f"wrote {path}")
    return EXIT_OK if result.reproduced else EXIT_NOT_REPRODUCED


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
    _write_json(args.out_dir, "results.json", payload)
    table_path = args.out_dir / "results.tsv"
    table_path.write_text(
        metrics_mod.render_table(rows, include_time=False) + "\n", "utf-8"
    )
    print(metrics_mod.render_table(rows, include_time=True))
    print(f"wrote {args.out_dir / 'results.json'} and {table_path}")
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    pipe = _pipeline(args)
    _write_json(args.out_dir, "keys.json", _keys_payload(pipe.keys))
    _write_json(args.out_dir, "ranked_files.json", _ranked_files_payload(pipe.file_ranking))
    _write_json(args.out_dir, "pair_ranking.json", _ranking_payload(pipe.ranking))
    _write_json(args.out_dir, "points.json", _points_payload(pipe.points))
    if args.tsl:
        _write_json(args.out_dir, "test_cases.json", _test_cases_payload(*pipe.test_cases))

    result = pipe.result
    _write_json(args.out_dir, "repro.json", _repro_payload(pipe.scenario, result))
    print(f"reproduced: {result.reproduced} in {result.attempts} attempts "
          f"({result.wall_time:.3f}s)")
    if result.reproduced and result.schedule is not None:
        lines = harness_mod.format_schedule(pipe.scenario, result.schedule)
        schedule_path = args.out_dir / "schedule.txt"
        schedule_path.write_text("\n".join(lines) + "\n", "utf-8")
        for line in lines:
            print(f"  {line}")
        print(f"wrote {schedule_path}")
        return EXIT_OK
    return EXIT_NOT_REPRODUCED


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

    def add_common(p: argparse.ArgumentParser, *flags: str, report=False, src=False,
                   scenario=False, tsl=False, catalog=True) -> None:
        if report:
            p.add_argument("--report", required=True, type=Path,
                           help="bug report (.txt with Subject: line, or .json)")
        if src:
            p.add_argument("--src", required=True, type=Path,
                           help="C source tree root")
        if scenario:
            p.add_argument("--scenario", required=True, type=Path,
                           help="scenario file (JSON)")
        if tsl:
            p.add_argument("--tsl", type=Path, default=None,
                           help="TSL category-partition spec file")
        if catalog:
            p.add_argument("--man-dir", type=Path, default=None,
                           help="man-page catalog directory (default: bundled)")
            flags = ("--n-derived", *flags)
        for flag in flags:
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

    p = sub.add_parser("extract", help="extract KeySystemCalls from a report")
    add_common(p, report=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("rank-files", help="rank source files against the report")
    add_common(p, "--top-files", report=True, src=True)
    p.set_defaults(func=cmd_rank_files)

    p = sub.add_parser("mine-pairs", help="mine the ranked syscall pair list")
    add_common(p, report=True)
    p.set_defaults(func=cmd_mine_pairs)

    p = sub.add_parser("locate", help="resolve ranked instrumentation points")
    add_common(p, "--top-files", report=True, src=True)
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("gen-tests", help="expand a TSL spec into test cases")
    add_common(p, report=True, catalog=False)
    p.add_argument("--tsl", required=True, type=Path, help="TSL spec file")
    p.add_argument("--scenario", type=Path, default=None,
                   help="scenario file (its process names seed known commands)")
    p.add_argument("--commands", default="",
                   help="comma-separated known command names")
    p.set_defaults(func=cmd_gen_tests)

    p = sub.add_parser("reproduce", help="run the ranked reproduction loop")
    add_common(p, "--top-files", "--max-attempts", report=True, src=True, scenario=True)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("eval", help="run the experiment over fixture bundles")
    add_common(p, "--top-files", "--top-n", "--max-attempts")
    p.add_argument("fixtures", nargs="+",
                   help="fixture bundle directories (report + src/ + scenario.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    add_common(p, "--top-files", "--max-attempts",
               report=True, src=True, scenario=True, tsl=True)
    p.set_defaults(func=cmd_pipeline)

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
