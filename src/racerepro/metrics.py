"""Evaluation metrics and the fixture experiment driver.

Metric arithmetic is exact: AP over relevant ranks {1,3} is 0.8333..., not
a rounded 0.8.  The experiment driver runs the full pipeline per fixture
and emits one row per bug with the standard column set (BRk, SRk, Rank,
ORnk, Rec, MAP, Suc, NoR, Time); wall time belongs to human-readable
output only, never to structured artifacts, which stay byte-deterministic.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import catalog as catalog_mod
from . import harness as harness_mod
from . import mining, retrieval, testcases
from .catalog import Catalog, KeySystemCalls
from .csource import SourceIndex, index_tree
from .mining import InstrumentationPoint, PairRanking, RankEntry, Site, locate
from .reports import BugReport, json_of, load_json_object, load_report, reading
from .retrieval import RankedFiles

DEFAULT_RECALL_K = 20

MODE_BASIC_IR = "basic-ir"
MODE_STRUCTURED_IR = "structured-ir"
MODE_NO_APRIORI = "no-apriori"
MODE_APRIORI = "apriori"
MODE_RANDOM_BASELINE = "random-baseline"
MODE_PERTURBED = "perturbed"

MODES = (
    MODE_BASIC_IR,
    MODE_STRUCTURED_IR,
    MODE_NO_APRIORI,
    MODE_APRIORI,
    MODE_RANDOM_BASELINE,
    MODE_PERTURBED,
)


class ConfigError(ValueError):
    """Configuration problems that should surface as usage errors (exit 2)."""


# --- ranked-retrieval metrics -----------------------------------------------

def average_precision(ranked: list, relevant: set) -> float:
    """Mean over relevant items of (relevant seen so far) / rank.

    Relevant items missing from the ranking contribute 0.
    """
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranked, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def recall_at_k(ranked: list, relevant: set, k: int = DEFAULT_RECALL_K) -> float:
    """|relevant in the top k| / |relevant|."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    top = set(ranked[:k])
    return len(top & relevant) / len(relevant)


def annotator_agreement(agreements: int, total: int) -> float:
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= agreements <= total:
        raise ValueError(f"agreements must be in [0, {total}], got {agreements}")
    return agreements / total


# --- report perturbation ----------------------------------------------------

def perturb_report(report: BugReport, fraction: float, seed: int) -> BugReport:
    """Remove floor(fraction * wordcount) body words, uniformly per seed.

    The subject is untouched.  When no words are removed the report is
    returned unchanged; otherwise the body is rejoined with single spaces.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    words = report.body.split()
    n_remove = int(fraction * len(words))
    if n_remove == 0:
        return report
    rng = random.Random(seed)
    removed = set(rng.sample(range(len(words)), n_remove))
    kept = [w for i, w in enumerate(words) if i not in removed]
    return BugReport(report.id, report.subject, " ".join(kept))


# --- ground truth -----------------------------------------------------------

@dataclass
class GroundTruth:
    bug_id: str
    expected_files: list[str]
    expected_syscalls: list[Site]

    def __post_init__(self) -> None:
        if not self.expected_syscalls:
            raise ValueError("ground truth needs at least one expected syscall")


def load_ground_truth(path: str | Path) -> GroundTruth:
    data = load_json_object(path)
    with reading(path, "id"):
        bug_id = json_of(str, data["id"])
    with reading(path, "files"):
        expected_files = [json_of(str, f) for f in json_of(list, data["files"])]
    with reading(path, "syscalls"):
        return GroundTruth(
            bug_id=bug_id,
            expected_files=expected_files,
            expected_syscalls=[
                Site(*(json_of(str, s[k]) for k in ("syscall", "file", "function")),
                     json_of(int, s["line"]))
                for s in json_of(list, data["syscalls"])
            ],
        )


def location_ranking(points: list[InstrumentationPoint]) -> list[Site]:
    """Ranked distinct syscall locations implied by the point list.

    A between-pair point contributes its anchor first, then its partner;
    repeat visits of a site (before/after twins, later files) keep the
    first occurrence.
    """
    seen: set[Site] = set()
    out: list[Site] = []
    for point in points:
        for site in (point.site, point.pair_partner):
            if site is not None and site not in seen:
                seen.add(site)
                out.append(site)
    return out


# --- experiment driver ------------------------------------------------------

@dataclass
class FixtureBundle:
    bug_id: str
    report_path: Path
    src_root: Path
    scenario_path: Path
    ground_truth_path: Path | None = None

    def __post_init__(self) -> None:
        self.report_path = Path(self.report_path)
        self.src_root = Path(self.src_root)
        self.scenario_path = Path(self.scenario_path)
        if self.ground_truth_path is not None:
            self.ground_truth_path = Path(self.ground_truth_path)


@dataclass
class ExperimentConfig:
    mode: str = MODE_STRUCTURED_IR
    perturb_fraction: float | None = None
    seed: int | None = None
    n_derived: int = catalog_mod.DEFAULT_DERIVED_N
    top_files: int = retrieval.DEFAULT_TOP_FILES
    recall_k: int = DEFAULT_RECALL_K
    max_attempts: int = harness_mod.DEFAULT_MAX_ATTEMPTS


def parse_mode(text: str) -> tuple[str, float | None]:
    """Parse a mode flag; ``perturbed@0.5`` carries its removal fraction."""
    if text.startswith(MODE_PERTURBED + "@"):
        raw = text[len(MODE_PERTURBED) + 1 :]
        try:
            fraction = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad perturbation fraction: {raw!r}") from exc
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"perturbation fraction must be in [0, 1], got {fraction}")
        return MODE_PERTURBED, fraction
    if text == MODE_PERTURBED:
        raise ConfigError("perturbed mode needs a fraction: perturbed@<f>")
    if text not in MODES:
        raise ConfigError(f"unknown mode {text!r}; expected one of {', '.join(MODES)}")
    return text, None


def _validate_config(config: ExperimentConfig) -> None:
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}")
    if config.mode == MODE_PERTURBED and config.perturb_fraction is None:
        raise ConfigError("perturbed mode needs perturb_fraction")
    stochastic = config.mode in (MODE_RANDOM_BASELINE, MODE_PERTURBED)
    if stochastic and config.seed is None:
        raise ConfigError(f"mode {config.mode!r} is stochastic and requires a seed")
    for name in ("n_derived", "top_files", "recall_k", "max_attempts"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1")


def no_apriori_ranking(keys: KeySystemCalls) -> PairRanking:
    """Ablation: singletons by raw mention count, no pair formation.

    Without keys there is nothing to count, so, as in ``rank_fallback``, the
    locator enumerates every syscall site.
    """
    if not keys.entries:
        return PairRanking(entries=[], enumerate_all=True)
    counts = {entry.name: entry.count for entry in keys.entries}
    entries = [
        RankEntry(items=(name,), frequency=count)
        for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return PairRanking(entries=entries)


class Pipeline:
    """The stage graph, defined once; each stage runs on first use.

    report -> keys -> (index) basic / structured -> file_ranking;
    keys -> apriori / ablation -> ranking; (apriori or ablation,
    file_ranking, index) -> apriori_points / ablation_points -> points;
    (scenario, points) -> result; (tsl, report, commands) -> test_cases.
    The mode picks file_ranking, ranking, points and result and perturbs
    the report; the CLI subcommands, the experiment driver and the demos
    all read their stages from here.  Stages call ``load_report``,
    ``index_tree``, ``locate`` and the ``testcases`` functions through
    module globals so that wrappers installed there see every call.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        report_path: str | Path | None = None,
        src_root: str | Path | None = None,
        scenario_path: str | Path | None = None,
        catalog: Catalog | None = None,
        man_dir: str | Path | None = None,
        tsl_path: str | Path | None = None,
        commands: Sequence[str] = (),
    ) -> None:
        _validate_config(config)
        self.config = config
        self.report_path = report_path
        self.src_root = src_root
        self.scenario_path = scenario_path
        self.man_dir = man_dir
        self.tsl_path = tsl_path
        self.commands = commands
        if catalog is not None:
            self.catalog = catalog

    @cached_property
    def catalog(self) -> Catalog:
        if self.man_dir is not None:
            return catalog_mod.load_catalog(self.man_dir)
        return catalog_mod.bundled_catalog()

    @cached_property
    def report(self) -> BugReport:
        report = load_report(self.report_path)
        if self.config.mode == MODE_PERTURBED:
            report = perturb_report(report, self.config.perturb_fraction, self.config.seed)
        return report

    @cached_property
    def keys(self) -> KeySystemCalls:
        return catalog_mod.extract(self.report, self.catalog, self.config.n_derived)

    @cached_property
    def index(self) -> SourceIndex:
        return index_tree(self.src_root, frozenset(self.catalog.entries))

    @cached_property
    def basic(self) -> RankedFiles:
        return retrieval.rank_basic(self.report, self.index)

    @cached_property
    def structured(self) -> RankedFiles:
        return retrieval.rank_structured(self.report, self.keys, self.index)

    @cached_property
    def file_ranking(self) -> RankedFiles:
        return self.basic if self.config.mode == MODE_BASIC_IR else self.structured

    @cached_property
    def apriori(self) -> PairRanking:
        return mining.rank_interleavings(self.report, self.keys)

    @cached_property
    def ablation(self) -> PairRanking:
        return no_apriori_ranking(self.keys)

    @cached_property
    def ranking(self) -> PairRanking:
        return self.ablation if self.config.mode == MODE_NO_APRIORI else self.apriori

    @cached_property
    def apriori_points(self) -> list[InstrumentationPoint]:
        return locate(self.apriori, self.file_ranking, self.index, self.config.top_files)

    @cached_property
    def ablation_points(self) -> list[InstrumentationPoint]:
        return locate(self.ablation, self.file_ranking, self.index, self.config.top_files)

    @cached_property
    def points(self) -> list[InstrumentationPoint]:
        no_apriori = self.config.mode == MODE_NO_APRIORI
        return self.ablation_points if no_apriori else self.apriori_points

    @cached_property
    def scenario(self) -> harness_mod.Scenario:
        return harness_mod.load_scenario(self.scenario_path)

    @cached_property
    def result(self) -> harness_mod.ReproResult:
        config = self.config
        if config.mode == MODE_RANDOM_BASELINE:
            return harness_mod.random_baseline(self.scenario, config.max_attempts, config.seed)
        return harness_mod.reproduce(self.scenario, self.points, config.max_attempts)

    @cached_property
    def test_cases(self) -> tuple[testcases.TestCase, list[testcases.TestCase]]:
        """(elements extracted from the report, expanded TSL test cases).

        Known commands: the given ones, the scenario's process names when
        there is a scenario, and the spec's ``command`` choices.
        """
        with reading(self.tsl_path):
            spec = testcases.parse_tsl(Path(self.tsl_path).read_text("utf-8"))
        known = list(self.commands)
        if self.scenario_path is not None:
            known.extend(self.scenario.process_names)
        known.extend(
            choice.value
            for category in spec.categories if category.name == "command"
            for choice in category.choices
        )
        partial = testcases.extract_elements(self.report, known)
        with reading(self.tsl_path):
            return partial, testcases.expand_tsl(spec, partial)


@dataclass
class ExperimentRow:
    bug_id: str
    mode: str
    brk: int | None = None  # best BasicIR rank of an expected file
    srk: int | None = None  # best structured rank of an expected file
    rank: list[int | None] = field(default_factory=list)  # GT locations, apriori
    ornk: list[int | None] = field(default_factory=list)  # GT locations, no-apriori
    rec: float | None = None
    map_score: float | None = None
    suc: str = "N"
    nor: int = 0
    time_s: float = 0.0  # human output only; never serialized into artifacts
    unscored: bool = False
    notes: str = ""


def _best_file_rank(ranked: RankedFiles, expected_files: list[str]) -> int | None:
    ranks = [r for f in expected_files if (r := ranked.rank_of(f)) is not None]
    return min(ranks) if ranks else None


def _gt_location_ranks(
    points: list[InstrumentationPoint], truth: GroundTruth
) -> list[int | None]:
    ranking = location_ranking(points)
    positions = {site_id: i for i, site_id in enumerate(ranking, start=1)}
    return [positions.get(site_id) for site_id in truth.expected_syscalls]


def run_fixture(
    bundle: FixtureBundle, config: ExperimentConfig, catalog: Catalog | None = None
) -> ExperimentRow:
    """Run the pipeline on one fixture and score it against its ground truth."""
    start = time.perf_counter()
    pipe = Pipeline(
        config, bundle.report_path, bundle.src_root, bundle.scenario_path, catalog
    )
    row = ExperimentRow(bug_id=bundle.bug_id, mode=config.mode)
    row.suc = "Y" if pipe.result.reproduced else "N"
    row.nor = pipe.result.attempts

    truth_path = bundle.ground_truth_path
    if truth_path is None or not truth_path.exists():
        row.unscored = True
        row.notes = "no ground truth"
    else:
        truth = load_ground_truth(truth_path)
        row.brk = _best_file_rank(pipe.basic, truth.expected_files)
        row.srk = _best_file_rank(pipe.structured, truth.expected_files)
        row.rank = _gt_location_ranks(pipe.apriori_points, truth)
        row.ornk = _gt_location_ranks(pipe.ablation_points, truth)
        ranking = location_ranking(pipe.points)
        relevant = set(truth.expected_syscalls)
        row.rec = recall_at_k(ranking, relevant, config.recall_k)
        row.map_score = average_precision(ranking, relevant)

    row.time_s = time.perf_counter() - start
    return row


def run_experiment(
    corpus: list[FixtureBundle],
    config: ExperimentConfig,
    catalog: Catalog | None = None,
) -> list[ExperimentRow]:
    """One scored row per fixture; an empty corpus gives an empty table."""
    return [run_fixture(bundle, config, catalog) for bundle in corpus]


# --- rendering --------------------------------------------------------------

def _fmt_ranks(ranks: list[int | None]) -> str:
    if not ranks:
        return "-"
    return ",".join(str(r) if r is not None else "inf" for r in ranks)


def render_table(rows: list[ExperimentRow], include_time: bool = True) -> str:
    """Tab-separated table mirroring the results-table column structure."""
    header = ["Bug", "Mode", "BRk", "SRk", "Rank", "ORnk", "Rec", "MAP", "Suc", "NoR"]
    if include_time:
        header.append("Time(s)")
    lines = ["\t".join(header)]
    for row in rows:
        cells = [
            row.bug_id,
            row.mode,
            str(row.brk) if row.brk is not None else "-",
            str(row.srk) if row.srk is not None else "-",
            _fmt_ranks(row.rank),
            _fmt_ranks(row.ornk),
            f"{row.rec:.4f}" if row.rec is not None else "-",
            f"{row.map_score:.4f}" if row.map_score is not None else "-",
            row.suc,
            str(row.nor),
        ]
        if include_time:
            cells.append(f"{row.time_s:.3f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)


def row_to_json(row: ExperimentRow) -> dict:
    """Structured row for artifact files; deterministic (wall time excluded)."""
    return {
        "bug_id": row.bug_id,
        "mode": row.mode,
        "brk": row.brk,
        "srk": row.srk,
        "rank": row.rank,
        "ornk": row.ornk,
        "rec": row.rec,
        "map": row.map_score,
        "suc": row.suc,
        "nor": row.nor,
        "unscored": row.unscored,
        "notes": row.notes,
    }
