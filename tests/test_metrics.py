"""Metric arithmetic, report perturbation, and the experiment driver."""

from __future__ import annotations

import json

import pytest

from racerepro import metrics

from conftest import GZIP_DIR, MV_DIR
from racerepro.metrics import (
    MODE_APRIORI,
    MODE_BASIC_IR,
    MODE_NO_APRIORI,
    MODE_PERTURBED,
    MODE_RANDOM_BASELINE,
    MODE_STRUCTURED_IR,
    MODES,
    ConfigError,
    ExperimentConfig,
    FixtureBundle,
    Pipeline,
    annotator_agreement,
    average_precision,
    load_ground_truth,
    location_ranking,
    no_apriori_ranking,
    parse_mode,
    perturb_report,
    recall_at_k,
    render_table,
    row_to_json,
    run_experiment,
    run_fixture,
)
from racerepro.mining import InstrumentationPoint, Site
from racerepro.reports import BugReport


def _mv_bundle() -> FixtureBundle:
    return FixtureBundle(
        bug_id="mv_438076",
        report_path=MV_DIR / "mv_438076.txt",
        src_root=MV_DIR / "src",
        scenario_path=MV_DIR / "scenario.json",
        ground_truth_path=MV_DIR / "ground_truth.json",
    )


def _gzip_bundle() -> FixtureBundle:
    return FixtureBundle(
        bug_id="gzip_371162",
        report_path=GZIP_DIR / "gzip_371162.txt",
        src_root=GZIP_DIR / "src",
        scenario_path=GZIP_DIR / "scenario.json",
        ground_truth_path=GZIP_DIR / "ground_truth.json",
    )


# --- average precision --------------------------------------------------------

def test_ap_all_relevant_on_top_is_one():
    assert average_precision(["a", "b", "c"], {"a", "b"}) == pytest.approx(1.0)


def test_ap_relevant_at_ranks_one_and_three_is_exact():
    got = average_precision(["a", "x", "b", "y"], {"a", "b"})
    assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
    assert got == pytest.approx(0.8333, abs=1e-4)


def test_ap_missing_relevant_contributes_zero():
    assert average_precision(["a"], {"a", "ghost"}) == pytest.approx(0.5)
    assert average_precision([], {"ghost"}) == 0.0


def test_ap_rejects_empty_relevant():
    with pytest.raises(ValueError):
        average_precision(["a"], set())


# --- recall -------------------------------------------------------------------

def test_recall_full_and_half():
    assert recall_at_k(["a", "b"], {"a", "b"}, k=20) == pytest.approx(1.0)
    assert recall_at_k(["a", "x"], {"a", "ghost"}, k=20) == pytest.approx(0.5)


def test_recall_respects_k():
    assert recall_at_k(["x", "a"], {"a"}, k=1) == 0.0
    assert recall_at_k(["x", "a"], {"a"}, k=2) == 1.0


def test_recall_rejects_bad_arguments():
    with pytest.raises(ValueError):
        recall_at_k(["a"], {"a"}, k=0)
    with pytest.raises(ValueError):
        recall_at_k(["a"], set())


# --- annotator agreement --------------------------------------------------------

def test_agreement_published_value():
    assert annotator_agreement(23, 24) == pytest.approx(0.9583, abs=1e-4)


def test_agreement_rejects_bad_arguments():
    with pytest.raises(ValueError):
        annotator_agreement(1, 0)
    with pytest.raises(ValueError):
        annotator_agreement(25, 24)
    with pytest.raises(ValueError):
        annotator_agreement(-1, 24)


# --- perturbation ---------------------------------------------------------------

TEN_WORDS = "one two three four five six seven eight nine ten"


def test_perturb_fraction_zero_is_identity():
    report = BugReport("t", "s", TEN_WORDS)
    assert perturb_report(report, 0.0, seed=1) is report


def test_perturb_fraction_one_empties_the_body():
    report = BugReport("t", "s", TEN_WORDS)
    assert perturb_report(report, 1.0, seed=1).body == ""


def test_perturb_half_removes_floor_of_half():
    report = BugReport("t", "s", TEN_WORDS)
    out = perturb_report(report, 0.5, seed=9)
    assert len(out.body.split()) == 5
    assert set(out.body.split()) < set(TEN_WORDS.split())


def test_perturb_keeps_subject_and_order():
    report = BugReport("t", "keep me intact", TEN_WORDS)
    out = perturb_report(report, 0.3, seed=2)
    assert out.subject == "keep me intact"
    survivors = out.body.split()
    original = TEN_WORDS.split()
    assert survivors == [w for w in original if w in set(survivors)]


def test_perturb_is_seed_deterministic():
    report = BugReport("t", "s", TEN_WORDS)
    assert perturb_report(report, 0.5, seed=4).body == perturb_report(report, 0.5, seed=4).body


def test_perturb_rejects_out_of_range_fraction():
    report = BugReport("t", "s", TEN_WORDS)
    with pytest.raises(ValueError):
        perturb_report(report, -0.1, seed=0)
    with pytest.raises(ValueError):
        perturb_report(report, 1.5, seed=0)


# --- mode parsing -----------------------------------------------------------------

def test_parse_mode_plain_modes():
    for mode in MODES:
        if mode == MODE_PERTURBED:
            continue
        assert parse_mode(mode) == (mode, None)


def test_parse_mode_perturbed_carries_fraction():
    assert parse_mode("perturbed@0.1") == (MODE_PERTURBED, 0.1)
    assert parse_mode("perturbed@0.5") == (MODE_PERTURBED, 0.5)


@pytest.mark.parametrize(
    "text", ["perturbed", "perturbed@", "perturbed@abc", "perturbed@1.5", "telekinesis"]
)
def test_parse_mode_rejects(text):
    with pytest.raises(ConfigError):
        parse_mode(text)


def test_stochastic_modes_require_seed():
    bundle = _mv_bundle()
    with pytest.raises(ConfigError):
        run_fixture(bundle, ExperimentConfig(mode=MODE_RANDOM_BASELINE))
    with pytest.raises(ConfigError):
        run_fixture(bundle, ExperimentConfig(mode=MODE_PERTURBED, perturb_fraction=0.1))
    with pytest.raises(ConfigError):
        run_fixture(bundle, ExperimentConfig(mode=MODE_PERTURBED, seed=1))
    with pytest.raises(ConfigError):
        run_fixture(bundle, ExperimentConfig(recall_k=0))


# --- ground truth and location ranking ------------------------------------------

def test_load_ground_truth_mv():
    truth = load_ground_truth(MV_DIR / "ground_truth.json")
    assert truth.bug_id == "mv_438076"
    assert truth.expected_files == ["copy.c"]
    assert truth.expected_syscalls == [
        ("unlink", "copy.c", "copy_internal", 307),
        ("rename", "copy.c", "copy_internal", 309),
    ]


def test_ground_truth_requires_syscalls(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"id": "x", "files": ["a.c"], "syscalls": []}))
    with pytest.raises(ValueError):
        load_ground_truth(path)


def test_location_ranking_anchor_then_partner_dedup():
    partner = Site(syscall="rename", file="a.c", function="f", line=9)
    points = [
        InstrumentationPoint(rank=1, syscall="unlink", file="a.c", function="f",
                             line=3, placement="between-pair", pair_partner=partner),
        InstrumentationPoint(rank=2, syscall="unlink", file="a.c", function="f",
                             line=3, placement="before"),
        InstrumentationPoint(rank=3, syscall="open", file="b.c", function="g",
                             line=1, placement="after"),
    ]
    assert location_ranking(points) == [
        ("unlink", "a.c", "f", 3),
        ("rename", "a.c", "f", 9),
        ("open", "b.c", "g", 1),
    ]


def test_no_apriori_ranks_by_raw_count(mv_keys):
    ranking = no_apriori_ranking(mv_keys)
    assert all(len(e.items) == 1 for e in ranking.entries)
    assert [e.items[0] for e in ranking.entries][:2] == ["rename", "close"]
    freqs = [e.frequency for e in ranking.entries]
    assert freqs == sorted(freqs, reverse=True)


def test_no_apriori_without_keys_enumerates_every_site(tmp_path):
    # a report of stop words yields no keys; the ablation drops pair
    # mining, not the fallback that instruments every site
    report = tmp_path / "stop_words.txt"
    report.write_text("Subject: the and of\n\nit is about them and all of the above\n")
    points = {}
    for mode in (MODE_STRUCTURED_IR, MODE_NO_APRIORI):
        pipe = Pipeline(ExperimentConfig(mode=mode), report_path=report, src_root=MV_DIR / "src")
        assert not pipe.keys.entries
        assert pipe.ranking.enumerate_all
        points[mode] = pipe.points
    assert points[MODE_NO_APRIORI] == points[MODE_STRUCTURED_IR] != []


# --- experiment driver -------------------------------------------------------------

def test_empty_corpus_gives_empty_table():
    assert run_experiment([], ExperimentConfig()) == []
    assert render_table([]) == "Bug\tMode\tBRk\tSRk\tRank\tORnk\tRec\tMAP\tSuc\tNoR\tTime(s)"


def test_mv_structured_row():
    row = run_fixture(_mv_bundle(), ExperimentConfig(mode=MODE_STRUCTURED_IR))
    assert (row.brk, row.srk) == (1, 1)
    assert row.rank == [1, 2]
    assert row.rec == pytest.approx(1.0)
    assert row.map_score == pytest.approx(1.0)
    assert (row.suc, row.nor) == ("Y", 1)


def test_mv_no_apriori_row_degrades():
    row = run_fixture(_mv_bundle(), ExperimentConfig(mode=MODE_NO_APRIORI))
    assert row.rec == pytest.approx(0.5)
    assert row.map_score == pytest.approx(0.1823, abs=1e-4)
    assert (row.suc, row.nor) == ("Y", 5)


def test_gzip_rows_score_the_visible_site():
    row = run_fixture(_gzip_bundle(), ExperimentConfig(mode=MODE_APRIORI))
    assert (row.brk, row.srk) == (1, 1)
    assert row.rank == [None, 1]
    assert row.rec == pytest.approx(0.5)
    assert row.map_score == pytest.approx(0.5)
    assert (row.suc, row.nor) == ("Y", 1)


def test_random_baseline_row_uses_seed():
    row = run_fixture(_mv_bundle(), ExperimentConfig(mode=MODE_RANDOM_BASELINE, seed=3))
    assert (row.suc, row.nor) == ("Y", 1)
    again = run_fixture(_mv_bundle(), ExperimentConfig(mode=MODE_RANDOM_BASELINE, seed=3))
    assert (again.suc, again.nor) == (row.suc, row.nor)


def test_unscored_row_without_ground_truth(tmp_path):
    bundle = _mv_bundle()
    bundle.ground_truth_path = tmp_path / "missing.json"
    row = run_fixture(bundle, ExperimentConfig())
    assert row.unscored
    assert row.brk is None and row.rec is None
    assert (row.suc, row.nor) == ("Y", 1)


def _counting(monkeypatch, name: str) -> list:
    """Record the arguments of every call to ``metrics.<name>``."""
    calls, real = [], getattr(metrics, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, name, wrapper)
    return calls


@pytest.mark.parametrize("mode", [MODE_STRUCTURED_IR, MODE_NO_APRIORI, MODE_BASIC_IR])
def test_run_fixture_locates_once_per_ranking(monkeypatch, mode):
    calls = _counting(monkeypatch, "locate")
    run_fixture(_mv_bundle(), ExperimentConfig(mode=mode))
    rankings = [args[0] for args in calls]
    assert len(calls) == 2
    assert len({id(r) for r in rankings}) == 2


def _mv_pipeline(**config) -> Pipeline:
    return Pipeline(
        ExperimentConfig(**config),
        report_path=MV_DIR / "mv_438076.txt",
        src_root=MV_DIR / "src",
        scenario_path=MV_DIR / "scenario.json",
    )


def test_pipeline_runs_each_stage_once(monkeypatch):
    index_calls = _counting(monkeypatch, "index_tree")
    locate_calls = _counting(monkeypatch, "locate")
    pipe = _mv_pipeline()
    assert pipe.result.reproduced
    assert pipe.apriori_points is pipe.points
    assert pipe.keys is pipe.keys
    assert (len(index_calls), len(locate_calls)) == (1, 1)


def test_pipeline_mode_picks_the_stages():
    structured = _mv_pipeline()
    assert structured.file_ranking is structured.structured
    assert structured.ranking is structured.apriori
    basic = _mv_pipeline(mode=MODE_BASIC_IR)
    assert basic.file_ranking is basic.basic
    assert basic.file_ranking.scheme != structured.file_ranking.scheme
    ablation = _mv_pipeline(mode=MODE_NO_APRIORI)
    assert ablation.ranking is ablation.ablation
    assert all(len(e.items) == 1 for e in ablation.ranking.entries)


def test_pipeline_stages_are_lazy(monkeypatch):
    index_calls = _counting(monkeypatch, "index_tree")
    pipe = _mv_pipeline(mode=MODE_PERTURBED, perturb_fraction=1.0, seed=1)
    assert pipe.report.body == ""
    assert "catalog" not in vars(pipe)
    baseline = _mv_pipeline(mode=MODE_RANDOM_BASELINE, seed=3)
    assert baseline.result.reproduced
    assert index_calls == []


def test_pipeline_validates_its_config():
    with pytest.raises(ConfigError):
        _mv_pipeline(mode=MODE_RANDOM_BASELINE)


# --- rendering ----------------------------------------------------------------------

def test_render_table_time_column_toggle():
    row = run_fixture(_mv_bundle(), ExperimentConfig())
    human = render_table([row])
    assert "Time(s)" in human.splitlines()[0]
    artifact = render_table([row], include_time=False)
    assert "Time(s)" not in artifact
    assert artifact.splitlines()[1].split("\t")[:2] == ["mv_438076", "structured-ir"]


def test_row_json_is_deterministic_and_timeless():
    row = run_fixture(_mv_bundle(), ExperimentConfig())
    payload = row_to_json(row)
    assert "time" not in payload and "time_s" not in payload
    assert payload["rank"] == [1, 2]
    again = row_to_json(run_fixture(_mv_bundle(), ExperimentConfig()))
    assert payload == again
