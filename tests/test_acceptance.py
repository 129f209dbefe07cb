"""Acceptance gate: one criterion per test, each time-bounded.

The conftest hook collects the tagged results and prints one PASS/FAIL
line per criterion in the terminal summary.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from conftest import FIXTURES, MV_DIR
from racerepro.catalog import KeyEntry, KeySystemCalls, extract
from racerepro.cli import EXIT_OK, main
from racerepro.csource import index_tree
from racerepro.harness import enumerate_interleavings, load_scenario, reproduce
from racerepro.metrics import (
    MODE_APRIORI,
    MODE_BASIC_IR,
    MODE_NO_APRIORI,
    MODE_PERTURBED,
    ExperimentConfig,
    FixtureBundle,
    annotator_agreement,
    average_precision,
    recall_at_k,
    run_fixture,
)
from racerepro.mining import TransactionDB, locate, mine_pairs, rank_interleavings
from racerepro.reports import BugReport, load_report
from racerepro.retrieval import (
    build_index,
    rank,
    rank_basic,
    rank_structured,
    similarity,
)
from test_retrieval import _doc, _numpy_basic_oracle, _source_index

TOL = 1e-9


def _bundle(fixture_dir) -> FixtureBundle:
    return FixtureBundle(
        bug_id=fixture_dir.name,
        report_path=fixture_dir / f"{fixture_dir.name}.txt",
        src_root=fixture_dir / "src",
        scenario_path=fixture_dir / "scenario.json",
        ground_truth_path=fixture_dir / "ground_truth.json",
    )


# --- C1 ---------------------------------------------------------------------

def test_c1_worked_table_fidelity():
    start = time.perf_counter()
    db = TransactionDB(
        transactions=[
            (0, ["unlink", "rename"]),
            (1, ["link", "rename", "rename", "rename"]),
            (2, ["unlink", "rename"]),
        ]
    )
    ranking = mine_pairs(db)
    assert [(tuple(e.items), e.frequency) for e in ranking.entries] == [
        (("unlink", "rename"), 2),
        (("rename", "link"), 1),
        (("rename",), 5),
        (("unlink",), 2),
        (("link",), 1),
    ]
    assert all(set(e.items) != {"unlink", "link"} for e in ranking.entries)
    assert time.perf_counter() - start < 1.0


test_c1_worked_table_fidelity._criterion = "C1 worked-table fidelity"


# --- C2 ---------------------------------------------------------------------

def test_c2_mv_end_to_end(tmp_path):
    start = time.perf_counter()
    code = main([
        "pipeline",
        "--report", str(MV_DIR / "mv_438076.txt"),
        "--src", str(MV_DIR / "src"),
        "--scenario", str(MV_DIR / "scenario.json"),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK

    ranked = json.loads((tmp_path / "ranked_files.json").read_text())
    assert ranked["scheme"] == "structured"
    assert ranked["entries"][0]["path"] == "copy.c"

    points = json.loads((tmp_path / "points.json").read_text())["points"]
    assert points[0]["placement"] == "between-pair"
    assert (points[0]["syscall"], points[0]["function"]) == ("unlink", "copy_internal")
    assert points[0]["pair_partner"]["syscall"] == "rename"

    repro = json.loads((tmp_path / "repro.json").read_text())
    assert repro["reproduced"] is True
    assert repro["attempts"] == 1
    assert repro["schedule"]["lines"] == [
        "mv:unlink(foo) @ copy.c:copy_internal:307",
        "cat:open(foo)",
        "mv:rename(bar, foo) @ copy.c:copy_internal:309",
    ]
    assert time.perf_counter() - start < 10.0


test_c2_mv_end_to_end._criterion = "C2 mv end-to-end reproduction"


# --- C3 ---------------------------------------------------------------------

def test_c3_scheduler_soundness(catalog):
    start = time.perf_counter()
    scenario_paths = sorted(FIXTURES.glob("*/scenario.json"))
    assert scenario_paths, "no bundled scenarios found"
    for scenario_path in scenario_paths:
        fixture_dir = scenario_path.parent
        scenario = load_scenario(scenario_path)
        assert scenario.total_ops() <= 12, scenario.id

        report = load_report(fixture_dir / f"{fixture_dir.name}.txt")
        index = index_tree(fixture_dir / "src", frozenset(catalog.entries))
        keys = extract(report, catalog)
        ranked = rank_structured(report, keys, index)
        points = locate(rank_interleavings(report, keys), ranked, index)
        result = reproduce(scenario, points)
        assert result.reproduced, scenario.id

        all_results = enumerate_interleavings(scenario)
        failing = {
            tuple(sched.steps) for sched, verdict in all_results if verdict == "fail"
        }
        assert failing, scenario.id
        assert tuple(result.schedule.steps) in failing, scenario.id

        if scenario.id == "mv_438076":
            assert len(all_results) == 3
            assert len(failing) == 1
    assert time.perf_counter() - start < 30.0


test_c3_scheduler_soundness._criterion = "C3 scheduler soundness"


# --- C4 ---------------------------------------------------------------------

def test_c4_ir_fidelity(mv_report, mv_index, gzip_report, gzip_index):
    start = time.perf_counter()

    # hand-computed three-document cosine
    index = build_index(
        [
            ("d1", ["unlink", "rename"]),
            ("d2", ["rename", "rename", "close"]),
            ("d3", ["open", "close"]),
        ]
    )
    ln3, ln15 = math.log(3.0), math.log(1.5)
    q_norm = math.sqrt(ln3 * ln3 + ln15 * ln15)
    want_d2 = (ln15 / q_norm) * (2.0 * ln15 / (ln15 * math.sqrt(5.0)))
    query = ["unlink", "rename"]
    assert similarity(index, query, "d1") == pytest.approx(1.0, abs=TOL)
    assert similarity(index, query, "d2") == pytest.approx(want_d2, abs=TOL)
    assert similarity(index, query, "d3") == pytest.approx(0.0, abs=TOL)
    assert [doc for doc, _ in rank(index, query)] == ["d1", "d2", "d3"]

    # S_avg is the mean of the twelve field-scoped searches
    docs = [_doc("a.c", "alpha", "beta", "gamma"), _doc("b.c", "delta", "epsilon", "zeta")]
    report = BugReport.from_parts("t", "alpha", "beta")
    keys = KeySystemCalls(entries=[KeyEntry("gamma", 1, "direct")], path="direct")
    ranked = rank_structured(report, keys, _source_index(docs))
    assert ranked.entries[0][0] == "a.c"
    assert ranked.entries[0][1] == pytest.approx((3.0 + math.sqrt(3.0)) / 12.0, abs=TOL)
    assert ranked.entries[1][1] == pytest.approx(0.0, abs=TOL)

    # basic ranking matches the independent dense-matrix oracle on all fixtures
    for fixture_report, fixture_index in (
        (mv_report, mv_index), (gzip_report, gzip_index),
    ):
        got = rank_basic(fixture_report, fixture_index)
        want = _numpy_basic_oracle(fixture_report, fixture_index.docs)
        assert [p for p, _ in got.entries] == [p for p, _ in want]
        for (_, g), (_, w) in zip(got.entries, want):
            assert g == pytest.approx(w, abs=TOL)
    assert time.perf_counter() - start < 5.0


test_c4_ir_fidelity._criterion = "C4 IR fidelity"


# --- C5 ---------------------------------------------------------------------

def test_c5_metric_arithmetic():
    start = time.perf_counter()
    assert average_precision(["a", "b"], {"a", "b"}) == pytest.approx(1.0)
    assert average_precision(["a", "x", "b"], {"a", "b"}) == pytest.approx(0.8333, abs=1e-4)
    assert recall_at_k(["a", "b"], {"a", "b"}, k=20) == pytest.approx(1.0)
    assert recall_at_k(["a", "x"], {"a", "ghost"}, k=20) == pytest.approx(0.5)
    assert annotator_agreement(23, 24) == pytest.approx(0.9583, abs=1e-4)
    assert time.perf_counter() - start < 1.0


test_c5_metric_arithmetic._criterion = "C5 metric arithmetic"


# --- C6 ---------------------------------------------------------------------

def test_c6_ablation_order(catalog, mv_report, mv_keys, mv_index):
    start = time.perf_counter()
    bundle = _bundle(MV_DIR)
    apriori_row = run_fixture(bundle, ExperimentConfig(mode=MODE_APRIORI), catalog)
    ablation_row = run_fixture(bundle, ExperimentConfig(mode=MODE_NO_APRIORI), catalog)

    # the pair-mining ranking places BOTH ground-truth syscalls strictly
    # higher (smaller rank) than the no-apriori ablation does
    assert len(apriori_row.rank) == 2
    for with_pairs, without_pairs in zip(apriori_row.rank, ablation_row.ornk):
        assert with_pairs is not None and without_pairs is not None
        assert with_pairs < without_pairs

    # structured retrieval never places copy.c below its basic-IR rank
    basic = rank_basic(mv_report, mv_index)
    structured = rank_structured(mv_report, mv_keys, mv_index)
    assert structured.rank_of("copy.c") <= basic.rank_of("copy.c")
    assert time.perf_counter() - start < 10.0


test_c6_ablation_order._criterion = "C6 ablation ordering"


# --- C7 ---------------------------------------------------------------------

def test_c7_perturbation_robustness(catalog):
    start = time.perf_counter()
    bundle = _bundle(MV_DIR)
    seeds = range(20)

    light = [
        run_fixture(
            bundle,
            ExperimentConfig(mode=MODE_PERTURBED, perturb_fraction=0.1, seed=seed),
            catalog,
        )
        for seed in seeds
    ]
    assert all(row.suc == "Y" and row.nor <= 100 for row in light)

    heavy = [
        run_fixture(
            bundle,
            ExperimentConfig(mode=MODE_PERTURBED, perturb_fraction=0.5, seed=seed),
            catalog,
        )
        for seed in seeds
    ]
    assert any(row.suc == "N" for row in heavy)
    assert time.perf_counter() - start < 120.0


test_c7_perturbation_robustness._criterion = "C7 perturbation robustness"


# --- C8 ---------------------------------------------------------------------

PROPERTY_SUITES = (
    "test_preprocessing_idempotent_on_corpus",
    "test_support_monotonicity",
    "test_schedules_preserve_program_order",
    "test_replay_deterministic",
    "test_index_finds_exact_sites",
    "test_tsl_frame_count_matches_oracle",
)


def test_c8_property_suites(property_outcomes):
    """Report the suites' run in this session; run any that was deselected.

    conftest orders C8 after test_properties.py and records each suite's
    call-phase outcome and duration, so the 1000-example suites run once.
    """
    # imported here so pytest does not collect the suites a second time
    # under this module's namespace
    import test_properties

    total = 0.0
    for name in PROPERTY_SUITES:
        if name in property_outcomes:
            passed, seconds = property_outcomes[name]
            assert passed, f"{name} failed"
        else:
            start = time.perf_counter()
            getattr(test_properties, name)()
            seconds = time.perf_counter() - start
        total += seconds
    assert total < 300.0


test_c8_property_suites._criterion = "C8 property suites"
