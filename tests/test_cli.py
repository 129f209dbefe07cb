"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

from __future__ import annotations

import json
import shutil

import pytest

from conftest import MV_DIR
from racerepro.cli import EXIT_CONFIG, EXIT_NOT_REPRODUCED, EXIT_OK, main
from racerepro.harness import load_scenario, random_baseline

MV_REPORT = str(MV_DIR / "mv_438076.txt")
MV_SRC = str(MV_DIR / "src")
MV_SCENARIO = str(MV_DIR / "scenario.json")
MV_TSL = str(MV_DIR / "mv.tsl")


def _read_json(path):
    return json.loads(path.read_text("utf-8"))


# --- extract ----------------------------------------------------------------

def test_extract_writes_keys_artifact(tmp_path, capsys):
    code = main(["extract", "--report", MV_REPORT, "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "keys.json")
    assert payload["schema"] == "racerepro/keys/v1"
    assert payload["path"] == "direct"
    counts = {e["name"]: e["count"] for e in payload["entries"]}
    assert counts["unlink"] == 5
    assert counts["rename"] == 8
    out = capsys.readouterr().out
    assert "extraction path: direct" in out
    assert "unlink: 5" in out


# --- rank-files --------------------------------------------------------------

def test_rank_files_puts_copy_c_first(tmp_path, capsys):
    code = main([
        "rank-files", "--report", MV_REPORT, "--src", MV_SRC,
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "ranked_files.json")
    assert payload["schema"] == "racerepro/ranked-files/v1"
    assert payload["scheme"] == "structured"
    assert payload["entries"][0]["path"] == "copy.c"
    assert "copy.c" in capsys.readouterr().out


# --- mine-pairs --------------------------------------------------------------

def test_mine_pairs_prints_the_top_pair(tmp_path, capsys):
    code = main(["mine-pairs", "--report", MV_REPORT, "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "{unlink, rename} = 4" in out
    payload = _read_json(tmp_path / "pair_ranking.json")
    assert payload["schema"] == "racerepro/pair-ranking/v1"
    assert payload["entries"][0] == {"items": ["unlink", "rename"], "frequency": 4}


# --- locate ------------------------------------------------------------------

def test_locate_writes_ranked_points(tmp_path, capsys):
    code = main([
        "locate", "--report", MV_REPORT, "--src", MV_SRC,
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "points.json")
    assert payload["schema"] == "racerepro/points/v1"
    first = payload["points"][0]
    assert first == {
        "rank": 1, "syscall": "unlink", "file": "copy.c",
        "function": "copy_internal", "line": 307, "placement": "between-pair",
        "pair_partner": {
            "syscall": "rename", "file": "copy.c",
            "function": "copy_internal", "line": 309,
        },
    }
    assert "between-pair unlink copy.c:copy_internal:307" in capsys.readouterr().out


# --- gen-tests ---------------------------------------------------------------

def test_gen_tests_expands_the_tsl(tmp_path, capsys):
    code = main([
        "gen-tests", "--report", MV_REPORT, "--tsl", MV_TSL,
        "--scenario", MV_SCENARIO, "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "test_cases.json")
    assert payload["schema"] == "racerepro/test-cases/v1"
    assert payload["extracted"] == {
        "command": "mv", "options": [], "inputs": ["bar", "foo"],
    }
    assert len(payload["cases"]) == 4
    assert all(c["inputs"] == ["bar", "foo"] for c in payload["cases"])
    out = capsys.readouterr().out
    assert "mv -i bar foo [error]" in out


# --- reproduce ----------------------------------------------------------------

def test_reproduce_mv_exits_zero(tmp_path, capsys):
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", MV_SCENARIO, "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "repro.json")
    assert payload["schema"] == "racerepro/repro/v1"
    assert payload["reproduced"] is True
    assert payload["attempts"] == 1
    assert payload["schedule"]["lines"] == [
        "mv:unlink(foo) @ copy.c:copy_internal:307",
        "cat:open(foo)",
        "mv:rename(bar, foo) @ copy.c:copy_internal:309",
    ]
    out = capsys.readouterr().out
    assert "reproduced: True in 1 attempts" in out


def test_reproduce_race_free_scenario_exits_one(tmp_path, capsys):
    scenario = {
        "id": "race-free",
        "processes": [
            {"name": "a", "trace": [{"kind": "chmod", "args": ["x", "600"]}]},
            {"name": "b", "trace": [{"kind": "chmod", "args": ["y", "600"]}]},
        ],
        "initial_fs": [{"path": "x"}, {"path": "y"}],
        "oracle": {"kind": "final-mode", "path": "x", "mode": "600"},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
        "--max-attempts", "5",
    ])
    assert code == EXIT_NOT_REPRODUCED
    payload = _read_json(tmp_path / "repro.json")
    assert payload["reproduced"] is False
    assert payload["attempts"] == 5
    assert "reproduced: False" in capsys.readouterr().out


# --- eval ----------------------------------------------------------------------

def test_eval_over_both_fixture_bundles(tmp_path, capsys, fixture_dirs):
    code = main([
        "eval", "--out-dir", str(tmp_path), *[str(d) for d in fixture_dirs],
    ])
    assert code == EXIT_OK
    results = _read_json(tmp_path / "results.json")
    assert results["schema"] == "racerepro/results/v1"
    by_bug = {row["bug_id"]: row for row in results["rows"]}
    assert by_bug["mv_438076"]["rank"] == [1, 2]
    assert by_bug["mv_438076"]["suc"] == "Y"
    assert by_bug["gzip_371162"]["suc"] == "Y"
    assert all("time" not in row for row in results["rows"])
    tsv = (tmp_path / "results.tsv").read_text("utf-8")
    assert tsv.splitlines()[0] == "Bug\tMode\tBRk\tSRk\tRank\tORnk\tRec\tMAP\tSuc\tNoR"
    assert "Time(s)" not in tsv
    # the human table on stdout does carry wall time
    assert "Time(s)" in capsys.readouterr().out


def test_eval_random_baseline_needs_seed(tmp_path, fixture_dirs):
    code = main([
        "eval", "--mode", "random-baseline", "--out-dir", str(tmp_path),
        str(fixture_dirs[0]),
    ])
    assert code == EXIT_CONFIG


# --- pipeline -------------------------------------------------------------------

EXPECTED_ARTIFACTS = [
    "keys.json", "ranked_files.json", "pair_ranking.json",
    "points.json", "test_cases.json", "repro.json", "schedule.txt",
]


def test_pipeline_writes_every_stage(tmp_path, capsys):
    code = main([
        "pipeline", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", MV_SCENARIO, "--tsl", MV_TSL, "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    for name in EXPECTED_ARTIFACTS:
        assert (tmp_path / name).exists(), name
    schedule = (tmp_path / "schedule.txt").read_text("utf-8")
    assert schedule == (
        "mv:unlink(foo) @ copy.c:copy_internal:307\n"
        "cat:open(foo)\n"
        "mv:rename(bar, foo) @ copy.c:copy_internal:309\n"
    )
    out = capsys.readouterr().out
    assert "reproduced: True in 1 attempts" in out


def test_pipeline_artifacts_are_byte_identical_across_runs(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in dirs:
        code = main([
            "pipeline", "--report", MV_REPORT, "--src", MV_SRC,
            "--scenario", MV_SCENARIO, "--tsl", MV_TSL, "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
    for name in EXPECTED_ARTIFACTS:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name


# --- usage errors -----------------------------------------------------------------

def test_unknown_mode_exits_two(tmp_path, capsys):
    code = main([
        "locate", "--report", MV_REPORT, "--src", MV_SRC,
        "--out-dir", str(tmp_path), "--mode", "telekinesis",
    ])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_perturbed_without_seed_exits_two(tmp_path, capsys, fixture_dirs):
    code = main([
        "eval", "--mode", "perturbed@0.1", "--out-dir", str(tmp_path),
        str(fixture_dirs[0]),
    ])
    assert code == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_missing_report_exits_two(tmp_path, capsys):
    code = main([
        "extract", "--report", str(tmp_path / "ghost.txt"),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_malformed_tsl_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.tsl"
    bad.write_text("choice orphan\n")
    code = main([
        "gen-tests", "--report", MV_REPORT, "--tsl", str(bad),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_scenario_missing_field_exits_two(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"id": "x", "processes": []}))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(scenario_path) in err and "'oracle'" in err


def test_ground_truth_missing_field_exits_two(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    payload = _read_json(truth)
    del payload["syscalls"]
    truth.write_text(json.dumps(payload))
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(truth) in err and "'syscalls'" in err


# --- modes outside eval -----------------------------------------------------------

@pytest.mark.parametrize("mode", ["random-baseline", "perturbed@0.5"])
@pytest.mark.parametrize("command", ["extract", "mine-pairs"])
def test_stochastic_mode_needs_seed_outside_eval(tmp_path, capsys, command, mode):
    code = main([command, "--report", MV_REPORT, "--mode", mode, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_config_is_validated_in_every_subcommand(tmp_path):
    code = main([
        "locate", "--report", MV_REPORT, "--src", MV_SRC,
        "--top-files", "0", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG


def test_reproduce_random_baseline_runs_the_baseline(tmp_path):
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC, "--scenario", MV_SCENARIO,
        "--mode", "random-baseline", "--seed", "4", "--out-dir", str(tmp_path),
    ])
    want = random_baseline(load_scenario(MV_SCENARIO), 100, 4)
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "repro.json")
    assert (payload["reproduced"], payload["attempts"]) == (True, want.attempts)
    assert want.attempts > 1  # guided injection needs exactly one
    assert "point_used" not in payload
    assert payload["schedule"]["injected_delays"] == []


def test_extract_perturbed_mode_reads_the_perturbed_report(tmp_path):
    code = main([
        "extract", "--report", MV_REPORT, "--mode", "perturbed@1.0", "--seed", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    counts = {e["name"]: e["count"] for e in _read_json(tmp_path / "keys.json")["entries"]}
    assert counts == {"unlink": 1, "rename": 1}  # the subject alone survives
