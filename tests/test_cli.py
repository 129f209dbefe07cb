"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import shutil
from dataclasses import asdict

import pytest

from conftest import FIXTURES, GZIP_DIR, MV_DIR, ROOT
from racerepro import harness
from racerepro.cli import EXIT_CONFIG, EXIT_NOT_REPRODUCED, EXIT_OK, _write_files, main
from racerepro.harness import load_scenario, random_baseline
from racerepro.metrics import MODES
from racerepro.reports import load_report
from racerepro.testcases import MAX_FRAMES

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


def test_rank_files_names_a_source_file_name_that_is_not_utf8(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "ok.c").write_text("int f (void) { return 0; }\n")
    try:
        with open(os.fsencode(src) + b"/x\xff.c", "wb") as f:
            f.write(b"int g (void) { return 1; }\n")
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    code = main([
        "rank-files", "--report", MV_REPORT, "--src", str(src),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {src}: file name 'x\\udcff.c' is not UTF-8\n"
    )


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


@pytest.mark.parametrize("command, line", [
    ("extract", "  (no system calls extracted)"),
    ("mine-pairs", "no key system calls: locator will enumerate all sites"),
    ("locate", "  (no instrumentation points)"),
])
def test_summary_says_when_a_stage_found_nothing(tmp_path, capsys, command, line):
    # a report of stop words names no syscall, and the tree calls none
    report = tmp_path / "stop_words.txt"
    report.write_text("Subject: the and of\n\nit is about them and all of the above\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "quiet.c").write_text("int f (void) { return 0; }\n")
    argv = [command, "--report", str(report), "--out-dir", str(tmp_path / "out")]
    if command == "locate":
        argv += ["--src", str(tmp_path / "src")]
    assert main(argv) == EXIT_OK
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("mode", ["structured-ir", "no-apriori"])
def test_mine_pairs_on_stop_words_writes_enumerate_all(tmp_path, mode):
    # no key at all: no entry, and the ranking says every site is enumerated
    report = tmp_path / "stop_words.txt"
    report.write_text("Subject: the and of\n\nit is about them and all of the above\n")
    argv = ["mine-pairs", "--report", str(report), "--mode", mode, "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    payload = _read_json(tmp_path / "pair_ranking.json")
    assert (payload["entries"], payload["enumerate_all"]) == ([], True)


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


@pytest.mark.parametrize("flags, extracted", [
    ((), {"command": "", "options": [], "inputs": []}),
    (("--commands", "mv"), {"command": "mv", "options": [], "inputs": ["bar", "foo"]}),
], ids=["no-commands", "commands"])
def test_gen_tests_knows_the_commands_it_is_given(tmp_path, flags, extracted):
    code = main([
        "gen-tests", "--report", MV_REPORT, "--tsl", MV_TSL, *flags, "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert _read_json(tmp_path / "test_cases.json")["extracted"] == extracted


def test_gen_tests_finds_a_special_frame_behind_a_later_condition(tmp_path, capsys):
    # a=x holds only once b, a later category, is y
    tsl = tmp_path / "fwd.tsl"
    tsl.write_text("category a:\n  choice x [if b=y]\ncategory b:\n  choice y\n"
                   "category c:\n  choice z\n  choice e [error]\n")
    code = main([
        "gen-tests", "--report", MV_REPORT, "--tsl", str(tsl),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK, capsys.readouterr().err
    cases = _read_json(tmp_path / "test_cases.json")["cases"]
    assert [c["setup"] for c in cases if c["error"]] == [["a=x", "b=y", "c=e"]]


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
    assert "fails_undelayed" not in payload
    assert payload["schedule"]["lines"] == [
        "mv:unlink(foo) @ copy.c:copy_internal:307",
        "cat:open(foo)",
        "mv:rename(bar, foo) @ copy.c:copy_internal:309",
    ]
    used = payload["point_used"]
    assert (used["placement"], used["syscall"], used["line"]) == ("between-pair", "unlink", 307)
    assert used["pair_partner"] == {
        "syscall": "rename", "file": "copy.c", "function": "copy_internal", "line": 309,
    }
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


def test_reproduce_scenario_failing_undelayed_credits_no_point(tmp_path, capsys):
    # no src_map entry maps any located point; the plain order already fails
    scenario = {
        "id": "fails-undelayed",
        "processes": [{"name": "a", "trace": [{"kind": "chmod", "args": ["x", "600"]}]}],
        "initial_fs": [{"path": "x"}],
        "oracle": {"kind": "final-mode", "path": "x", "mode": "644"},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "repro.json")
    assert (payload["reproduced"], payload["attempts"]) == (True, 1)
    assert payload["fails_undelayed"] is True
    assert "point_used" not in payload
    assert payload["schedule"]["injected_delays"] == []


def test_reproduce_summary_says_the_undelayed_order_already_fails(tmp_path, capsys):
    # cat opens foo before mv runs and no foo exists yet: no delay is needed
    payload = _read_json(MV_DIR / "scenario.json")
    payload["processes"].reverse()
    payload["initial_fs"] = [e for e in payload["initial_fs"] if e["path"] != "foo"]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(payload))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert _read_json(tmp_path / "repro.json")["fails_undelayed"] is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("reproduced: True in 1 attempts")
    assert lines[1] == "the undelayed order already fails: no point is credited"


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


def test_eval_writes_nothing_when_the_table_path_is_a_directory(tmp_path, capsys, fixture_dirs):
    (tmp_path / "results.tsv").mkdir()
    code = main(["eval", "--out-dir", str(tmp_path), *[str(d) for d in fixture_dirs]])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {tmp_path / 'results.tsv'}: Is a directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["results.tsv"]


def test_eval_random_baseline_needs_seed(tmp_path, fixture_dirs):
    code = main([
        "eval", "--mode", "random-baseline", "--out-dir", str(tmp_path),
        str(fixture_dirs[0]),
    ])
    assert code == EXIT_CONFIG


# --- eval: the bundle layout ------------------------------------------------------

def _mv_bundle_copy(tmp_path):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    return bundle


def _eval_row(bundle, out_dir) -> dict:
    """The one row ``racerepro eval`` writes for ``bundle``."""
    assert main(["eval", "--out-dir", str(out_dir), str(bundle)]) == EXIT_OK
    (row,) = _read_json(out_dir / "results.json")["rows"]
    return row


def test_eval_reads_report_txt_before_the_report_named_after_its_bundle(tmp_path):
    bundle = _mv_bundle_copy(tmp_path)
    (bundle / "mv_438076.txt").rename(bundle / "report.txt")
    (bundle / "mv_438076.txt").write_bytes(b"\xff not UTF-8: exit 2 if read\n")
    assert _eval_row(bundle, tmp_path / "out") == _eval_row(MV_DIR, tmp_path / "fixture")


def test_eval_reads_a_lone_report_json_as_json(tmp_path):
    bundle = _mv_bundle_copy(tmp_path)
    report = load_report(bundle / "mv_438076.txt")
    (bundle / "mv_438076.txt").unlink()
    (bundle / "report.json").write_text(json.dumps(
        {"id": report.id, "subject": report.subject, "body": report.body}))
    assert _eval_row(bundle, tmp_path / "out") == _eval_row(MV_DIR, tmp_path / "fixture")


def test_eval_without_ground_truth_gives_an_unscored_row(tmp_path):
    bundle = _mv_bundle_copy(tmp_path)
    (bundle / "ground_truth.json").unlink()
    row = _eval_row(bundle, tmp_path / "out")
    assert (row["unscored"], row["notes"]) == (True, "no ground truth")
    assert (row["rank"], row["map"], row["suc"]) == ([], None, "Y")


def test_eval_without_a_report_exits_two_naming_report_txt(tmp_path, capsys):
    bundle = _mv_bundle_copy(tmp_path)
    (bundle / "mv_438076.txt").unlink()
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {bundle / 'report.txt'}: No such file or directory" in err
    assert not (tmp_path / "out").exists()


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


def test_pipeline_locates_the_syscalls_a_report_names_only_in_its_subject(tmp_path):
    # the body names no syscall, so the subject's keys alone give the points,
    # as the ablation's do
    report = tmp_path / "report.txt"
    report.write_text(
        "Subject: mv: rename and unlink of the target race with a reader\n\n"
        "A move that replaces an existing file is documented to be atomic.  A reader\n"
        "that looks up the destination while mv replaces it sometimes finds nothing.\n",
        "utf-8",
    )
    args = ["pipeline", "--report", str(report), "--src", MV_SRC, "--scenario", MV_SCENARIO]
    assert main([*args, "--out-dir", str(tmp_path / "apriori")]) == EXIT_OK
    assert _read_json(tmp_path / "apriori" / "points.json")["points"]
    ablation = ["--mode", "no-apriori", "--out-dir", str(tmp_path / "ablation")]
    assert main([*args, *ablation]) == EXIT_OK
    assert (tmp_path / "apriori" / "repro.json").read_bytes() == (
        tmp_path / "ablation" / "repro.json").read_bytes()


@pytest.mark.parametrize(("fixture_dir", "delays"), [
    (MV_DIR, [["mv", 0, "between-pair"]]), (GZIP_DIR, [["gzip", 2, "before"]]),
], ids=["mv", "gzip"])
def test_pipeline_renders_its_schedule_once(tmp_path, monkeypatch, fixture_dir, delays):
    calls = []
    render = harness.format_schedule

    def counting_render(*args):
        calls.append(args)
        return render(*args)

    monkeypatch.setattr(harness, "format_schedule", counting_render)
    code = main([
        "pipeline", "--report", str(fixture_dir / f"{fixture_dir.name}.txt"),
        "--src", str(fixture_dir / "src"), "--scenario", str(fixture_dir / "scenario.json"),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert len(calls) == 1
    schedule = _read_json(tmp_path / "repro.json")["schedule"]
    assert (tmp_path / "schedule.txt").read_text("utf-8") == "\n".join(schedule["lines"]) + "\n"
    # the delay of the credited point
    assert schedule["injected_delays"] == delays


def test_pipeline_removes_the_artifacts_an_earlier_run_left_and_it_does_not_write(tmp_path):
    common = ["pipeline", "--report", MV_REPORT, "--src", MV_SRC,
              "--scenario", MV_SCENARIO, "--out-dir", str(tmp_path)]
    assert main([*common, "--tsl", MV_TSL]) == EXIT_OK
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(EXPECTED_ARTIFACTS)
    # without --tsl and without reproducing: no test cases and no schedule
    assert main([*common, "--mode", "no-apriori", "--max-attempts", "1"]) == EXIT_NOT_REPRODUCED
    assert _read_json(tmp_path / "repro.json")["reproduced"] is False
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        set(EXPECTED_ARTIFACTS) - {"test_cases.json", "schedule.txt"}
    )


def test_pipeline_writes_nothing_when_an_artifact_path_is_a_directory(tmp_path, capsys):
    (tmp_path / "repro.json").mkdir()
    code = main(["pipeline", "--report", MV_REPORT, "--src", MV_SRC,
                 "--scenario", MV_SCENARIO, "--tsl", MV_TSL, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {tmp_path / 'repro.json'}: Is a directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["repro.json"]


def test_readme_quick_start_transcript_is_the_pipeline_output(tmp_path, monkeypatch, capsys):
    block = (ROOT / "README.md").read_text("utf-8").split("## Quick start", 1)[1]
    lines = block.split("```\n", 2)[1].splitlines()
    n_command = next(i for i, line in enumerate(lines) if not line.endswith("\\")) + 1
    command = " ".join(line.removesuffix("\\") for line in lines[:n_command])
    argv = shlex.split(command.removeprefix("$ racerepro "))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixtures").symlink_to(FIXTURES)
    assert main(argv) == EXIT_OK
    out = re.sub(r"\(\d+\.\d{3}s\)", "(0.000s)", capsys.readouterr().out)
    assert out.splitlines() == lines[n_command:]


def test_streamed_artifact_bytes_equal_the_one_shot_encoding(tmp_path):
    """``_write_files`` streams a dict with ``json.dump``; the bytes are those
    of ``json.dumps(..., indent=2, sort_keys=True) + "\\n"``."""
    payload = {
        "schema": "x/v1", "b": [0.1, 1e-17, 2.0, -0.0, 1 / 3], "a": {"z": [], "y": {}},
        "text": "caf\u00e9 \"q\" \\ \n\u2028", "n": None, "t": True, "big": 10**20,
    }
    _write_files(tmp_path / "out", {"p.json": payload})
    path = tmp_path / "out" / "p.json"
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


#: single-stage subcommand, the artifact it shares with pipeline, its input flags
STAGE_COMMANDS = [
    ("extract", "keys.json", ("--report",)),
    ("rank-files", "ranked_files.json", ("--report", "--src")),
    ("mine-pairs", "pair_ranking.json", ("--report",)),
    ("locate", "points.json", ("--report", "--src")),
    ("reproduce", "repro.json", ("--report", "--src", "--scenario")),
    ("gen-tests", "test_cases.json", ("--report", "--tsl", "--scenario")),
]


@pytest.mark.parametrize("fixture_dir", [MV_DIR, GZIP_DIR], ids=["mv", "gzip"])
def test_each_subcommand_writes_the_bytes_pipeline_writes(tmp_path, fixture_dir):
    inputs = {
        "--report": str(fixture_dir / f"{fixture_dir.name}.txt"),
        "--src": str(fixture_dir / "src"),
        "--scenario": str(fixture_dir / "scenario.json"),
        "--tsl": MV_TSL,
    }

    def run(command, flags, mode):
        out = tmp_path / mode / command
        argv = [command, *(arg for flag in flags for arg in (flag, inputs[flag]))]
        code = main([*argv, "--mode", mode, "--out-dir", str(out)])
        assert code in (EXIT_OK, EXIT_NOT_REPRODUCED), (mode, command)
        return out

    for mode in ("structured-ir", "basic-ir", "no-apriori"):
        whole = run("pipeline", ("--report", "--src", "--scenario", "--tsl"), mode)
        for command, artifact, flags in STAGE_COMMANDS:
            alone = (run(command, flags, mode) / artifact).read_bytes()
            assert alone == (whole / artifact).read_bytes(), (mode, command)


# --- usage errors -----------------------------------------------------------------

@pytest.mark.parametrize("bad", ["scenario", "tsl"])
@pytest.mark.parametrize("prefilled", [False, True], ids=["fresh", "prefilled"])
def test_pipeline_with_a_malformed_input_writes_nothing(tmp_path, capsys, bad, prefilled):
    inputs = {"scenario": MV_SCENARIO, "tsl": MV_TSL}
    inputs[bad] = tmp_path / f"bad.{bad}"
    inputs[bad].write_text(
        json.dumps({"id": "x", "processes": []}) if bad == "scenario" else "choice orphan\n"
    )
    out = tmp_path / "out"
    earlier = {name: f"an earlier run's {name}\n".encode() for name in EXPECTED_ARTIFACTS}
    if prefilled:
        out.mkdir()
        for name, data in earlier.items():
            (out / name).write_bytes(data)
    code = main([
        "pipeline", "--report", MV_REPORT, "--src", MV_SRC, "--scenario", str(inputs["scenario"]),
        "--tsl", str(inputs["tsl"]), "--out-dir", str(out),
    ])
    assert code == EXIT_CONFIG
    assert f"error: {inputs[bad]}" in capsys.readouterr().err
    if prefilled:
        assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier
    else:
        assert not out.exists()


#: per subcommand, its input flags and the stage flags none of its stages read
#: (eval takes them all)
NOT_TAKEN = {
    "extract": (("--report",), ("--top-files", "--top-n", "--max-attempts")),
    "rank-files": (("--report", "--src"), ("--top-n", "--max-attempts")),
    "mine-pairs": (("--report",), ("--top-files", "--top-n", "--max-attempts")),
    "locate": (("--report", "--src"), ("--top-n", "--max-attempts")),
    "gen-tests": (("--report", "--tsl"),
                  ("--man-dir", "--n-derived", "--top-files", "--top-n", "--max-attempts")),
    "reproduce": (("--report", "--src", "--scenario"), ("--top-n",)),
    "pipeline": (("--report", "--src", "--scenario"), ("--top-n",)),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_inputs, flags) in NOT_TAKEN.items() for flag in flags
])
def test_a_flag_no_stage_reads_exits_two(tmp_path, capsys, command, flag):
    inputs = {"--report": MV_REPORT, "--src": MV_SRC, "--scenario": MV_SCENARIO,
              "--tsl": MV_TSL}
    argv = [command, *(arg for f in NOT_TAKEN[command][0] for arg in (f, inputs[f]))]
    value = str(tmp_path) if flag == "--man-dir" else "1"
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value, "--out-dir", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

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


# --- unusable input files: exit 2, naming the file, writing nothing ---------------

#: input kind -> (the file a row edits or writes, in a copy of the mv bundle
#: next to its report as JSON; the argv, before --out-dir, of the subcommand
#: that reads it).  A ``-named-ff`` file's name holds the byte 0xff, which is
#: not UTF-8, and is the input's id
READERS = {
    "report": ("mv_438076/mv_438076.txt", lambda f: ["extract", "--report", f]),
    "report-named-ff": ("mv_438076/mv\udcff.txt", lambda f: ["extract", "--report", f]),
    "report-json": ("report.json", lambda f: ["extract", "--report", f]),
    "scenario": ("mv_438076/scenario.json",
                 lambda f: ["reproduce", "--report", MV_REPORT, "--src", MV_SRC, "--scenario", f]),
    "scenario-named-ff": ("mv_438076/sc\udcff.json", lambda f: [
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC, "--scenario", f]),
    "ground-truth": ("mv_438076/ground_truth.json", lambda f: ["eval", os.path.dirname(f)]),
    "tsl": ("mv_438076/mv.tsl", lambda f: ["gen-tests", "--report", MV_REPORT, "--tsl", f]),
    "man-dir": ("man", lambda f: ["extract", "--report", MV_REPORT, "--man-dir", f]),
    "man-page-named-ff": ("man/zz\udcff.txt", lambda f: [
        "extract", "--report", MV_REPORT, "--man-dir", os.path.dirname(f)]),
    "bundle-named-ff": ("mv\udcff", lambda f: ["eval", f]),
}

#: row id -> (input kind, edit, what follows "error: <file>: ").  An edit is
#: the file's new bytes, or a function of its parsed JSON (for a .json file)
#: or of its path (for any other)
MALFORMED = {
    "report-missing": ("report", lambda p: p.unlink(), "No such file or directory"),
    "report-not-utf8": ("report", b"Subject: mv race\n\n\xff\xfe body\n",
                        "'utf-8' codec can't decode byte 0xff"),
    "report-directory": ("report", lambda p: (p.unlink(), p.mkdir()), "Is a directory"),
    "report-name-not-utf8": ("report-named-ff", MV_DIR.joinpath("mv_438076.txt").read_bytes(),
                             "file name 'mv\\udcff.txt' is not UTF-8"),
    "report-json-id-list": ("report-json", lambda p: p.update(id=["mv"]),
                            "field 'id': wrong JSON type (expected str, got list)"),
    "report-json-lone-surrogate": (
        "report-json", lambda p: p.update(body=p["body"].replace("$ mv bar", "$ mv bar\ud800")),
        "field 'body': 'utf-8' codec can't encode character '\\ud800'"),
    "tsl-choice-outside-category": ("tsl", b"choice orphan\n",
                                    "line 1: choice outside any category"),
    "tsl-choice-repeated": ("tsl", b"category a:\n  choice x [if b=y]\n  choice x [single]\n"
                                   b"category b:\n  choice y\n  choice z\n",
                            "line 3: choice 'x' repeated in category 'a'"),
    # 13 two-choice categories: 8,192 frames, twice MAX_FRAMES
    "tsl-past-the-frame-limit": (
        "tsl", b"".join(b"category c%d:\n  choice x\n  choice y\n" % i for i in range(13)),
        f"plain choices yield more than {MAX_FRAMES} frames"),
    "man-dir-empty": ("man-dir", lambda p: p.mkdir(), "no man-page files found"),
    "ground-truth-json-syntax": ("ground-truth", b"{x}", "Expecting property name"),
    "ground-truth-json-array": ("ground-truth", b"[]",
                                "wrong JSON type (expected dict, got list)"),
    "ground-truth-id-int": ("ground-truth", lambda p: p.update(id=438076),
                            "field 'id': wrong JSON type (expected str, got int)"),
    "ground-truth-id-lone-surrogate": ("ground-truth", lambda p: p.update(id="mv\ud800"),
                                       "field 'id': 'utf-8' codec can't encode character"),
    "ground-truth-files-int": ("ground-truth", lambda p: p.update(files=5),
                               "field 'files': wrong JSON type (expected list, got int)"),
    "ground-truth-files-str": ("ground-truth", lambda p: p.update(files="copy.c"),
                               "field 'files': wrong JSON type (expected list, got str)"),
    "ground-truth-no-syscalls": ("ground-truth", lambda p: p.pop("syscalls"),
                                 "missing field 'syscalls'"),
    "ground-truth-line-float": ("ground-truth", lambda p: p["syscalls"][0].update(line=307.9),
                                "field 'syscalls': wrong JSON type (expected int, got float)"),
    "ground-truth-line-bool": ("ground-truth", lambda p: p["syscalls"][0].update(line=True),
                               "field 'syscalls': wrong JSON type (expected int, got bool)"),
    "ground-truth-line-str": ("ground-truth", lambda p: p["syscalls"][0].update(line="x"),
                              "field 'syscalls': wrong JSON type (expected int, got str)"),
    "scenario-json-syntax": ("scenario", b"{x}", "Expecting property name"),
    "scenario-json-array": ("scenario", b"[]", "wrong JSON type (expected dict, got list)"),
    "scenario-no-oracle": ("scenario", b'{"id": "x", "processes": []}',
                           "missing field 'oracle'"),
    "scenario-oracle-no-kind": ("scenario", lambda p: p["oracle"].pop("kind"),
                                "field 'oracle': missing field 'kind'"),
    # read even though an open-enoent oracle ignores it
    "scenario-oracle-mode-underscored": ("scenario", lambda p: p["oracle"].update(mode="6_44"),
                                         "field 'oracle': mode '6_44' is not an octal string"),
    # every schedule would fail, the undelayed one too
    "scenario-final-content-no-content": (
        "scenario", lambda p: p["oracle"].update(kind="final-content"),
        "field 'oracle': a final-content oracle needs an expected 'content'"),
    "scenario-processes-int": ("scenario", lambda p: p.update(processes=5),
                               "field 'processes': wrong JSON type (expected list, got int)"),
    # would otherwise run as rename("x", "y")
    "scenario-args-str": ("scenario", lambda p: p["processes"][0]["trace"][1].update(args="xy"),
                          "field 'processes': wrong JSON type (expected list, got str)"),
    "scenario-op-kind-object": (
        "scenario", lambda p: p["processes"][0]["trace"][1].update(kind={"name": "rename"}),
        "field 'processes': wrong JSON type (expected str, got dict)"),
    "scenario-op-no-kind": ("scenario", lambda p: p["processes"][0]["trace"][0].pop("kind"),
                            "field 'processes': missing field 'kind'"),
    # an argument past the op's row is read as text, and the arity check refuses it
    "scenario-op-extra-arg": (
        "scenario", lambda p: p["processes"][0]["trace"][0].update(args=["foo", "bar"]),
        "field 'processes': unlink takes 1..1 args, got ('foo', 'bar')"),
    "scenario-chmod-mode-bool": (
        "scenario", lambda p: p["processes"][0]["trace"].append(
            {"kind": "chmod", "args": ["foo", True]}),
        "field 'processes': wrong JSON type (expected int, got bool)"),
    "scenario-lone-surrogate": (
        "scenario", (MV_DIR / "scenario.json").read_bytes().replace(b'"bar"', rb'"bar\ud800"'),
        "field 'processes': 'utf-8' codec can't encode character '\\ud800'"),
    "scenario-line-str": ("scenario", lambda p: p["src_map"][0].update(line="x"),
                          "field 'src_map': wrong JSON type (expected int, got str)"),
    # int() would map it to line 307
    "scenario-line-float": ("scenario", lambda p: p["src_map"][0].update(line=307.9),
                            "field 'src_map': wrong JSON type (expected int, got float)"),
    "scenario-line-bool": ("scenario", lambda p: p["src_map"][0].update(line=True),
                           "field 'src_map': wrong JSON type (expected int, got bool)"),
    "scenario-op-index-str": ("scenario", lambda p: p["src_map"][0].update(op_index="x"),
                              "field 'src_map': wrong JSON type (expected int, got str)"),
    "scenario-op-index-float": ("scenario", lambda p: p["src_map"][0].update(op_index=0.0),
                                "field 'src_map': wrong JSON type (expected int, got float)"),
    # no point would map: exit 1 unless rejected
    "scenario-file-int": ("scenario", lambda p: [m.update(file=7) for m in p["src_map"]],
                          "field 'src_map': wrong JSON type (expected str, got int)"),
    # the last entry would otherwise win: rename credited to line 307, unlink unmapped
    "scenario-location-mapped-twice": (
        "scenario", lambda p: p["src_map"].append({"file": "copy.c", "function": "copy_internal",
                                                   "line": 307, "process": "mv", "op_index": 1}),
        "field 'src_map': location copy.c:copy_internal:307 mapped twice"),
    "scenario-mode-9z": ("scenario", lambda p: p["initial_fs"][0].update(mode="9z"),
                         "field 'initial_fs': mode '9z' is not an octal string"),
    # int(_, 8) would read each of the next six as 0o644, and "-644" as -420
    "scenario-mode-underscored": ("scenario", lambda p: p["initial_fs"][0].update(mode="6_44"),
                                  "field 'initial_fs': mode '6_44' is not an octal string"),
    "scenario-mode-spaced": ("scenario", lambda p: p["initial_fs"][0].update(mode=" 644 "),
                             "field 'initial_fs': mode ' 644 ' is not an octal string"),
    "scenario-mode-signed": ("scenario", lambda p: p["initial_fs"][0].update(mode="+644"),
                             "field 'initial_fs': mode '+644' is not an octal string"),
    "scenario-mode-fullwidth": ("scenario", lambda p: p["initial_fs"][0].update(mode="\uff10644"),
                                "field 'initial_fs': mode '\uff10644' is not an octal string"),
    "scenario-mode-prefixed": ("scenario", lambda p: p["initial_fs"][0].update(mode="0o644"),
                               "field 'initial_fs': mode '0o644' is not an octal string"),
    "scenario-mode-newline": ("scenario", lambda p: p["initial_fs"][0].update(mode="644\n"),
                              "field 'initial_fs': mode '644\\n' is not an octal string"),
    "scenario-mode-negative": ("scenario", lambda p: p["initial_fs"][0].update(mode="-644"),
                               "field 'initial_fs': mode '-644' is not an octal string"),
    # int() would read it as 0o644
    "scenario-mode-float": ("scenario", lambda p: p["initial_fs"][0].update(mode=420.9),
                            "field 'initial_fs': wrong JSON type (expected int, got float)"),
    # octal digits alone, but past 0o7777
    "scenario-mode-above-7777": ("scenario", lambda p: p["initial_fs"][0].update(mode="17777"),
                                 "field 'initial_fs': mode '17777' is outside 0..7777 (octal)"),
    # one past each bound ("0" and "7777" load)
    "scenario-mode-10000": ("scenario", lambda p: p["initial_fs"][0].update(mode="10000"),
                            "field 'initial_fs': mode '10000' is outside 0..7777 (octal)"),
    "scenario-mode-int-minus-1": ("scenario", lambda p: p["initial_fs"][0].update(mode=-1),
                                  "field 'initial_fs': mode -1 is outside 0..7777 (octal)"),
    # only files and dirs are modelled
    "scenario-kind-socket": ("scenario", lambda p: p["initial_fs"][0].update(kind="socket"),
                             "field 'initial_fs': unknown initial_fs kind: 'socket'"),
    # str() would write "{'a': 1}" into repro.json
    "scenario-id-object": ("scenario", lambda p: p.update(id={"a": 1}),
                           "field 'id': wrong JSON type (expected str, got dict)"),
    # without an id the file name is the id
    "scenario-name-not-utf8": (
        "scenario-named-ff",
        json.dumps({k: v for k, v in _read_json(MV_DIR / "scenario.json").items() if k != "id"})
        .encode(),
        "file name 'sc\\udcff.json' is not UTF-8"),
    # the page's name would be a derived key's name in keys.json
    "man-page-name-not-utf8": ("man-page-named-ff",
                               lambda p: (p.parent.mkdir(), p.write_text("zz - a call\n")),
                               "file name 'zz\\udcff.txt' is not UTF-8"),
    # the directory's name would be the bug_id in results.json
    "bundle-name-not-utf8": (
        "bundle-named-ff",
        lambda p: (shutil.copytree(MV_DIR, p), (p / "mv_438076.txt").rename(p / "report.txt")),
        "file name 'mv\\udcff' is not UTF-8"),
}


@pytest.mark.parametrize("row", list(MALFORMED))
def test_malformed_input_exits_two_naming_the_file(tmp_path, capsys, row):
    kind, edit, message = MALFORMED[row]
    file, argv = READERS[kind]
    shutil.copytree(MV_DIR, tmp_path / "mv_438076")
    (tmp_path / "report.json").write_text(json.dumps(asdict(load_report(MV_REPORT))))
    path, out = tmp_path / file, tmp_path / "out"
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    elif path.suffix == ".json":
        payload = _read_json(path)
        edit(payload)
        path.write_text(json.dumps(payload))
    else:
        edit(path)
    code = main([*argv(str(path)), "--out-dir", str(out)])
    stdout, stderr = capsys.readouterr()
    assert (code, stdout) == (EXIT_CONFIG, "")
    shown = str(path).encode("utf-8", "backslashreplace").decode()  # see ``main``
    assert stderr.splitlines()[-1].startswith(f"error: {shown}: {message}")
    assert not out.exists()


def test_out_dir_named_with_0xff_is_written_and_printed_escaped(tmp_path, capsys):
    out = tmp_path / "o\udcff"
    assert main(["extract", "--report", MV_REPORT, "--out-dir", str(out)]) == EXIT_OK
    assert (out / "keys.json").is_file()
    shown = str(out).encode("utf-8", "backslashreplace").decode()
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {shown}/keys.json"


def test_out_dir_that_is_a_file_exits_two_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("a file\n")
    code = main(["extract", "--report", MV_REPORT, "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert f"error: {out}: File exists" in capsys.readouterr().err


# --- --man-dir and --mode --------------------------------------------------------

def test_extract_takes_its_keys_from_the_man_dir(tmp_path):
    man_dir = tmp_path / "man"
    man_dir.mkdir()
    (man_dir / "rename.txt").write_text("rename - change the name or location of a file\n")
    (man_dir / "chmod.txt").write_text("chmod - change permissions of a file\n")
    code = main([
        "extract", "--report", MV_REPORT, "--man-dir", str(man_dir),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = _read_json(tmp_path / "keys.json")
    # the bundled catalog also finds unlink (5 mentions); this one knows two calls
    assert [(e["name"], e["count"]) for e in payload["entries"]] == [("rename", 8)]


def test_mode_help_lists_every_mode(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")
    with pytest.raises(SystemExit):
        main(["extract", "--help"])
    help_line = next(
        line for line in capsys.readouterr().out.splitlines() if "pipeline mode:" in line
    )
    listed = help_line.split("pipeline mode:")[1].split(" | ")
    assert [m.strip().removesuffix("@<f>") for m in listed] == list(MODES)


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
