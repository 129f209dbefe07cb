"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import shutil

import pytest

from conftest import FIXTURES, GZIP_DIR, MV_DIR, ROOT
from racerepro.cli import EXIT_CONFIG, EXIT_NOT_REPRODUCED, EXIT_OK, _write, main
from racerepro.harness import load_scenario, random_baseline
from racerepro.metrics import MODES
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
        f"error: {src}: source file name 'x\\udcff.c' is not UTF-8\n"
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


def test_streamed_artifact_bytes_equal_the_one_shot_encoding(tmp_path):
    """``_write`` streams a dict with ``json.dump``; the bytes are those of
    ``json.dumps(..., indent=2, sort_keys=True) + "\\n"``."""
    payload = {
        "schema": "x/v1", "b": [0.1, 1e-17, 2.0, -0.0, 1 / 3], "a": {"z": [], "y": {}},
        "text": "caf\u00e9 \"q\" \\ \n\u2028", "n": None, "t": True, "big": 10**20,
    }
    path = _write(tmp_path / "out", "p.json", payload)
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
    assert f"error: {bad}: line 1: choice outside any category" in capsys.readouterr().err


def test_tsl_repeating_a_choice_exits_two(tmp_path, capsys):
    bad = tmp_path / "repeat.tsl"
    bad.write_text("category a:\n  choice x [if b=y]\n  choice x [single]\n"
                   "category b:\n  choice y\n  choice z\n")
    code = main([
        "gen-tests", "--report", MV_REPORT, "--tsl", str(bad),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert f"error: {bad}: line 3: choice 'x' repeated in category 'a'" in (
        capsys.readouterr().err
    )


def test_tsl_past_the_frame_limit_exits_two(tmp_path, capsys):
    # 13 two-choice categories: 8,192 frames, twice MAX_FRAMES
    big = tmp_path / "big.tsl"
    big.write_text("".join(f"category c{i}:\n  choice x\n  choice y\n" for i in range(13)))
    code = main([
        "gen-tests", "--report", MV_REPORT, "--tsl", str(big),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert f"error: {big}: plain choices yield more than {MAX_FRAMES} frames" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "test_cases.json").exists()


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


@pytest.mark.parametrize("payload", [
    [],
    {"id": "x", "processes": 5, "oracle": {"kind": "open-enoent", "path": "foo"}},
])
def test_scenario_wrong_json_type_exits_two(tmp_path, capsys, payload):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(payload))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(scenario_path) in err and "wrong JSON type" in err
    if isinstance(payload, dict):
        assert "field 'processes'" in err


def test_scenario_repeated_src_map_location_exits_two(tmp_path, capsys):
    payload = _read_json(MV_DIR / "scenario.json")
    # the last entry would otherwise win: rename credited to line 307, unlink unmapped
    payload["src_map"].append({"file": "copy.c", "function": "copy_internal", "line": 307,
                               "process": "mv", "op_index": 1})
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(out_dir),
    ])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {scenario_path}: field 'src_map': location copy.c:copy_internal:307"
        " mapped twice\n"
    )
    assert not out_dir.exists()


def test_scenario_args_string_exits_two_naming_the_field(tmp_path, capsys):
    payload = _read_json(MV_DIR / "scenario.json")
    op = payload["processes"][0]["trace"][1]
    assert op["kind"] == "rename"
    op["args"] = "xy"  # would otherwise run as rename("x", "y")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(payload))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(scenario_path) in err and "field 'processes': wrong JSON type" in err


def _mv_scenario_with(edit) -> dict:
    payload = _read_json(MV_DIR / "scenario.json")
    edit(payload)
    return payload


def _bad_line(payload):
    payload["src_map"][0]["line"] = "x"


def _bad_op_index(payload):
    payload["src_map"][0]["op_index"] = "x"


def _bad_mode(payload):
    payload["initial_fs"][0]["mode"] = "9z"


EDITED_FIELD = {_bad_line: "src_map", _bad_op_index: "src_map", _bad_mode: "initial_fs"}


@pytest.mark.parametrize("edit", [_bad_line, _bad_op_index, _bad_mode])
def test_scenario_non_numeric_value_exits_two_naming_the_file(tmp_path, capsys, edit):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(_mv_scenario_with(edit)))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(scenario_path) in err and f"field {EDITED_FIELD[edit]!r}" in err


def _float_line(payload):
    payload["src_map"][0]["line"] = 307.9  # int() would map it to line 307


def _float_op_index(payload):
    payload["src_map"][0]["op_index"] = 0.0


def _bool_line(payload):
    payload["src_map"][0]["line"] = True


def _socket_kind(payload):
    payload["initial_fs"][0]["kind"] = "socket"  # only files and dirs are modelled


def _int_file(payload):
    for entry in payload["src_map"]:  # no point would map: exit 1 unless rejected
        entry["file"] = 7


def _float_mode(payload):
    payload["initial_fs"][0]["mode"] = 420.9  # int() would read it as 0o644


def _bool_chmod_mode(payload):
    payload["processes"][0]["trace"].append({"kind": "chmod", "args": ["foo", True]})


def _negative_mode(payload):
    payload["initial_fs"][0]["mode"] = "-644"  # int(_, 8) reads it as -420


def _object_id(payload):
    payload["id"] = {"a": 1}  # str() would write "{'a': 1}" into repro.json


EDITED_FIELD.update({_float_line: "src_map", _float_op_index: "src_map",
                     _bool_line: "src_map", _socket_kind: "initial_fs", _int_file: "src_map",
                     _float_mode: "initial_fs", _bool_chmod_mode: "processes",
                     _negative_mode: "initial_fs", _object_id: "id"})


@pytest.mark.parametrize("edit", [_float_line, _float_op_index, _bool_line, _socket_kind,
                                  _int_file, _float_mode, _bool_chmod_mode, _negative_mode,
                                  _object_id])
def test_scenario_value_outside_the_model_exits_two_naming_the_field(tmp_path, capsys, edit):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(_mv_scenario_with(edit)))
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {scenario_path}: field {EDITED_FIELD[edit]!r}" in err
    assert not (tmp_path / "repro.json").exists()


@pytest.mark.parametrize("line", [307.9, True])
def test_ground_truth_non_integer_line_exits_two_naming_the_field(tmp_path, capsys, line):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    payload = _read_json(truth)
    payload["syscalls"][0]["line"] = line
    truth.write_text(json.dumps(payload))
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    assert f"error: {truth}: field 'syscalls': wrong JSON type" in capsys.readouterr().err


def test_ground_truth_non_string_id_exits_two_naming_the_field(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    payload = _read_json(truth)
    payload["id"] = 438076
    truth.write_text(json.dumps(payload))
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    assert f"error: {truth}: field 'id': wrong JSON type" in capsys.readouterr().err


def test_json_report_non_string_id_exits_two_naming_the_field(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"id": ["mv"], "subject": "mv race", "body": "b"}))
    code = main(["extract", "--report", str(report), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert f"error: {report}: field 'id': wrong JSON type" in capsys.readouterr().err
    assert not (tmp_path / "keys.json").exists()


def test_ground_truth_non_numeric_line_exits_two_naming_the_file(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    payload = _read_json(truth)
    payload["syscalls"][0]["line"] = "x"
    truth.write_text(json.dumps(payload))
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(truth) in err and "field 'syscalls'" in err


def test_ground_truth_wrong_json_type_exits_two(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    truth.write_text("[]")
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(truth) in err and "wrong JSON type" in err


def test_ground_truth_wrong_field_type_names_the_field(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    payload = _read_json(truth)
    payload["files"] = 5
    truth.write_text(json.dumps(payload))
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(truth) in err and "field 'files': wrong JSON type" in err


def test_ground_truth_files_string_exits_two_naming_the_field(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    payload = _read_json(truth)
    payload["files"] = "copy.c"
    truth.write_text(json.dumps(payload))
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(truth) in err and "field 'files': wrong JSON type" in err


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


# --- unusable input files: exit 2, naming the file -----------------------------

def test_scenario_json_syntax_error_exits_two_naming_the_file(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text("{x}")
    code = main([
        "reproduce", "--report", MV_REPORT, "--src", MV_SRC,
        "--scenario", str(scenario_path), "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert f"error: {scenario_path}: Expecting property name" in capsys.readouterr().err


def test_ground_truth_json_syntax_error_exits_two_naming_the_file(tmp_path, capsys):
    bundle = tmp_path / "mv_438076"
    shutil.copytree(MV_DIR, bundle)
    truth = bundle / "ground_truth.json"
    truth.write_text("{x}")
    code = main(["eval", "--out-dir", str(tmp_path / "out"), str(bundle)])
    assert code == EXIT_CONFIG
    assert f"error: {truth}: Expecting property name" in capsys.readouterr().err


def test_report_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    report = tmp_path / "bug.txt"
    report.write_bytes(b"Subject: mv race\n\n\xff\xfe body\n")
    code = main(["extract", "--report", str(report), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert f"error: {report}: 'utf-8' codec" in capsys.readouterr().err


def test_report_directory_exits_two_naming_it(tmp_path, capsys):
    code = main(["extract", "--report", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert f"error: {tmp_path}: Is a directory" in capsys.readouterr().err


def test_out_dir_that_is_a_file_exits_two_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("a file\n")
    code = main(["extract", "--report", MV_REPORT, "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert f"error: {out}: File exists" in capsys.readouterr().err


def test_final_content_oracle_without_content_exits_two(tmp_path, capsys):
    payload = _read_json(GZIP_DIR / "scenario.json")
    assert payload["oracle"]["kind"] == "final-content"
    del payload["oracle"]["content"]  # every schedule would fail, undelayed too
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(payload))
    code = main([
        "reproduce", "--report", str(GZIP_DIR / "gzip_371162.txt"),
        "--src", str(GZIP_DIR / "src"), "--scenario", str(scenario_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert f"error: {scenario_path}: field 'oracle'" in capsys.readouterr().err
    assert not (tmp_path / "repro.json").exists()


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


def test_empty_man_dir_exits_two_naming_it(tmp_path, capsys):
    man_dir = tmp_path / "man"
    man_dir.mkdir()
    code = main([
        "extract", "--report", MV_REPORT, "--man-dir", str(man_dir),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert f"error: {man_dir}: no man-page files found" in capsys.readouterr().err


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
