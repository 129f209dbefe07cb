"""Mutated input files either run or exit 2 naming the file and writing nothing; none raises.

Each fixture input of the mv bundle (the report, as text and as JSON, the
scenario, the ground truth and the TSL spec) is cut short, has a byte
flipped, gets an invalid UTF-8 sequence, or, for JSON, has one value
swapped for a value of another JSON type or a lone surrogate, or is
replaced by a document nested too deeply to parse.  Besides these drawn
mutations, every string of each JSON input in turn gets a lone surrogate
appended.  The mutated file goes through ``cli.main`` with every other
input left intact.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MV_DIR
from racerepro.cli import EXIT_CONFIG, main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

SWAPS = (None, True, 0, 1.5, "x", "\ud800", [], {}, ["x"], {"k": "v"})
INVALID_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")
#: a JSON document nested deeper than the parser's recursion limit
TOO_DEEP = b"[" * 100_000


def _value_paths(value, path=()):
    """The key path of every value in a parsed JSON document, with the
    value, root first."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _value_paths(child, (*path, key))


def _swapped(original: bytes, path: tuple, new) -> bytes:
    data = json.loads(original)
    if not path:
        return json.dumps(new).encode()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return json.dumps(data).encode()


def mutations(original: bytes, is_json: bool) -> st.SearchStrategy[bytes]:
    n = len(original)
    cut = st.integers(0, n - 1).map(lambda i: original[:i])
    flip = st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
        lambda t: original[: t[0]] + bytes([original[t[0]] ^ t[1]]) + original[t[0] + 1 :]
    )
    invalid = st.tuples(st.integers(0, n), st.sampled_from(INVALID_UTF8)).map(
        lambda t: original[: t[0]] + t[1] + original[t[0] :]
    )
    strategies = [cut, flip, invalid]
    if is_json:
        paths = [path for path, _value in _value_paths(json.loads(original))]
        strategies.append(
            st.tuples(st.sampled_from(paths), st.sampled_from(SWAPS)).map(
                lambda t: _swapped(original, *t)
            )
        )
        strategies.append(st.just(TOO_DEEP))
    return st.one_of(strategies)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A copy of the mv bundle (for ``eval``) next to the mutated-file slots."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(MV_DIR, root / "mv_438076")
    return root


REPORT, SRC = str(MV_DIR / "mv_438076.txt"), str(MV_DIR / "src")
_SUBJECT, _, _BODY = Path(REPORT).read_text("utf-8").partition("\n")
REPORT_JSON = json.dumps({
    "id": "mv_438076", "subject": _SUBJECT.removeprefix("Subject:").strip(), "body": _BODY,
}).encode()

#: input -> (original bytes, is JSON, mutated file relative to work, argv)
INPUTS = {
    "report": (
        (MV_DIR / "mv_438076.txt").read_bytes(), False, "report.txt",
        lambda f, out: ["extract", "--report", f, "--out-dir", out],
    ),
    "report-json": (
        REPORT_JSON, True, "report.json",
        lambda f, out: ["extract", "--report", f, "--out-dir", out],
    ),
    "scenario": (
        (MV_DIR / "scenario.json").read_bytes(), True, "scenario.json",
        lambda f, out: ["reproduce", "--report", REPORT, "--src", SRC,
                        "--scenario", f, "--out-dir", out],
    ),
    "ground-truth": (
        (MV_DIR / "ground_truth.json").read_bytes(), True, "mv_438076/ground_truth.json",
        lambda f, out: ["eval", "--out-dir", out, str(Path(f).parent)],
    ),
    "tsl": (
        (MV_DIR / "mv.tsl").read_bytes(), False, "spec.tsl",
        lambda f, out: ["gen-tests", "--report", REPORT, "--tsl", f, "--out-dir", out],
    ),
}


def _run(name: str, path: Path, out: Path) -> None:
    """Run ``name``'s command on ``path``: it exits 0, 1 or 2, every file it
    writes is UTF-8 text with no lone surrogate escape, and an exit 2 names
    the file and writes nothing."""
    shutil.rmtree(out, ignore_errors=True)
    # stdout encodes strictly, as a terminal's does
    err, stdout = io.StringIO(), io.TextIOWrapper(io.BytesIO(), "utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(INPUTS[name][3](str(path), str(out)))
    assert code in (0, 1, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert f"error: {path}" in err.getvalue()
        assert not out.exists()
    for artifact in out.glob("*"):
        text = artifact.read_text("utf-8")
        if artifact.suffix == ".json":
            json.dumps(json.loads(text), ensure_ascii=False).encode()


@pytest.mark.parametrize("name", list(INPUTS))
@FUZZ
@given(data=st.data())
def test_mutated_input_runs_or_exits_two_naming_the_file(name, work, data):
    original, is_json, rel, _argv = INPUTS[name]
    path = work / rel
    path.write_bytes(data.draw(mutations(original, is_json), label="mutated"))
    _run(name, path, work / "out")


#: (input, key path) of every string in each JSON input, where a lone
#: surrogate is most likely to reach a printed or written line
STRINGS = [
    (name, path)
    for name, (original, is_json, _rel, _argv) in INPUTS.items() if is_json
    for path, value in _value_paths(json.loads(original)) if isinstance(value, str)
]


@pytest.mark.parametrize(("name", "key_path"), STRINGS,
                         ids=["/".join(map(str, [n, *p])) for n, p in STRINGS])
def test_lone_surrogate_in_any_string_runs_or_exits_two_naming_the_file(name, key_path, work):
    original, _is_json, rel, _argv = INPUTS[name]
    value = json.loads(original)
    for key in key_path:
        value = value[key]
    path = work / rel
    path.write_bytes(_swapped(original, key_path, value + "\ud800"))
    _run(name, path, work / "out")
