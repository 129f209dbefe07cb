"""Mutated input files either run or exit 2 naming the file; none raises.

Each fixture input of the mv bundle (the report, as text and as JSON, the
scenario, the ground truth and the TSL spec) is cut short, has a byte
flipped, gets an invalid UTF-8 sequence, or, for JSON, has one value
swapped for a value of another JSON type or a lone surrogate, or is
replaced by a document nested too deeply to parse.  The mutated file goes through
``cli.main`` with every other input left intact.
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
    """The key path of every value in a parsed JSON document, root first."""
    yield path
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
        paths = list(_value_paths(json.loads(original)))
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


@pytest.mark.parametrize("name", list(INPUTS))
@FUZZ
@given(data=st.data())
def test_mutated_input_runs_or_exits_two_naming_the_file(name, work, data):
    original, is_json, rel, argv = INPUTS[name]
    path = work / rel
    path.write_bytes(data.draw(mutations(original, is_json), label="mutated"))
    # stdout encodes strictly, as a terminal's does
    err, out = io.StringIO(), io.TextIOWrapper(io.BytesIO(), "utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv(str(path), str(work / "out")))
    assert code in (0, 1, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert f"error: {path}" in err.getvalue()
