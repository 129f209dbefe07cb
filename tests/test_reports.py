"""Report parsing, tokenization, and the four-step preprocessing pipeline."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racerepro.reports import (
    _CAMEL_RE,
    C_RESERVED_WORDS,
    MODE_C_SOURCE,
    MODE_TEXT,
    STOP_WORDS,
    BugReport,
    InputError,
    load_report,
    preprocess,
    preprocess_tokens,
    split_identifier,
    split_sentences,
    tokenize,
)


# --- loading ------------------------------------------------------------------

def test_load_plain_text(tmp_path):
    path = tmp_path / "bug_1.txt"
    path.write_text("Subject: mv race\n\nFirst sentence. Second sentence.\n")
    report = load_report(path)
    assert report.id == "bug_1"
    assert report.subject == "mv race"
    assert report.body.startswith("First sentence.")
    assert report.sentences == ["First sentence", "Second sentence"]


def test_load_missing_subject_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mv race without a header\n\nbody here.\n")
    with pytest.raises(InputError):
        load_report(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_report(tmp_path / "nope.txt")


def test_load_structured_json(tmp_path):
    path = tmp_path / "bug.json"
    path.write_text(json.dumps({"id": "r-7", "subject": "s", "body": "a. b."}))
    report = load_report(path)
    assert report.id == "r-7"
    assert report.subject == "s"
    assert report.sentences == ["a", "b"]


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bug.json"
    path.write_text(json.dumps({"subject": "missing id"}))
    with pytest.raises(InputError):
        load_report(path)


@pytest.mark.parametrize("field", ["subject", "body"])
@pytest.mark.parametrize("value", [{"a": 1}, ["s"], 5, None])
def test_load_json_report_rejects_a_non_string_field(tmp_path, field, value):
    path = tmp_path / "bug.json"
    path.write_text(json.dumps({"id": "r-7", "subject": "s", "body": "b", field: value}))
    with pytest.raises(InputError) as info:
        load_report(path)
    assert str(info.value).startswith(f"{path}: field '{field}': wrong JSON type")


def test_bundled_mv_fixture_subject_mentions_both_calls(mv_report):
    assert "unlink" in mv_report.subject
    assert "rename" in mv_report.subject


# --- sentence splitting -------------------------------------------------------

def test_split_sentences_delimiters():
    assert split_sentences("One. Two? Three!") == ["One", "Two", "Three"]


def test_split_sentences_trailing_text_and_empties():
    assert split_sentences("First..  Second without delimiter") == [
        "First",
        "Second without delimiter",
    ]
    assert split_sentences("") == []
    assert split_sentences("...") == []


def test_mv_fixture_sentences_carry_the_pair(mv_report):
    both = [
        s for s in mv_report.sentences if "unlink" in s and "rename" in s
    ]
    assert len(mv_report.sentences) >= 3
    assert len(both) >= 2


# --- tokenization ---------------------------------------------------------------

def test_tokenize_splits_compounds_and_keeps_whole():
    assert tokenize("copy_internal fails") == [
        "copy_internal", "copy", "internal", "fails",
    ]


def test_tokenize_camel_case():
    assert tokenize("readFile") == ["readfile", "read", "file"]


def test_tokenize_raw_mode():
    assert tokenize("copy_internal readFile", split_compounds=False) == [
        "copy_internal", "readfile",
    ]


def test_tokenize_strips_punctuation():
    assert tokenize("rename(), unlink!") == ["rename", "unlink"]


def test_split_identifier():
    assert split_identifier("copy_internal") == ["copy", "internal"]
    assert split_identifier("HTTPServer") == ["HTTP", "Server"]
    assert split_identifier("plain") == ["plain"]


def _split_identifier_loop(token: str) -> list[str]:
    """The per-chunk loop ``split_identifier`` replaced, kept as its oracle."""
    parts: list[str] = []
    for chunk in token.split("_"):
        parts.extend(_CAMEL_RE.findall(chunk))
    return parts


@settings(max_examples=500, deadline=None, derandomize=True)
@given(word=st.text(alphabet=st.sampled_from(list("aBcDxY09_")), min_size=1, max_size=24))
def test_split_identifier_matches_per_chunk_loop(word):
    assert split_identifier(word) == _split_identifier_loop(word)


# --- preprocessing --------------------------------------------------------------

def test_stop_word_list_size():
    # the classic 318-entry English list, bundled verbatim
    assert len(STOP_WORDS) == 318
    assert "the" in STOP_WORDS
    assert "unlink" not in STOP_WORDS


def test_c_reserved_list():
    assert len(C_RESERVED_WORDS) == 44
    assert "while" in C_RESERVED_WORDS
    assert "int" in C_RESERVED_WORDS


def test_preprocess_removes_stop_words_and_stems():
    assert preprocess("the process renamed a file") == ["process", "renam", "file"]


def test_preprocess_c_source_mode_drops_reserved_words():
    tokens = tokenize("int running; unlink(path);")
    assert preprocess_tokens(tokens, MODE_C_SOURCE) == ["run", "unlink", "path"]
    # natural-language mode keeps the reserved word ("int" is not a stop word)
    assert preprocess_tokens(tokens, MODE_TEXT) == ["int", "run", "unlink", "path"]


def test_preprocess_unknown_mode():
    for tokens in (["x"], []):
        with pytest.raises(ValueError):
            preprocess_tokens(tokens, mode="klingon")


def test_preprocess_idempotent_on_fixture_reports(mv_report, gzip_report):
    for report in (mv_report, gzip_report):
        for mode in (MODE_TEXT, MODE_C_SOURCE):
            once = preprocess(report.subject + "\n" + report.body, mode)
            assert preprocess_tokens(once, mode) == once


def test_from_parts_populates_sentences():
    report = BugReport.from_parts("x", "subj", "One. Two.")
    assert report.sentences == ["One", "Two"]
