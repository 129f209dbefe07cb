"""Lexical C indexing: masking, function records, call sites, call graph."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GZIP_DIR, MV_DIR
from racerepro.csource import (
    StaleIndexError,
    find_syscall_sites,
    index_tree,
    load_index,
    mask_code,
    save_index,
    tree_content_hash,
)

SYSCALLS = frozenset({"open", "close", "read", "unlink", "rename", "stat"})

SNIPPET = """\
/* helper with an unlink mention in a comment */
#include <stdio.h>

static int
remove_target (const char *path)
{
  int rc = unlink (path);      // drops the file
  printf ("unlink(%s)\\n", path);
  return rc;
}

int
do_move (const char *a, const char *b)
{
  remove_target (b);
  if (rename (a, b) != 0)
    return -1;
  return stat (b, 0);
}
"""


@pytest.fixture()
def snippet_index(tmp_path):
    (tmp_path / "mover.c").write_text(SNIPPET)
    return index_tree(tmp_path, SYSCALLS)


# --- masking ------------------------------------------------------------------

def test_mask_preserves_length_and_newlines():
    masked = mask_code(SNIPPET)
    assert len(masked) == len(SNIPPET)
    assert [i for i, c in enumerate(masked) if c == "\n"] == [
        i for i, c in enumerate(SNIPPET) if c == "\n"
    ]


def test_mask_blanks_comments_strings_and_preprocessor():
    masked = mask_code(SNIPPET)
    assert "helper with an unlink mention" not in masked
    assert "drops the file" not in masked
    assert "#include" not in masked
    assert "unlink(%s)" not in masked  # string literal content
    assert "unlink (path)" in masked  # the real call survives


def test_mask_block_comment_spanning_lines():
    text = "int x; /* a\nb\nc */ int y;"
    masked = mask_code(text)
    assert len(masked) == len(text)
    assert "int x;" in masked and "int y;" in masked
    assert "a" not in masked.replace("int", "")  # comment body gone


def _mask_code_oracle(text: str) -> str:
    """Character-by-character state machine that mask_code must agree with."""
    out = list(text)
    n = len(text)
    i = 0
    state = "code"  # code | line_comment | block_comment | string | char
    at_line_start = True
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if at_line_start and ch in " \t":
                i += 1
                continue
            if at_line_start and ch == "#":
                # preprocessor line, including backslash continuations
                while i < n and text[i] != "\n":
                    if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                        out[i] = " "
                        i += 2
                        continue
                    out[i] = " "
                    i += 1
                at_line_start = True
                i += 1
                continue
            at_line_start = ch == "\n"
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if ch == '"':
                state = "string"
            elif ch == "'":
                state = "char"
            i += 1
            continue
        if state == "line_comment":
            if ch == "\n":
                state = "code"
                at_line_start = True
            else:
                out[i] = " "
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if ch != "\n":
                out[i] = " "
            i += 1
            continue
        # string or char literal: mask contents, keep delimiters
        quote = '"' if state == "string" else "'"
        if ch == "\\" and i + 1 < n:
            out[i] = " "
            if text[i + 1] != "\n":
                out[i + 1] = " "
            i += 2
            continue
        if ch == quote:
            state = "code"
        elif ch != "\n":
            out[i] = " "
        i += 1
    return "".join(out)


# Weighted toward the characters that switch the masking state.
_C_ISH = st.text(
    alphabet=st.sampled_from(list("/*\"'\\#\n\t") * 4 + list(" \rabx_(){};0")),
    max_size=80,
)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(text=_C_ISH)
def test_mask_matches_state_machine_oracle(text):
    masked = mask_code(text)
    assert masked == _mask_code_oracle(text)
    assert len(masked) == len(text)
    assert [i for i, c in enumerate(masked) if c == "\n"] == [
        i for i, c in enumerate(text) if c == "\n"
    ]


@pytest.mark.parametrize("text", [
    "  #define X 1 \\\n  continued\nint y;",
    "\t#if A // c\n\tint z;",
    "x = '\\'';\n#x",
    "/* open to the end\n#define",
    "s = \"a\\\nb\" /**/ t;",
    "/* a */\n#pragma once",
    "int a; # not a directive",
])
def test_mask_edge_cases_match_oracle(text):
    assert mask_code(text) == _mask_code_oracle(text)


# --- scanning -------------------------------------------------------------------

def test_function_records(snippet_index):
    names = [f.name for f in snippet_index.functions]
    assert names == ["remove_target", "do_move"]
    remove_target = snippet_index.functions[0]
    assert remove_target.file == "mover.c"
    assert remove_target.start_line <= 7 <= remove_target.end_line


def test_syscall_sites_exclude_comments_and_strings(snippet_index):
    sites = find_syscall_sites(snippet_index, "unlink")
    # exactly one real unlink call: line 7
    assert sites == [("mover.c", "remove_target", 7)]
    assert find_syscall_sites(snippet_index, "rename") == [("mover.c", "do_move", 16)]
    assert find_syscall_sites(snippet_index, "stat") == [("mover.c", "do_move", 18)]


def test_sites_match_line_scanner_oracle(mv_index):
    """Independent oracle: regex over masked lines, scoped to function spans.

    The scanner records the called identifier's line; the regex oracle only
    recognizes single-line calls, which is all the fixture trees use.
    """
    src_root = Path(__file__).resolve().parent.parent / "fixtures" / "mv_438076" / "src"
    for syscall in ("unlink", "rename", "link"):
        expected = []
        for record in mv_index.functions:
            masked = mask_code((src_root / record.file).read_text())
            for lineno, line in enumerate(masked.splitlines(), start=1):
                if record.start_line <= lineno <= record.end_line and re.search(
                    rf"\b{syscall}\s*\(", line
                ):
                    expected.append((record.file, record.name, lineno))
        expected.sort(key=lambda s: (s[0], s[2]))
        assert find_syscall_sites(mv_index, syscall) == expected, syscall


def test_call_graph_edges(snippet_index):
    graph = snippet_index.graph
    assert graph.successors("do_move") == ["remove_target"]
    assert graph.reaches("do_move", "remove_target")
    assert not graph.reaches("remove_target", "do_move")


def test_mv_call_graph_reaches_do_link(mv_index):
    assert mv_index.graph.reaches("main", "do_link")
    assert not mv_index.graph.reaches("backup_rename", "do_link")


def test_variable_field_collects_identifiers(snippet_index):
    doc = snippet_index.docs[0]
    assert "path" in doc.fields["variable_names"]
    assert doc.fields["file_name"] == ["mover", "c"]


def test_index_tree_empty_dir(tmp_path):
    with pytest.raises(ValueError):
        index_tree(tmp_path, SYSCALLS)


def test_index_tree_deterministic_order(tmp_path):
    (tmp_path / "b.c").write_text("int bee (void) { return 0; }\n")
    (tmp_path / "a.c").write_text("int aye (void) { return 0; }\n")
    index = index_tree(tmp_path, SYSCALLS)
    assert [d.path for d in index.docs] == ["a.c", "b.c"]


# --- dump / reload ----------------------------------------------------------------

def test_save_load_roundtrip(tmp_path, snippet_index):
    dump = tmp_path / "index.json"
    save_index(snippet_index, dump)
    loaded = load_index(dump)
    assert [f.name for f in loaded.functions] == ["remove_target", "do_move"]
    assert loaded.content_hash == snippet_index.content_hash
    assert find_syscall_sites(loaded, "unlink") == [("mover.c", "remove_target", 7)]


def test_stale_index_detection(tmp_path):
    (tmp_path / "one.c").write_text("int f (void) { return open (\"x\"); }\n")
    index = index_tree(tmp_path, SYSCALLS)
    dump = tmp_path / "index.json"
    save_index(index, dump)
    (tmp_path / "one.c").write_text("int f (void) { return 1; }\n")
    with pytest.raises(StaleIndexError):
        load_index(dump, src_root=tmp_path)


def test_tree_content_hash_sensitivity(tmp_path):
    (tmp_path / "a.c").write_text("int f (void) { return 0; }\n")
    before = tree_content_hash(tmp_path)
    (tmp_path / "a.c").write_text("int f (void) { return 1; }\n")
    assert tree_content_hash(tmp_path) != before


@pytest.mark.parametrize("root", [MV_DIR / "src", GZIP_DIR / "src", None])
def test_index_hash_equals_tree_content_hash(root, tmp_path):
    if root is None:  # a tree with a subdirectory and a skipped non-C file
        root = tmp_path
        (root / "lib").mkdir()
        (root / "lib" / "util.h").write_text("int helper (int x);\n")
        (root / "lib" / "util.c").write_text("int helper (int x) { return x; }\n")
        (root / "main.c").write_text("int main (void) { return helper (0); }\n")
        (root / "notes.txt").write_text("not indexed\n")
    assert index_tree(root, SYSCALLS).content_hash == tree_content_hash(root)
