"""Lexical C indexing: the one-pass scanner, function records, call sites, call graph."""

from __future__ import annotations

import bisect
import copy
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, GZIP_DIR, MV_DIR, ROOT, load_bench_gen
from racerepro import csource
from racerepro.catalog import bundled_catalog
from racerepro.cli import EXIT_CONFIG, EXIT_OK, main
from racerepro.csource import (
    _SCAN_RE,
    CallGraph,
    FunctionRecord,
    Site,
    _scan_file,
    index_tree,
)
from racerepro.metrics import MODES, ExperimentConfig, FixtureBundle, parse_mode, run_fixture
from racerepro.reports import MODE_C_SOURCE, preprocess, preprocess_tokens, tokenize

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


# --- what the scanner reads and skips -------------------------------------------

_CODE_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(){};]")


def _code_tokens(text: str) -> list[tuple[str, int]]:
    """(token, offset) of every code token the one-pass scanner reads."""
    return [(m.group(), m.start()) for m in _SCAN_RE.finditer(text) if m.lastgroup]


def _oracle_tokens(text: str) -> list[tuple[str, int]]:
    """(token, offset) of every code token left by the masking oracle."""
    return [(m.group(), m.start()) for m in _CODE_TOKEN_RE.finditer(_mask_code_oracle(text))]


def test_scan_offsets_index_the_raw_text():
    toks = _code_tokens(SNIPPET)
    assert toks
    assert all(SNIPPET[pos : pos + len(tok)] == tok for tok, pos in toks)


def test_scan_skips_comments_strings_and_preprocessor():
    words = {tok for tok, _pos in _code_tokens(SNIPPET)}
    assert not {"helper", "mention", "drops", "include", "stdio", "s", "n"} & words
    unlinks = [pos for tok, pos in _code_tokens(SNIPPET) if tok == "unlink"]
    assert unlinks == [SNIPPET.index("unlink (path)")]  # the real call survives


def test_scan_block_comment_spanning_lines():
    text = "int x; /* a\nb\nc */ int y;"
    assert _code_tokens(text) == [
        ("int", 0), ("x", 4), (";", 5), ("int", 19), ("y", 23), (";", 24),
    ]


def _mask_code_oracle(text: str) -> str:
    """Character-by-character state machine: the raw text with comments,
    literal contents and preprocessor lines blanked.  The scanner's code
    tokens must be exactly the code tokens left in its output.

    A block comment reads as a blank, so a ``#`` after blanks and comments
    still opens a directive; a literal ends at an unescaped newline."""
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
            if ch == "/" and nxt == "*":
                state = "block_comment"  # at_line_start carries across it
                out[i] = out[i + 1] = " "
                i += 2
                continue
            at_line_start = ch == "\n"
            if ch == "/" and nxt == "/":
                state = "line_comment"
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
        elif ch == "\n":
            state = "code"
            at_line_start = True
        else:
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
    assert _code_tokens(text) == _oracle_tokens(text)


@pytest.mark.parametrize("text", [
    "  #define X 1 \\\n  continued\nint y;",
    "\t#if A // c\n\tint z;",
    "x = '\\'';\n#x",
    "/* open to the end\n#define",
    "s = \"a\\\nb\" /**/ t;",
    "/* a */\n#pragma once",
    "int a; # not a directive",
    "#if 0\nit's old\n#endif\nint f;",
    "s = \"open\nint t;",
    "s = 'a\\\nb' c;",
    "/* hdr */ #define WRAP(f) { f (); }\nint u;",
    "/* a\n */ #define X\nint v;",
    "int w; /* a\n */ #define X",
    "/* a */ x /* b */ #define Y",
])
def test_mask_edge_cases_match_oracle(text):
    assert _code_tokens(text) == _oracle_tokens(text)


# --- scanning -------------------------------------------------------------------

#: case -> (files; each function as (file, name, start line, end line);
#: each file's sites as (syscall, function, line); the call-graph edges)
SCANS = {
    "records, sites and edges of a snippet": (
        {"mover.c": SNIPPET},
        [("mover.c", "remove_target", 5, 10), ("mover.c", "do_move", 13, 19)],
        {"mover.c": [("unlink", "remove_target", 7), ("rename", "do_move", 16),
                     ("stat", "do_move", 18)]}, {"do_move": {"remove_target"}}),
    "a syscall named outside a call is no site": (
        {"c.c": "#define RM(p) unlink (p)\n"
                "int f (const char *p) {\n"
                "  int (*rm) (const char *) = unlink;  /* unlink (p) */\n"
                "  return rm (p) + unlink (p);\n}\n"},
        [("c.c", "f", 2, 5)], {"c.c": [("unlink", "f", 4)]}, {}),
    # h is defined after g calls it, in the next file; printf is defined nowhere
    "edges join the tree's functions only": (
        {"g.c": "int g (void) { return h (); }\n",
         "h.c": "int h (void) { g (); return printf (\"x\"); }\n"},
        [("g.c", "g", 1, 1), ("h.c", "h", 1, 1)], {"g.c": [], "h.c": []},
        {"g": {"h"}, "h": {"g"}}),
    # the quote in "it's" ends at its line, so the code below it is read
    "an unterminated char literal ends at its line": (
        {"old.c": "#if 0\nit's old\n#endif\n"
                  "int f (void) { return unlink (\"x\"); }\n"
                  "int g (void) { return 'a'; }\n"
                  "int h (void) { return 0; }\n"},
        [("old.c", "f", 4, 4), ("old.c", "g", 5, 5), ("old.c", "h", 6, 6)],
        {"old.c": [("unlink", "f", 4)]}, {}),
    # WRAP's body is part of the directive: no function f, no call of f
    "a directive after a block comment is not code": (
        {"wrap.c": "/* hdr */ #define WRAP(f) { f (); }\n"
                   "int k (void) { return close (0); }\n"},
        [("wrap.c", "k", 2, 2)], {"wrap.c": [("close", "k", 2)]}, {}),
    # one site per (syscall, function, line), at its first call, as with
    # mv's ``if (fsync (fd) != 0 && fsync (fd) != 0)``
    "two calls of one syscall on one line are one site": (
        {"t.c": "int twice (int fd, const char *p) {\n"
                "  if (close (fd) != 0 && stat (p, 0) != 0 && close (fd) != 0)\n"
                "    return -1;\n  return 0;\n}\n"},
        [("t.c", "twice", 1, 5)], {"t.c": [("close", "twice", 2), ("stat", "twice", 2)]}, {}),
    # an unterminated body closes at the last line, the empty one after a
    # final newline included
    "a truncated body ends at the last line": (
        {"t.c": "int f (void) {\n  return close (0);\n"},
        [("t.c", "f", 1, 3)], {"t.c": [("close", "f", 2)]}, {}),
    "a truncated body without a final newline": (
        {"t.c": "int f (void) {\n  return close (0);"},
        [("t.c", "f", 1, 2)], {"t.c": [("close", "f", 2)]}, {}),
    # a site is on its name's line, not its paren's
    "a call whose paren is on the next line": (
        {"t.c": "int f (void) {\n  return close\n    (0);\n}\n"},
        [("t.c", "f", 1, 4)], {"t.c": [("close", "f", 2)]}, {}),
    # a function starts on its name's line, not its brace's
    "a head whose brace is lines below its name": (
        {"t.c": "int\nf (int fd)\n\n{\n  return close (fd);\n}\n"},
        [("t.c", "f", 2, 6)], {"t.c": [("close", "f", 5)]}, {}),
}


@pytest.mark.parametrize("row", list(SCANS))
def test_scan(row, tmp_path):
    files, functions, sites, edges = SCANS[row]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    index = index_tree(tmp_path, SYSCALLS)
    assert [(f.file, f.name, f.start_line, f.end_line) for f in index.functions] == functions
    assert index.sites == {path: [Site(syscall, path, function, line)
                                  for syscall, function, line in file_sites]
                           for path, file_sites in sites.items()}
    assert index.graph.edges == edges


def test_sites_match_line_scanner_oracle(mv_index):
    """Independent oracle: regex over the masking oracle's lines, scoped to
    function spans, one site per line.

    The scanner records the called identifier's line; the regex oracle only
    recognizes single-line calls, which is all the fixture trees use.
    """
    # mv calls fsync twice on one line and read twice on another
    for syscall in ("unlink", "rename", "link", "fsync", "read"):
        expected = []
        for record in mv_index.functions:
            masked = _mask_code_oracle((MV_DIR / "src" / record.file).read_text())
            for lineno, line in enumerate(masked.splitlines(), start=1):
                if record.start_line <= lineno <= record.end_line and re.search(
                    rf"\b{syscall}\s*\(", line
                ):
                    expected.append((record.file, record.name, lineno))
        expected.sort(key=lambda s: (s[0], s[2]))
        got = [(s.file, s.function, s.line)
               for sites in mv_index.sites.values() for s in sites if s.syscall == syscall]
        assert got == expected, syscall


def test_mv_call_graph_reaches_do_link(mv_index):
    assert mv_index.graph.reaches("main", "do_link")
    assert not mv_index.graph.reaches("backup_rename", "do_link")


def test_call_graph_reaches_over_several_calls():
    graph = CallGraph()
    for caller, callee in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]:
        graph.add_edge(caller, callee)
    assert graph.reaches("a", "d")  # a -> b -> c -> d
    assert graph.reaches("a", "a")  # around the cycle
    assert not graph.reaches("d", "a")
    assert not graph.reaches("x", "a")  # not a node: no edges leave it


def test_variable_field_collects_identifiers(tmp_path):
    (tmp_path / "mover.c").write_text(SNIPPET)
    doc = index_tree(tmp_path, SYSCALLS).docs[0]
    assert "path" in doc.fields["variable_names"]
    assert doc.fields["file_name"] == ["mover", "c"]


def _line_starts_loop(text: str) -> list[int]:
    """Offset of the first character of every line, by a per-character loop."""
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def _line_of(starts: list[int], pos: int) -> int:
    return bisect.bisect_right(starts, pos)


def reference_scan(rel_path: str, text: str):
    """The body ``_scan_file`` had before the one-pass scan: a list of code
    tokens walked by index, with a nested loop matching a head's parens,
    each line looked up among the line starts."""
    starts = _line_starts_loop(text)
    # (text, offset, is identifier) per code token
    toks = [
        (m.group(), m.start(), m.lastgroup == "ident")
        for m in _SCAN_RE.finditer(text)
        if m.lastgroup
    ]
    functions: list[FunctionRecord] = []
    variables: dict[str, None] = {}

    i = 0
    n = len(toks)
    current: FunctionRecord | None = None
    depth = 0  # brace depth inside the current function body

    while i < n:
        tok, pos, is_ident = toks[i]
        if current is None:
            if is_ident:
                if i + 1 < n and toks[i + 1][0] == "(":
                    # match parens; a following '{' makes this a definition
                    pdepth = 0
                    j = i + 1
                    while j < n:
                        if toks[j][0] == "(":
                            pdepth += 1
                        elif toks[j][0] == ")":
                            pdepth -= 1
                            if pdepth == 0:
                                break
                        j += 1
                    if j + 1 < n and toks[j + 1][0] == "{":
                        current = FunctionRecord(
                            name=tok,
                            file=rel_path,
                            start_line=_line_of(starts, pos),
                            end_line=_line_of(starts, toks[j + 1][1]),
                        )
                        depth = 1
                        # parameter identifiers count as variables
                        for name, _pos, name_is_ident in toks[i + 2 : j]:
                            if name_is_ident:
                                variables[name] = None
                        i = j + 2
                        continue
                    # top-level call position (e.g. global initializer): skip it
                    i = j + 1 if j < n else n
                    continue
                variables[tok] = None
            i += 1
            continue

        # inside a function body
        if tok == "{":
            depth += 1
        elif tok == "}":
            depth -= 1
            if depth == 0:
                current.end_line = _line_of(starts, pos)
                functions.append(current)
                current = None
        elif is_ident:
            if i + 1 < n and toks[i + 1][0] == "(":
                current.call_sites.append((tok, _line_of(starts, pos)))
            else:
                variables[tok] = None
        i += 1

    if current is not None:
        # unterminated body (truncated file): close at last line
        current.end_line = len(starts)
        functions.append(current)
    return functions, variables


def _assert_lines_read_true(text: str) -> None:
    """Each record's lines, read in the text itself: its start line holds
    its name, its end line its ``}`` (or is the last line, for a truncated
    body) and each call site's line the name called."""
    lines = text.split("\n")
    for record in _scan_file("t.c", text)[0]:
        assert record.name in lines[record.start_line - 1], text
        assert "}" in lines[record.end_line - 1] or record.end_line == len(lines), text
        for name, line in record.call_sites:
            assert name in lines[line - 1], text


def _assert_scans_agree(text: str, rel: str = "t.c") -> None:
    """Same records (name, file, lines, call sites) and the same variables
    in the same order from ``_scan_file`` and ``reference_scan``, and each
    record's lines true to the text."""
    def outcome(scan):
        functions, variables = scan(rel, text)
        records = [(f.name, f.file, f.start_line, f.end_line, f.call_sites) for f in functions]
        return records, list(variables)

    assert outcome(_scan_file) == outcome(reference_scan), text
    _assert_lines_read_true(text)


def test_scan_matches_reference_on_fixture_files():
    files = sorted(FIXTURES.rglob("*.[ch]"))
    assert files
    for path in files:
        _assert_scans_agree(path.read_text("utf-8", errors="replace"), path.name)


def test_scan_matches_reference_on_generated_trees(tmp_path):
    gen = load_bench_gen()
    vocab = gen.Vocab(ROOT)
    for seed in (1, 2):
        root = tmp_path / str(seed)
        rels, _plants = gen.write_tree(vocab, random.Random(seed), root, 150, ["open-enoent"])
        for rel in rels:
            _assert_scans_agree((root / rel).read_text("utf-8"), rel)


#: Fragments of C text weighted toward what moves the scanner's state:
#: unbalanced parens and braces, and openers of comments, literals and
#: directives that may or may not close.
_SCAN_PIECES = (
    "f", "g", "open", "x_1", "(", "(", ")", ")", "{", "{", "}", "}", ";",
    " ", "\n", "\t", "1", "/*", "*/", "//", "#", "\\\n", '"', "'", "\\",
    "/* ( { */", "// ) }\n", '"( {"', "'('", "#define M(a) {\n",
)


def test_scan_matches_reference_on_fuzzed_token_strings():
    rng = random.Random(20261018)
    for _ in range(20_000):
        _assert_scans_agree(
            "".join(rng.choice(_SCAN_PIECES) for _ in range(rng.randint(0, 40)))
        )


def test_pipeline_on_a_large_tree_is_byte_identical_run_to_run(tmp_path, monkeypatch, capsys):
    """Two ``pipeline`` runs on a generated 1000-file tree, each building its
    index afresh, write the same bytes."""
    gen = load_bench_gen()
    vocab, rng = gen.Vocab(ROOT), random.Random("large tree")
    _rels, (plant,) = gen.write_tree(vocab, rng, tmp_path / "src", 1000, ["open-enoent"])
    prog, observer = gen.program_name(plant), gen.other_name(vocab, rng, plant)
    (tmp_path / "report.txt").write_text(gen.direct_report(vocab, rng, prog, plant), "utf-8")
    gen.write_json(tmp_path / "scenario.json", gen.scenario(rng, plant, (prog, observer))[0])
    (tmp_path / "spec.tsl").write_text(gen.tsl_spec(rng)[0], "utf-8")
    outs = [tmp_path / "out1", tmp_path / "out2"]
    for out in outs:
        monkeypatch.setattr(csource, "_indexes", {})
        code = main(["pipeline", "--report", str(tmp_path / "report.txt"),
                     "--src", str(tmp_path / "src"), "--scenario", str(tmp_path / "scenario.json"),
                     "--tsl", str(tmp_path / "spec.tsl"), "--out-dir", str(out)])
        assert code in (0, 1)
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].iterdir())
    assert "ranked_files.json" in names
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# --- the tree walk ---------------------------------------------------------------

def _tree_files_oracle(src_root: Path) -> list[Path]:
    """The ``Path.rglob`` listing ``_tree_files`` replaced, kept as its oracle."""
    return sorted(
        p for p in src_root.rglob("*") if p.is_file() and p.suffix in csource.SOURCE_SUFFIXES
    )


def _awkward_tree(root: Path) -> Path:
    src = root / "src"
    for rel in ("a.c", "a/b.c", "a/c/d.h", "a-b.c", "z.h", "..c", ".hidden/h.c",
                "x.c/inner.c", ".c", "notes.txt", "c"):
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"int f_{len(rel)} (void) {{ return unlink (\"{rel}\"); }}\n")
    (src / "link.c").symlink_to("a.c")
    (src / "gone.c").symlink_to("missing.c")
    (src / "dirlink").symlink_to("a", target_is_directory=True)
    os.mkfifo(src / "fifo.c")
    return src


def test_tree_walk_matches_the_rglob_oracle(tmp_path, monkeypatch):
    src = _awkward_tree(tmp_path)
    want = _tree_files_oracle(src)
    rels = [p.relative_to(src).as_posix() for p in want]
    assert rels == [
        "..c", ".hidden/h.c", "a/b.c", "a/c/d.h", "a-b.c", "a.c", "link.c",
        "x.c/inner.c", "z.h",
    ]
    assert csource._tree_files(src) == [(str(p), rel) for p, rel in zip(want, rels)]

    index = _cold_index(src, SYSCALLS, monkeypatch)
    ((sources, _diagnostics, _names),) = csource._indexes
    assert sources == tuple((rel, path.read_bytes()) for path, rel in zip(want, rels))
    assert [d.path for d in index.docs] == rels


@pytest.mark.parametrize("kind", ["file", "missing", "empty-dir"])
def test_src_that_is_no_directory_exits_two(tmp_path, capsys, kind):
    src = tmp_path / "plain.c"
    if kind == "file":
        src.write_text("int f (void) { return 0; }\n")
    elif kind == "empty-dir":
        src.mkdir()
    code = main([
        "rank-files", "--report", str(MV_DIR / "mv_438076.txt"), "--src", str(src),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {src}: no C source files to index\n"


# --- fields --------------------------------------------------------------------

@pytest.mark.parametrize("root", [MV_DIR / "src", GZIP_DIR / "src"])
def test_per_word_preprocessing_equals_whole_text_preprocessing(root):
    memo = {}  # shared across the tree's files, as one index build shares it
    for path in sorted(root.rglob("*.[ch]")):
        text = path.read_text("utf-8", errors="replace")
        want = preprocess_tokens(tokenize(text), MODE_C_SOURCE)
        assert preprocess(text, MODE_C_SOURCE, memo) == want, path
        assert preprocess(text, MODE_C_SOURCE) == want, path


def test_full_text_field_is_the_preprocessed_file(mv_index):
    for doc in mv_index.docs:
        text = (MV_DIR / "src" / doc.path).read_text("utf-8", errors="replace")
        want = preprocess_tokens(tokenize(text), MODE_C_SOURCE)
        assert doc.fields["full_text_with_comments"] == want, doc.path


# --- line numbers ---------------------------------------------------------------

@pytest.mark.parametrize("text", ["", "\n", "x", "a\n\nb", "a\nb\n", "\n\n\n"])
def test_lines_are_counted_around_edge_texts(text):
    # a closed body with a call split over two lines, and two truncated bodies
    for shape in ("{0}f (a)\n{{{0}g\n(a);{0}}}{0}", "{0}f (a) {{{0}g (a);{0}",
                  "{0}f (a) {{ g (a){0}"):
        _assert_scans_agree(shape.format(text))


@pytest.mark.parametrize("root", [MV_DIR / "src", GZIP_DIR / "src"])
def test_lines_are_counted_on_masked_fixture_text(root):
    # the raw files are scanned in test_scan_matches_reference_on_fixture_files
    for path in sorted(root.rglob("*.[ch]")):
        _assert_scans_agree(_mask_code_oracle(path.read_text("utf-8", errors="replace")), path.name)


# --- the index memo ------------------------------------------------------------

def _cold_index(root: Path, names, monkeypatch):
    """An index built with the memo empty."""
    monkeypatch.setattr(csource, "_indexes", {})
    return index_tree(root, names)


def _small_tree(root: Path) -> Path:
    src = root / "src"
    src.mkdir()
    (src / "a.c").write_text("int f (void) { return open (\"x\"); }\n")
    (src / "b.c").write_text("int g (void) { f (); return close (0); }\n")
    return src


def test_unchanged_tree_returns_the_same_index(tmp_path):
    src = _small_tree(tmp_path)
    first = index_tree(src, SYSCALLS)
    second = index_tree(src, SYSCALLS)
    assert second is first


def test_index_memo_keys_on_source_files_in_subdirectories_only(tmp_path):
    src = _small_tree(tmp_path)
    (src / "lib").mkdir()
    (src / "lib" / "util.h").write_text("int helper (int x);\n")
    (src / "notes.txt").write_text("not indexed\n")
    first = index_tree(src, SYSCALLS)
    (src / "notes.txt").write_text("edited, still not indexed\n")
    assert index_tree(src, SYSCALLS) is first
    (src / "lib" / "util.h").write_text("int helper (int y);\n")
    assert index_tree(src, SYSCALLS) is not first


def _edit_same_length(src: Path) -> None:
    text = (src / "a.c").read_text()
    (src / "a.c").write_text(text.replace("open", "stat"))


def _add_file(src: Path) -> None:
    (src / "c.c").write_text("int h (void) { return unlink (\"y\"); }\n")


def _remove_file(src: Path) -> None:
    (src / "b.c").unlink()


@pytest.mark.parametrize("change", [_edit_same_length, _add_file, _remove_file])
def test_changed_tree_gives_a_fresh_index(change, tmp_path, monkeypatch):
    src = _small_tree(tmp_path)
    before = index_tree(src, SYSCALLS)
    size = (src / "a.c").stat().st_size
    change(src)
    if change is _edit_same_length:
        assert (src / "a.c").stat().st_size == size
    fresh = index_tree(src, SYSCALLS)
    assert fresh is not before
    assert fresh == _cold_index(src, SYSCALLS, monkeypatch)


def test_other_syscall_names_give_a_fresh_index(tmp_path, monkeypatch):
    src = _small_tree(tmp_path)
    before = index_tree(src, SYSCALLS)
    names = SYSCALLS - {"open"}
    fresh = index_tree(src, names)
    assert fresh is not before
    assert fresh.sites["a.c"] == []
    assert fresh == _cold_index(src, names, monkeypatch)


def _counting_builds(monkeypatch) -> list[tuple[str, ...]]:
    """With the memo empty, record the relative paths of every tree built."""
    built, real = [], csource._build_index

    def counting(sources, names, diagnostics):
        built.append(tuple(rel for rel, _data in sources))
        return real(sources, names, diagnostics)

    monkeypatch.setattr(csource, "_build_index", counting)
    monkeypatch.setattr(csource, "_indexes", {})
    return built


def _one_file_tree(root: Path, name: str) -> Path:
    """A tree of one file, ``<name>.c``; names of one length give trees of one size."""
    src = root / name
    src.mkdir()
    (src / f"{name}.c").write_text(f"int f_{name} (void) {{ return open (\"x\"); }}\n")
    return src


def _tree_bytes(src: Path) -> int:
    return sum(Path(path).stat().st_size for path, _rel in csource._tree_files(src))


def _held(trees: dict[str, Path]) -> list[str]:
    """The names of the remembered trees, least recently used first."""
    names = {(src / f"{name}.c").read_bytes(): name for name, src in trees.items()}
    return [names[sources[0][1]] for sources, _diagnostics, _names in csource._indexes]


def test_returning_to_a_tree_reuses_its_index(tmp_path, monkeypatch):
    built = _counting_builds(monkeypatch)
    a, b = _one_file_tree(tmp_path, "a"), _small_tree(tmp_path)
    first = index_tree(a, SYSCALLS)
    other = index_tree(b, SYSCALLS)
    assert index_tree(a, SYSCALLS) is first
    assert index_tree(b, SYSCALLS) is other
    assert built == [("a.c",), ("a.c", "b.c")]


def test_interleaved_eval_modes_build_each_tree_once(tmp_path, monkeypatch, catalog):
    gen = load_bench_gen()
    vocab = gen.Vocab(ROOT)
    rng = random.Random(11)
    bundles = [FixtureBundle.from_dir(MV_DIR), FixtureBundle.from_dir(GZIP_DIR)]
    for t, n_files in enumerate((14, 16, 18)):
        d = tmp_path / f"gen{t}"
        _rels, (plant,) = gen.write_tree(vocab, rng, d / "src", n_files, [gen.RACE_KINDS[t]])
        prog, observer = gen.program_name(plant), gen.other_name(vocab, rng, plant)
        (d / "report.txt").write_text(gen.direct_report(vocab, rng, prog, plant))
        gen.write_json(d / "scenario.json", gen.scenario(rng, plant, (prog, observer))[0])
        gen.write_json(d / "ground_truth.json", gen.ground_truth(d.name, plant))
        bundles.append(FixtureBundle.from_dir(d))
    built = _counting_builds(monkeypatch)
    for mode in (*MODES[:-1], "perturbed@0.25"):
        name, fraction = parse_mode(mode)
        config = ExperimentConfig(mode=name, perturb_fraction=fraction, seed=7)
        for bundle in bundles:  # every tree between two runs on one tree
            run_fixture(bundle, config, catalog)
    assert sum(_tree_bytes(b.src_root) for b in bundles) <= csource._MEMO_MAX_BYTES
    assert sorted(built) == sorted(
        tuple(rel for _path, rel in csource._tree_files(b.src_root)) for b in bundles
    )


def test_a_tree_over_the_budget_is_remembered_alone(tmp_path, monkeypatch):
    trees = {name: _one_file_tree(tmp_path, name) for name in ("a", "b", "big")}
    (trees["big"] / "big.c").write_text((trees["big"] / "big.c").read_text() * 3)
    monkeypatch.setattr(csource, "_MEMO_MAX_BYTES", 2 * _tree_bytes(trees["a"]))
    assert _tree_bytes(trees["big"]) > csource._MEMO_MAX_BYTES
    held_at_build, build = [], csource._build_index

    def recording(*args):
        held_at_build.append(_held(trees))
        return build(*args)

    monkeypatch.setattr(csource, "_build_index", recording)
    monkeypatch.setattr(csource, "_indexes", {})
    index_tree(trees["a"], SYSCALLS)
    index_tree(trees["b"], SYSCALLS)
    big = index_tree(trees["big"], SYSCALLS)
    assert held_at_build == [[], ["a"], []]  # both forgotten before the build
    assert index_tree(trees["big"], SYSCALLS) is big
    assert held_at_build == [[], ["a"], []]
    assert _held(trees) == ["big"]


def test_the_least_recently_used_index_is_the_one_forgotten(tmp_path, monkeypatch):
    built = _counting_builds(monkeypatch)
    trees = {name: _one_file_tree(tmp_path, name) for name in ("a", "b", "c", "d")}
    monkeypatch.setattr(csource, "_MEMO_MAX_BYTES", 3 * _tree_bytes(trees["a"]))
    indexes = {name: index_tree(trees[name], SYSCALLS) for name in ("a", "b", "c")}
    assert _held(trees) == ["a", "b", "c"]  # the budget is full
    assert index_tree(trees["a"], SYSCALLS) is indexes["a"]
    assert _held(trees) == ["b", "c", "a"]
    index_tree(trees["d"], SYSCALLS)
    assert _held(trees) == ["c", "a", "d"]
    assert index_tree(trees["c"], SYSCALLS) is indexes["c"]
    assert built == [("a.c",), ("b.c",), ("c.c",), ("d.c",)]


@pytest.mark.parametrize("refused", [("cache.c",), ("cache.c", "copy.c")], ids=["one", "two"])
def test_unreadable_source_file_logs_one_warning_per_build(monkeypatch, caplog, refused):
    def refusing(path, *args, **kwargs):
        if os.path.basename(path) in refused:
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(csource, "open", refusing, raising=False)
    monkeypatch.setattr(csource, "_indexes", {})
    with caplog.at_level("WARNING", logger="racerepro.csource"):
        index = index_tree(MV_DIR / "src", SYSCALLS)
        assert index_tree(MV_DIR / "src", SYSCALLS) is index  # a memo hit logs nothing
    assert len(index.docs) == 11 - len(refused)
    assert index.diagnostics == [  # in file order
        f"skipped {name}: [Errno 13] Permission denied: '{MV_DIR / 'src' / name}'"
        for name in refused
    ]
    (record,) = caplog.records
    assert (record.name, record.levelname) == ("racerepro.csource", "WARNING")
    assert record.getMessage() == (
        f"{len(refused)} source file(s) skipped; first: {index.diagnostics[0]}")


def test_a_tree_of_unreadable_source_files_is_refused(monkeypatch):
    def refusing(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(csource, "open", refusing, raising=False)
    monkeypatch.setattr(csource, "_indexes", {})
    with pytest.raises(ValueError, match="every source file was unreadable"):
        index_tree(MV_DIR / "src", SYSCALLS)
    assert csource._indexes == {}


def test_pipeline_runs_share_the_index_without_changing_it(tmp_path):
    src = MV_DIR / "src"
    names = frozenset(bundled_catalog().entries)
    index = index_tree(src, names)
    before = copy.deepcopy(index)
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in dirs:
        code = main([
            "pipeline", "--report", str(MV_DIR / "mv_438076.txt"), "--src", str(src),
            "--scenario", str(MV_DIR / "scenario.json"), "--tsl", str(MV_DIR / "mv.tsl"),
            "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
    assert index_tree(src, names) is index
    assert index == before
    names_written = sorted(p.name for p in dirs[0].iterdir())
    assert names_written == sorted(p.name for p in dirs[1].iterdir())
    for name in names_written:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
