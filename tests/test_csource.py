"""Lexical C indexing: the one-pass scanner, function records, call sites, call graph."""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import os
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, GZIP_DIR, MV_DIR, ROOT
from racerepro import csource
from racerepro.catalog import bundled_catalog
from racerepro.cli import EXIT_CONFIG, EXIT_OK, main
from racerepro.csource import (
    _SCAN_RE,
    FunctionRecord,
    _line_of,
    _line_starts,
    _scan_file,
    index_tree,
)
from racerepro.reports import MODE_C_SOURCE, preprocess_tokens, preprocess_words, tokenize

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


def test_unterminated_char_literal_ends_at_its_line(tmp_path):
    (tmp_path / "old.c").write_text(
        "#if 0\n"
        "it's old\n"
        "#endif\n"
        "int f (void) { return unlink (\"x\"); }\n"
        "int g (void) { return 'a'; }\n"
        "int h (void) { return 0; }\n"
    )
    index = index_tree(tmp_path, SYSCALLS)
    assert [f.name for f in index.functions] == ["f", "g", "h"]
    assert index.functions[0].syscall_sites == [("unlink", 4)]


def test_directive_after_a_block_comment_is_not_code(tmp_path):
    (tmp_path / "wrap.c").write_text(
        "/* hdr */ #define WRAP(f) { f (); }\n"
        "int k (void) { return close (0); }\n"
    )
    index = index_tree(tmp_path, SYSCALLS)
    assert [f.name for f in index.functions] == ["k"]
    assert index.graph.nodes == {"k"}


# --- scanning -------------------------------------------------------------------

def test_function_records(snippet_index):
    names = [f.name for f in snippet_index.functions]
    assert names == ["remove_target", "do_move"]
    remove_target = snippet_index.functions[0]
    assert remove_target.file == "mover.c"
    assert remove_target.start_line <= 7 <= remove_target.end_line


def _syscall_sites(index, syscall: str) -> list[tuple[str, str, int]]:
    """Every call-position site of a syscall: (file, function, line), sorted."""
    sites = [
        (record.file, record.name, line)
        for record in index.functions
        for name, line in record.call_sites
        if name == syscall
    ]
    return sorted(sites, key=lambda s: (s[0], s[2]))


def test_syscall_sites_exclude_comments_and_strings(snippet_index):
    sites = _syscall_sites(snippet_index, "unlink")
    # exactly one real unlink call: line 7
    assert sites == [("mover.c", "remove_target", 7)]
    assert _syscall_sites(snippet_index, "rename") == [("mover.c", "do_move", 16)]
    assert _syscall_sites(snippet_index, "stat") == [("mover.c", "do_move", 18)]


def test_sites_match_line_scanner_oracle(mv_index):
    """Independent oracle: regex over the masking oracle's lines, scoped to
    function spans.

    The scanner records the called identifier's line; the regex oracle only
    recognizes single-line calls, which is all the fixture trees use.
    """
    src_root = Path(__file__).resolve().parent.parent / "fixtures" / "mv_438076" / "src"
    for syscall in ("unlink", "rename", "link"):
        expected = []
        for record in mv_index.functions:
            masked = _mask_code_oracle((src_root / record.file).read_text())
            for lineno, line in enumerate(masked.splitlines(), start=1):
                if record.start_line <= lineno <= record.end_line and re.search(
                    rf"\b{syscall}\s*\(", line
                ):
                    expected.append((record.file, record.name, lineno))
        expected.sort(key=lambda s: (s[0], s[2]))
        assert _syscall_sites(mv_index, syscall) == expected, syscall


def test_call_graph_edges(snippet_index):
    graph = snippet_index.graph
    assert graph.edges["do_move"] == {"remove_target"}
    assert graph.reaches("do_move", "remove_target")
    assert not graph.reaches("remove_target", "do_move")


def test_mv_call_graph_reaches_do_link(mv_index):
    assert mv_index.graph.reaches("main", "do_link")
    assert not mv_index.graph.reaches("backup_rename", "do_link")


def test_variable_field_collects_identifiers(snippet_index):
    doc = snippet_index.docs[0]
    assert "path" in doc.fields["variable_names"]
    assert doc.fields["file_name"] == ["mover", "c"]


def reference_scan(rel_path: str, text: str):
    """The body ``_scan_file`` had before the one-pass scan: a list of code
    tokens walked by index, with a nested loop matching a head's parens."""
    starts = _line_starts(text)
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


def _assert_scans_agree(text: str, rel: str = "t.c") -> None:
    """Same records (name, file, lines, call sites) and the same variables
    in the same order from ``_scan_file`` and ``reference_scan``."""
    def outcome(scan):
        functions, variables = scan(rel, text)
        records = [(f.name, f.file, f.start_line, f.end_line, f.call_sites) for f in functions]
        return records, list(variables)

    assert outcome(_scan_file) == outcome(reference_scan), text


def test_scan_matches_reference_on_fixture_files():
    files = sorted(FIXTURES.rglob("*.[ch]"))
    assert files
    for path in files:
        _assert_scans_agree(path.read_text("utf-8", errors="replace"), path.name)


def _load_bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_scan_matches_reference_on_generated_trees(tmp_path):
    gen = _load_bench_gen()
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


def test_index_tree_empty_dir(tmp_path):
    with pytest.raises(ValueError):
        index_tree(tmp_path, SYSCALLS)


def test_index_tree_deterministic_order(tmp_path):
    (tmp_path / "b.c").write_text("int bee (void) { return 0; }\n")
    (tmp_path / "a.c").write_text("int aye (void) { return 0; }\n")
    index = index_tree(tmp_path, SYSCALLS)
    assert [d.path for d in index.docs] == ["a.c", "b.c"]


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

    digest = hashlib.sha256()
    for path, rel in zip(want, rels):
        digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    index = _cold_index(src, SYSCALLS, monkeypatch)
    assert csource._last_index[0][0] == digest.hexdigest()
    assert [d.path for d in index.docs] == rels


@pytest.mark.parametrize("kind", ["file", "missing"])
def test_src_that_is_no_directory_exits_two(tmp_path, capsys, kind):
    src = tmp_path / "plain.c"
    if kind == "file":
        src.write_text("int f (void) { return 0; }\n")
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
        assert preprocess_words(text, MODE_C_SOURCE, memo) == want, path
        assert preprocess_words(text, MODE_C_SOURCE, {}) == want, path


def test_full_text_field_is_the_preprocessed_file(mv_index):
    for doc in mv_index.docs:
        text = (MV_DIR / "src" / doc.path).read_text("utf-8", errors="replace")
        want = preprocess_tokens(tokenize(text), MODE_C_SOURCE)
        assert doc.fields["full_text_with_comments"] == want, doc.path


# --- line starts ----------------------------------------------------------------

def _line_starts_loop(text: str) -> list[int]:
    """The per-character loop ``_line_starts`` replaced, kept as its oracle."""
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


@pytest.mark.parametrize("text", ["", "\n", "x", "a\n\nb", "a\nb\n", "\n\n\n"])
def test_line_starts_edge_cases_match_loop(text):
    assert _line_starts(text) == _line_starts_loop(text)


@pytest.mark.parametrize("root", [MV_DIR / "src", GZIP_DIR / "src"])
def test_line_starts_match_loop_on_fixtures(root):
    for path in sorted(root.rglob("*.[ch]")):
        text = path.read_text("utf-8", errors="replace")
        for variant in (text, _mask_code_oracle(text)):
            assert _line_starts(variant) == _line_starts_loop(variant), path


# --- the one-slot index memo ------------------------------------------------------

def _cold_index(root: Path, names, monkeypatch):
    """An index built with the memo slot empty."""
    monkeypatch.setattr(csource, "_last_index", None)
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
    assert fresh.functions[0].syscall_sites == []
    assert fresh == _cold_index(src, names, monkeypatch)


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
